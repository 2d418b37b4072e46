"""Causal measurement-based computation on graph states.

Computation vertices are measured one at a time in equatorial bases
|phi^m> = (|0> + (-1)^m e^{i phi}|1>)/sqrt(2); later angles adapt to earlier
outcomes through X/Z dependency sets, and the surviving output register gets
a final Pauli byproduct correction before computational-basis readout.

One measurement walk serves every use.  It starts from the caller's graph
state (``game`` passes the one its resource holds), so it builds no state
and meets no cap.  Each step splits every node into both outcomes, so one
start row ends as all 2^N adaptive histories while every step holds
2^(N+n) amplitudes: O(N 2^(N+n)) work in all.
``enumerate_causal`` returns those histories as the walk's arrays, one row
per history (outcome bits, weight, readout distribution), corrected,
uncorrected or both from the same walk; row 0 is the all-zeros history, the
positive branch.  ``sample_causal`` (and ``run_causal``, its one-shot view)
splits the n readouts too and keeps each node's probability of outcome 0;
every shot then descends that tree with one uniform per level, so S shots
cost O(N 2^(N+n) + S (N+n)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import graphstate, qlin
from .graphstate import Graph


class PatternError(ValueError):
    """Invalid measurement pattern or pattern/graph mismatch."""


@dataclass(frozen=True)
class Pattern:
    """Adaptive measurement schedule for the computation vertices of a graph.

    order
        Measurement order; a permutation of the graph's computation vertices.
    angles
        Base equatorial angle per computation vertex, stored mod 2*pi.
    x_deps, z_deps
        Per-vertex sets of strictly earlier vertices whose outcome parities
        flip the sign of the angle (x) or add pi to it (z).
    out_x_deps, out_z_deps
        Per-output-vertex parity sets for the final X/Z byproduct correction.
    """

    order: tuple[str, ...]
    angles: Mapping[str, float]
    x_deps: Mapping[str, frozenset[str]]
    z_deps: Mapping[str, frozenset[str]]
    out_x_deps: Mapping[str, frozenset[str]]
    out_z_deps: Mapping[str, frozenset[str]]


def make_pattern(
    order: Sequence[str],
    angles: Mapping[str, float],
    x_deps: Mapping[str, Sequence[str]] | None = None,
    z_deps: Mapping[str, Sequence[str]] | None = None,
    out_x_deps: Mapping[str, Sequence[str]] | None = None,
    out_z_deps: Mapping[str, Sequence[str]] | None = None,
) -> Pattern:
    """Normalize user input into a Pattern (angles reduced mod 2*pi, deps frozen)."""

    def freeze(deps):
        return {str(v): frozenset(str(u) for u in us) for v, us in (deps or {}).items()}

    ang = {str(v): _real_angle(v, a) % qlin.TWO_PI for v, a in angles.items()}
    return Pattern(
        order=tuple(str(v) for v in order),
        angles=ang,
        x_deps=freeze(x_deps),
        z_deps=freeze(z_deps),
        out_x_deps=freeze(out_x_deps),
        out_z_deps=freeze(out_z_deps),
    )


def validate_pattern(g: Graph, p: Pattern) -> Pattern:
    cset = set(g.computation)
    oset = set(g.output)
    if len(set(p.order)) != len(p.order) or set(p.order) != cset:
        raise PatternError(
            f"order must be a permutation of the computation vertices {sorted(cset)}"
        )
    if set(p.angles) != cset:
        raise PatternError("angles must cover exactly the computation vertices")
    rank = {v: i for i, v in enumerate(p.order)}
    for name, deps in (("x_deps", p.x_deps), ("z_deps", p.z_deps)):
        for v, us in deps.items():
            if v not in cset:
                raise PatternError(f"{name} key {v!r} is not a computation vertex")
            for u in us:
                if u not in cset:
                    raise PatternError(f"{name}[{v!r}] references non-computation vertex {u!r}")
                if rank[u] >= rank[v]:
                    raise PatternError(
                        f"{name}[{v!r}] references {u!r}, which is not strictly earlier in order"
                    )
    for name, deps in (("out_x_deps", p.out_x_deps), ("out_z_deps", p.out_z_deps)):
        for o, us in deps.items():
            if o not in oset:
                raise PatternError(f"{name} key {o!r} is not an output vertex")
            bad = set(us) - cset
            if bad:
                raise PatternError(f"{name}[{o!r}] references non-computation vertices {sorted(bad)}")
    return p


def adapted_angle(phi: float, s_x, s_z):
    """Angle actually measured: (-1)^{s_x} phi + pi * s_z, reduced mod 2*pi;
    the parities may be equal-shape arrays of bits, one per run."""
    s_x, s_z = np.asarray(s_x), np.asarray(s_z)
    if not (((s_x == 0) | (s_x == 1)).all() and ((s_z == 0) | (s_z == 1)).all()):
        raise PatternError(f"parities must be bits, got s_x={s_x}, s_z={s_z}")
    angle = _adapted(phi, s_x, s_z)
    return float(angle) if angle.ndim == 0 else angle


def _adapted(phi: float, s_x: np.ndarray, s_z: np.ndarray) -> np.ndarray:
    """``adapted_angle``'s arithmetic on parity arrays known to be bits."""
    return (np.where(s_x == 1, -phi, phi) + np.pi * s_z) % qlin.TWO_PI


def as_angle_map(g: Graph, angles) -> dict[str, float]:
    """Accept a scalar or 0-d array (broadcast), a sequence over C in order,
    or a full mapping.  This is the one angle check of every route that
    reads angles: an angle that is no finite real number (a bool, a string,
    a complex, an infinity or NaN) raises PatternError naming its vertex."""
    comp = g.computation
    if isinstance(angles, Mapping):
        if set(angles) != set(comp):
            raise PatternError("angle mapping must cover exactly the computation vertices")
        angles = [angles[v] for v in comp]
    elif np.isscalar(angles) or (isinstance(angles, np.ndarray) and angles.ndim == 0):
        angles = [angles] * len(comp)
    angles = list(angles)
    if len(angles) != len(comp):
        raise PatternError(f"expected {len(comp)} angles, got {len(angles)}")
    return {v: _real_angle(v, a) for v, a in zip(comp, angles)}


def _real_angle(v: str, a) -> float:
    """The angle ``a`` at vertex ``v`` as a float.  Only a Python or numpy
    int or float (no bool), or a 0-d array of one, finite as a float, passes;
    anything else raises PatternError naming ``v``."""
    if isinstance(a, np.ndarray) and a.ndim == 0:
        a = a[()]
    if isinstance(a, bool) or not isinstance(a, (float, int, np.floating, np.integer)):
        raise PatternError(f"angle for {v!r} must be a real number, got {a!r}")
    try:
        value = float(a)
    except OverflowError:
        raise PatternError(f"angle for {v!r} is an integer too large for a float") from None
    if not math.isfinite(value):
        raise PatternError(f"angle for {v!r} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RunRecord:
    """One causal run: outcome bits in graph C order, readout bits in O order."""

    m: tuple[int, ...]
    z: tuple[int, ...]
    branch_probability: float
    corrected: bool


ZERO_BRANCH_WEIGHT = 1e-28  # a lighter branch is dropped: weight 0, zero amplitudes


def _measure(state: np.ndarray, pos: int, bras: np.ndarray):
    """Measure axis ``pos`` of every row of ``state`` (rows, 2^r), where
    ``bras[row, m]`` is outcome m's conjugated basis ket.  Returns both children
    of every row: the renormalized post-states (rows, 2, 2^(r-1)) and the
    weights (rows, 2)."""
    s = state.reshape(len(state), 2**pos, 2, -1)
    br = bras[:, :, :1, None] * s[:, None, :, 0] + bras[:, :, 1:, None] * s[:, None, :, 1]
    w = np.sum(np.abs(br) ** 2, axis=(2, 3))
    dead = w < ZERO_BRANCH_WEIGHT
    br /= np.sqrt(np.where(dead, 1.0, w))[..., None, None]
    br[dead] = 0.0
    return br.reshape(len(state), 2, -1), np.where(dead, 0.0, w)


def _byproducts(g: Graph, p: Pattern, m: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The output byproducts X^(s_x) Z^(s_z) of pattern ``p`` on each row of
    ``state`` (rows, 2^n), the output register alone in O order, with the
    parities read from that row's outcome bits ``m`` (rows, N) in C order.
    Flips and exact sign changes, into a new array."""
    col = {c: i for i, c in enumerate(g.computation)}

    def parity(deps):
        return m[:, [col[x] for x in deps]].sum(axis=1) % 2

    for t, o in enumerate(g.output):
        s = state.reshape(len(state), 2**t, 2, -1)
        s = np.where(parity(p.out_x_deps.get(o, ()))[:, None, None, None], s[:, :, ::-1], s)
        s[:, :, 1] *= (1 - 2 * parity(p.out_z_deps.get(o, ())))[:, None, None]
        state = s.reshape(len(s), -1)
    return state


def _walk(g: Graph, p: Pattern, state: qlin.Ket):
    """The one measurement walk: every step splits every node into both outcomes.

    It starts from ``state``, the caller's graph state of ``g``.  Each
    vertex of ``p.order`` is measured at each node's adapted angle and both
    renormalized children are kept, so the one start row ends as all 2^N
    histories, the first vertex of ``p.order`` most significant, while every
    step holds 2^(N+n) amplitudes: O(N 2^(N+n)) work.  Returns outcome bits
    (2^N, N) in C order, history weights (2^N,), output amplitudes (2^N, 2^n)
    in O order before any byproduct, and a list holding, per step i, the
    outcome-0 weight (2^i,) of each node the step measured.
    """
    validate_pattern(g, p)
    if state.num_qubits != len(g.vertices):
        raise PatternError(f"the walk needs the {len(g.vertices)}-qubit state of g, not {state}")
    state = state.amplitudes[None]
    live = list(graphstate.ket_order(g))
    col = {v: i for i, v in enumerate(p.order)}
    weight, p0, bits = np.ones(1), [], np.zeros((1, 0), dtype=np.int64)

    def parity(deps):
        return bits[:, [col[x] for x in deps]].sum(axis=1) % 2

    for v in p.order:
        # the parities are sums of the walk's own bits mod 2, so unchecked
        phi = _adapted(p.angles[v], parity(p.x_deps.get(v, ())), parity(p.z_deps.get(v, ())))
        amps, w = _measure(state, live.index(v), qlin.equatorial_kets(phi).conj())
        p0.append(w[:, 0])
        state, weight = amps.reshape(-1, amps.shape[-1]), (weight[:, None] * w).ravel()
        bits = np.column_stack([bits.repeat(2, axis=0), np.tile([0, 1], len(bits))])
        live.remove(v)
    return bits[:, [col[c] for c in g.computation]], weight, state, p0


SHOT_BLOCK = 2**16  # shots per block of uniforms: a block's draws stay a few MB


def sample_causal(g: Graph, p: Pattern, state: qlin.Ket, shots: int, rng, *, correct=True):
    """``shots`` adaptive runs (measure C in order, correct, read out O) on
    ``state``, the graph state of ``g``: outcome bits (shots, N) in C order,
    readout bits (shots, n) in O order and each C history's Born weight.
    Row r equals the r-th of ``shots`` single runs.

    One split walk, its output byproducts applied if ``correct`` and its n
    readouts split the same way, is a tree of N + n levels holding each
    node's probability of outcome 0: O(N 2^(N+n)) work, once.  Each shot
    then descends the tree, taking outcome 0 at a level exactly when its
    uniform ``u < p0``: O(shots (N + n)) work.  The uniforms ``rng.random((block,
    N + n))`` are drawn row-major block after block, as ``shots`` single runs
    draw them, so no result depends on the block size.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    m, weight, state, p0 = _walk(g, p, state)
    if correct:
        state = _byproducts(g, p, m, state)
    for _ in g.output:  # only O is left, in O order, so each readout is axis 0
        amps, w = _measure(state, 0, np.eye(2)[None])
        p0.append(w[:, 0])
        state = amps.reshape(-1, amps.shape[-1])
    leaf = np.empty(shots, dtype=np.int64)
    for start in range(0, shots, SHOT_BLOCK):
        u = rng.random((min(SHOT_BLOCK, shots - start), len(p0)))
        node = np.zeros(len(u), dtype=np.int64)
        for level, q in enumerate(p0):
            node = 2 * node + (u[:, level] >= q[node])
        leaf[start : start + len(u)] = node
    history = leaf >> g.n_output
    z = (leaf[:, None] >> np.arange(g.n_output - 1, -1, -1)) & 1
    return m[history], z, weight[history]


def run_causal(g: Graph, p: Pattern, state: qlin.Ket, rng, *, correct: bool = True) -> RunRecord:
    """One adaptive run: the ``shots=1`` view of :func:`sample_causal`."""
    m, z, weight = sample_causal(g, p, state, 1, rng, correct=correct)
    return RunRecord(tuple(m[0].tolist()), tuple(z[0].tolist()), float(weight[0]), correct)


def enumerate_causal(g: Graph, p: Pattern, state: qlin.Ket, *, correct=True):
    """Exact walk over all 2^N adaptive outcome histories of ``state``, the
    graph state of ``g``, the first vertex of ``p.order`` most significant:
    one split walk, O(N 2^(N+n)) work.

    Returns the histories as arrays, one row each: outcome bits (2^N, N) in
    C order, Born weights (2^N,), and exact readout distributions (2^N, 2^n),
    indexed by the O-register bits with the first output vertex most
    significant, after the output byproducts if ``correct``.  A
    zero-probability history has weight 0 and an all-zero distribution.

    ``correct`` may also be a tuple of flags: the distributions are then
    stacked (flags, 2^N, 2^n), one per flag.  The corrected and uncorrected
    histories share every measurement step, so one walk serves them all, and
    each distribution equals the single-flag one bit for bit.
    """
    m, weight, amps, _ = _walk(g, p, state)

    def dist(flag):
        return np.abs(_byproducts(g, p, m, amps) if flag else amps) ** 2

    if isinstance(correct, tuple):
        return m, weight, np.stack([dist(flag) for flag in correct])
    return m, weight, dist(correct)


# ---------------------------------------------------------------------------
# chain presets

def chain_pattern(g: Graph, angles=0.0) -> Pattern:
    """Standard adaptive pattern for a disjoint union of chains.

    Within each chain, measured from the far end toward the output: each
    vertex's angle sign flips with the previous outcome and picks up pi with
    the one before that; the output correction is X^(last outcome) *
    Z^(second-to-last outcome).
    """
    ang = as_angle_map(g, angles)
    adj = graphstate._adjacency_sets(g)
    cset, oset = set(g.computation), set(g.output)

    order: list[str] = []
    x_deps: dict[str, list[str]] = {}
    z_deps: dict[str, list[str]] = {}
    out_x: dict[str, list[str]] = {}
    out_z: dict[str, list[str]] = {}
    seen: set[str] = set()
    for o in g.output:
        if len(adj[o]) != 1:
            raise PatternError(f"output {o!r} must terminate a chain (degree 1)")
        walk = [o]
        prev, cur = o, next(iter(adj[o]))
        while True:
            if cur in oset:
                raise PatternError(f"chain through {o!r} hits a second output {cur!r}")
            walk.append(cur)
            nxt = adj[cur] - {prev}
            if len(nxt) > 1:
                raise PatternError(f"vertex {cur!r} branches; graph is not a union of chains")
            if not nxt:
                break
            prev, cur = cur, next(iter(nxt))
        chain_cs = walk[1:][::-1]  # far end first, output's neighbor last
        for i, v in enumerate(chain_cs):
            if i >= 1:
                x_deps[v] = [chain_cs[i - 1]]
            if i >= 2:
                z_deps[v] = [chain_cs[i - 2]]
        out_x[o] = [chain_cs[-1]]
        if len(chain_cs) >= 2:
            out_z[o] = [chain_cs[-2]]
        order.extend(chain_cs)
        seen.update(walk)
    if seen != cset | oset:
        raise PatternError(f"vertices not on any output chain: {sorted((cset | oset) - seen)}")
    return validate_pattern(
        g, make_pattern(order, ang, x_deps, z_deps, out_x, out_z)
    )


# ---------------------------------------------------------------------------
# JSON interchange

_PATTERN_REQUIRED = {"order", "angles"}
_PATTERN_OPTIONAL = {"x_deps", "z_deps", "out_x_deps", "out_z_deps"}


def pattern_from_json(obj) -> Pattern:
    """Parse ``{"order": [...], "angles": {v: radians}, ...deps...}``; unknown fields rejected."""
    if not isinstance(obj, dict):
        raise PatternError(f"pattern document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _PATTERN_REQUIRED - _PATTERN_OPTIONAL
    if unknown:
        raise PatternError(f"unknown pattern fields: {sorted(unknown)}")
    missing = _PATTERN_REQUIRED - set(obj)
    if missing:
        raise PatternError(f"missing pattern fields: {sorted(missing)}")
    if not isinstance(obj["order"], list) or not all(isinstance(v, str) for v in obj["order"]):
        raise PatternError("order must be a list of strings")
    # make_pattern checks each angle, naming its vertex
    if not isinstance(obj["angles"], dict) or not all(isinstance(v, str) for v in obj["angles"]):
        raise PatternError("angles must map vertex labels to numbers")
    deps = {}
    for name in _PATTERN_OPTIONAL:
        block = obj.get(name, {})
        if not isinstance(block, dict) or not all(
            isinstance(v, str) and isinstance(us, list) and all(isinstance(u, str) for u in us)
            for v, us in block.items()
        ):
            raise PatternError(f"{name} must map vertex labels to lists of labels")
        deps[name] = block
    return make_pattern(obj["order"], obj["angles"], **deps)


def pattern_to_json(p: Pattern) -> dict:
    return {
        "order": list(p.order),
        "angles": {v: float(a) for v, a in sorted(p.angles.items())},
        "x_deps": {v: sorted(us) for v, us in sorted(p.x_deps.items()) if us},
        "z_deps": {v: sorted(us) for v, us in sorted(p.z_deps.items()) if us},
        "out_x_deps": {v: sorted(us) for v, us in sorted(p.out_x_deps.items()) if us},
        "out_z_deps": {v: sorted(us) for v, us in sorted(p.out_z_deps.items()) if us},
    }


def load_pattern(path) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise PatternError(f"invalid JSON in {path}: {exc}") from exc
    return pattern_from_json(obj)
