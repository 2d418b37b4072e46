"""Causal measurement-based computation on graph states.

Computation vertices are measured one at a time in equatorial bases
|phi^m> = (|0> + (-1)^m e^{i phi}|1>)/sqrt(2); later angles adapt to earlier
outcomes through X/Z dependency sets, and the surviving output register gets
a final Pauli byproduct correction before computational-basis readout.

One measurement walk serves all three uses.  Sampled, it keeps one outcome
per row and step (``sample_causal``, ``run_causal``).  Split, it keeps both,
so one start row ends as all 2^N adaptive histories (``enumerate_causal``;
``positive_branch_output`` reads the all-zeros one) while every step holds
2^(N+n) amplitudes: O(N 2^(N+n)) work in all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import config, graphstate, qlin
from .graphstate import Graph
from .qlin import Ket


class PatternError(ValueError):
    """Invalid measurement pattern or pattern/graph mismatch."""


TWO_PI = 2.0 * np.pi


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

    ang = {}
    for v, a in angles.items():
        a = float(a)
        if not np.isfinite(a):
            raise PatternError(f"angle for {v!r} must be finite, got {a}")
        ang[str(v)] = a % TWO_PI
    return Pattern(
        order=tuple(str(v) for v in order),
        angles=ang,
        x_deps=freeze(x_deps),
        z_deps=freeze(z_deps),
        out_x_deps=freeze(out_x_deps),
        out_z_deps=freeze(out_z_deps),
    )


def validate_pattern(g: Graph, p: Pattern) -> Pattern:
    graphstate.validate(g)
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
    if not (np.isin(s_x, (0, 1)).all() and np.isin(s_z, (0, 1)).all()):
        raise PatternError(f"parities must be bits, got s_x={s_x}, s_z={s_z}")
    angle = (np.where(s_x == 1, -phi, phi) + np.pi * s_z) % TWO_PI
    return float(angle) if angle.ndim == 0 else angle


def as_angle_map(g: Graph, angles) -> dict[str, float]:
    """Accept a scalar (broadcast), a sequence over C in order, or a full mapping."""
    comp = g.computation
    if isinstance(angles, Mapping):
        if set(angles) != set(comp):
            raise PatternError("angle mapping must cover exactly the computation vertices")
        return {v: float(angles[v]) for v in comp}
    if np.isscalar(angles):
        return {v: float(angles) for v in comp}
    vals = [float(a) for a in angles]
    if len(vals) != len(comp):
        raise PatternError(f"expected {len(comp)} angles, got {len(vals)}")
    return dict(zip(comp, vals))


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


def _walk(g: Graph, p: Pattern, rows: int = 1, *, correct: bool, rng=None, cap=None):
    """The one measurement walk: ``rows`` runs of pattern ``p`` side by side.

    Every row measures ``p.order`` at its adapted angles, then, if ``correct``,
    applies the output byproducts as per-row flips and signs.  Sampled (``rng``
    given): each step keeps one child per row, outcome 0 exactly when a uniform
    ``u < p0``, and each row finally reads out O.  The uniforms ``rng.random((block,
    N + n))`` are drawn row-major block after block, as ``rows`` single runs
    draw them, so no result depends on the block size (at most 2^cap
    amplitudes).  Split (no ``rng``): each step keeps both children, so one
    start row ends as all 2^N histories, the first vertex of ``p.order`` most
    significant, and every step holds 2^(N+n) amplitudes.  Returns outcome
    bits (rows, N) in C order, history weights (rows,), and readout bits
    (rows, n) in O order (sampled) or output amplitudes (rows, 2^n) (split).
    """
    validate_pattern(g, p)
    base = graphstate.graph_state(g, cap).amplitudes
    n_comp, n_out = g.n_computation, g.n_output
    col = {v: i for i, v in enumerate(p.order)}
    block = max(1, 2 ** config.qubit_cap(cap) // base.size)
    parts = []
    for start in range(0, rows, block):
        b = min(block, rows - start)
        u = None if rng is None else rng.random((b, n_comp + n_out))
        state, live = np.broadcast_to(base, (b, base.size)), list(graphstate.ket_order(g))
        bits, weight = np.zeros((b, 0), dtype=np.int64), np.ones(b)

        def parity(deps):
            return bits[:, [col[x] for x in deps]].sum(axis=1) % 2

        def step(state, pos, bras, t):
            """Measure; return the (parent row, outcome) pairs kept, their states and weights."""
            amps, w = _measure(state, pos, bras)
            if u is None:
                row, m = np.repeat(np.arange(len(w)), 2), np.tile([0, 1], len(w))
            else:
                row, m = np.arange(len(w)), (u[:, t] >= w[:, 0]).astype(np.int64)
            return row, m, amps[row, m], w[row, m]

        for i, v in enumerate(p.order):
            phi = adapted_angle(
                p.angles[v], parity(p.x_deps.get(v, ())), parity(p.z_deps.get(v, ()))
            )
            e = np.exp(1j * phi)
            bras = (np.stack([np.ones_like(e), e, np.ones_like(e), -e], 1) / np.sqrt(2.0)).conj()
            row, m, state, w = step(state, live.index(v), bras.reshape(-1, 2, 2), i)
            bits = np.column_stack([bits[row], m])
            weight = weight[row] * w
            live.remove(v)
        for o in g.output if correct else ():
            s = state.reshape(len(state), 2 ** live.index(o), 2, -1)
            s = np.where(parity(p.out_x_deps.get(o, ()))[:, None, None, None], s[:, :, ::-1], s)
            s[:, :, 1] *= (1 - 2 * parity(p.out_z_deps.get(o, ())))[:, None, None]
            state = s.reshape(len(s), -1)
        if u is not None:  # only O is left, in O order, so each readout is axis 0
            z = np.zeros((b, n_out), dtype=np.int64)
            for t in range(n_out):
                _, z[:, t], state, _ = step(state, 0, np.eye(2)[None], n_comp + t)
            state = z
        parts.append((bits[:, [col[c] for c in g.computation]], weight, state))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def sample_causal(
    g: Graph, p: Pattern, shots: int, rng: np.random.Generator, *, correct=True, cap=None
):
    """``shots`` adaptive runs (measure C in order, correct, read out O): outcome
    bits (shots, N) in C order, readout bits (shots, n) in O order and each C
    history's Born weight.  Row r equals the r-th of ``shots`` single runs."""
    if shots < 1:
        raise ValueError("shots must be positive")
    m, weight, z = _walk(g, p, shots, correct=correct, rng=rng, cap=cap)
    return m, z, weight


def run_causal(g: Graph, p: Pattern, rng, *, correct: bool = True) -> RunRecord:
    """One adaptive run: the ``shots=1`` view of :func:`sample_causal`."""
    m, z, weight = sample_causal(g, p, 1, rng, correct=correct)
    return RunRecord(tuple(m[0].tolist()), tuple(z[0].tolist()), float(weight[0]), correct)


@dataclass(frozen=True)
class BranchResult:
    """One outcome history and its exact post-correction readout distribution."""

    m: tuple[int, ...]
    probability: float
    output_distribution: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.output_distribution, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "output_distribution", arr)


def enumerate_causal(
    g: Graph, p: Pattern, *, correct: bool = True, cap=None
) -> tuple[BranchResult, ...]:
    """Exact walk over all 2^N adaptive outcome histories, the first vertex of
    ``p.order`` most significant: one split walk, O(N 2^(N+n)) work.

    Zero-probability branches are reported with probability 0 and an all-zero
    distribution.  The distributions are indexed by the O-register bits, first
    output vertex most significant.
    """
    m, weight, amps = _walk(g, p, correct=correct, cap=cap)
    return tuple(
        BranchResult(tuple(row.tolist()), float(w), np.abs(a) ** 2)
        for row, w, a in zip(m, weight, amps)
    )


def branch_probability(g: Graph, angles, m: Sequence[int], z: Sequence[int]) -> float:
    """Joint probability of outcome tuple (m, z) under non-adaptive equatorial
    measurement of C at the given base angles plus computational readout of O.

    Summing over all (m, z) gives exactly 1 for any graph (the projectors form
    a complete orthonormal basis).
    """
    graphstate.validate(g)
    ang = as_angle_map(g, angles)
    m = tuple(int(b) for b in m)
    z = tuple(int(b) for b in z)
    if len(m) != g.n_computation or any(b not in (0, 1) for b in m):
        raise PatternError(f"m must be {g.n_computation} bits")
    if len(z) != g.n_output or any(b not in (0, 1) for b in z):
        raise PatternError(f"z must be {g.n_output} bits")
    factors = [qlin.equatorial_ket(ang[c], mc) for c, mc in zip(g.computation, m)]
    factors += [qlin.basis_ket([bit]) for bit in z]
    bra = qlin.kron_all(factors)
    return float(abs(qlin.overlap(bra, graphstate.graph_state(g))) ** 2)


def positive_branch_output(g: Graph, angles, cap=None) -> Ket:
    """Normalized output state of the all-zeros outcome branch (no corrections
    needed), row 0 of the uncorrected split; errors if that branch has
    (numerically) zero probability."""
    p = make_pattern(g.computation, as_angle_map(g, angles))
    _, weight, amps = _walk(g, p, correct=False, cap=cap)
    if weight[0] == 0.0:
        raise PatternError("positive branch has zero probability at these angles")
    return Ket(amps[0])


# ---------------------------------------------------------------------------
# chain presets

def chain_pattern(g: Graph, angles=0.0) -> Pattern:
    """Standard adaptive pattern for a disjoint union of chains.

    Within each chain, measured from the far end toward the output: each
    vertex's angle sign flips with the previous outcome and picks up pi with
    the one before that; the output correction is X^(last outcome) *
    Z^(second-to-last outcome).
    """
    graphstate.validate(g)
    ang = as_angle_map(g, angles)
    adj = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
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
    if not isinstance(obj["angles"], dict) or not all(
        isinstance(v, str) and isinstance(a, (int, float)) for v, a in obj["angles"].items()
    ):
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
        except json.JSONDecodeError as exc:
            raise PatternError(f"invalid JSON in {path}: {exc}") from exc
    return pattern_from_json(obj)
