"""Open graphs (computation/output partition), decorated graphs, and graph states.

A resource graph splits its vertices into computation vertices C (measured)
and output vertices O (read out).  Decorating it attaches one fresh pendant
vertex to every C vertex; the pendant carries the measured vertex's outcome
in the acausal construction.  No pendant is measured, so the decorated graph
is an open graph like any other: its outputs are O, then the pendants in C
order.  A ``Graph`` checks its structure once, when it is built, and raises
``GraphError`` naming every problem; the functions here take that check as
given.

Register order for ``graph_state``: C vertices in input order, then O
vertices in output order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .qlin import Ket


class GraphError(ValueError):
    """Invalid graph structure; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a computation/output split.

    Construction takes any sequences and stores them as tuples of strings,
    each edge's endpoints sorted; it raises GraphError with every structural
    problem, so a Graph that exists is valid and no caller checks it again.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    computation: tuple[str, ...]
    output: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(
            self,
            "edges",
            tuple(tuple(sorted((str(a), str(b)))) for a, b in self.edges),
        )
        object.__setattr__(self, "computation", tuple(str(v) for v in self.computation))
        object.__setattr__(self, "output", tuple(str(v) for v in self.output))
        problems = _violations(self)
        if problems:
            raise GraphError(problems)

    @property
    def n_computation(self) -> int:
        return len(self.computation)

    @property
    def n_output(self) -> int:
        return len(self.output)

    def __repr__(self) -> str:
        return (
            f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"N={self.n_computation}, n={self.n_output})"
        )


def _violations(g: Graph) -> list[str]:
    """All structural problems of ``g``; empty list means valid."""
    problems: list[str] = []
    verts = g.vertices
    vset = set(verts)
    if len(vset) != len(verts):
        problems.append("duplicate vertex labels")
    if not g.computation:
        problems.append("computation set is empty")
    if not g.output:
        problems.append("output set is empty")
    cset, oset = set(g.computation), set(g.output)
    if len(cset) != len(g.computation):
        problems.append("duplicate computation labels")
    if len(oset) != len(g.output):
        problems.append("duplicate output labels")
    if not cset <= vset:
        problems.append(f"computation vertices not in vertex set: {sorted(cset - vset)}")
    if not oset <= vset:
        problems.append(f"output vertices not in vertex set: {sorted(oset - vset)}")
    if cset & oset:
        problems.append(f"computation and output overlap: {sorted(cset & oset)}")

    seen = set()
    for a, b in g.edges:
        if a == b:
            problems.append(f"self-loop at {a!r}")
        if a not in vset or b not in vset:
            problems.append(f"edge ({a!r}, {b!r}) references unknown vertex")
        if (a, b) in seen:
            problems.append(f"duplicate edge ({a!r}, {b!r})")
        seen.add((a, b))

    if vset - cset - oset:
        problems.append(
            f"vertices outside computation/output partition: {sorted(vset - cset - oset)}"
        )
    return problems


def _adjacency_sets(g: Graph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def ket_order(g: Graph) -> tuple[str, ...]:
    """Register order: C vertices, then O vertices."""
    return g.computation + g.output


def qubit_index(g: Graph) -> dict[str, int]:
    return {v: i for i, v in enumerate(ket_order(g))}


def decorate(g: Graph) -> Graph:
    """Attach one fresh pendant vertex to every computation vertex.

    Pendant labels are the C label plus apostrophes, extended until fresh.
    The pendants are outputs, after O in C order, so the decorated state's
    register is (C, O, pendants).
    """
    used = set(g.vertices)
    reds = []
    for c in g.computation:
        red = c + "'"
        while red in used:
            red += "'"
        used.add(red)
        reds.append(red)
    return Graph(
        vertices=g.vertices + tuple(reds),
        edges=g.edges + tuple(zip(g.computation, reds)),
        computation=g.computation,
        output=g.output + tuple(reds),
    )


def graph_state(g: Graph, cap: int | None = None) -> Ket:
    """|G>: every vertex prepared as |+>, one CZ per edge, in register order.

    CZ application order is irrelevant (they commute), and the implementation
    is an exact sign flip, so the result is bit-identical for any edge order.
    This is the one place a state register meets the cap, before allocation.
    """
    order = ket_order(g)
    k, cap = len(order), config.qubit_cap(cap)
    if k > cap:
        raise config.RegisterCapError(
            f"graph state on {k} vertices needs {k} qubits, above the cap of {cap}; "
            f"raise it via the cap argument or {config.CAP_ENV_VAR}"
        )
    idx = {v: i for i, v in enumerate(order)}
    amps = np.full(2**k, 2 ** (-k / 2), dtype=np.complex128)
    view = amps.reshape((2,) * k)
    for a, b in g.edges:
        sel: list = [slice(None)] * k
        sel[idx[a]] = 1
        sel[idx[b]] = 1
        view[tuple(sel)] *= -1.0
    return Ket(amps)


def stabilizer_check(state: Ket, g: Graph) -> float:
    """max over vertices v of || K_v |state> - |state> ||, K_v = X_v prod_{u~v} Z_u:
    X_v flips axis v of the state tensor, and each Z_u negates its half where
    qubit u is 1, both exactly."""
    idx = qubit_index(g)
    if state.num_qubits != len(idx):
        raise GraphError(
            [f"state has {state.num_qubits} qubits but graph has {len(idx)} vertices"]
        )
    adj = _adjacency_sets(g)
    worst = 0.0
    for v in g.vertices:
        moved = np.flip(state.as_tensor(), idx[v]).copy()
        for u in adj[v]:
            moved[(slice(None),) * idx[u] + (1,)] *= -1.0
        worst = max(worst, float(np.linalg.norm(moved.reshape(-1) - state.amplitudes)))
    return worst


# ---------------------------------------------------------------------------
# uniform-branch predicate

def _gf2_survivors(g: Graph) -> list[tuple[str, ...]]:
    """Computation subsets S whose stabilizer product is supported on C alone.

    Over GF(2): S survives iff every O vertex has even adjacency into S and
    every C vertex outside S has even adjacency into S.  Surviving subsets
    are exactly the obstructions to outcome uniformity for generic equatorial
    angles (each contributes an X/Y-type parity constraint on the outcomes).
    """
    n = g.n_computation
    if n > 20:
        raise GraphError([f"uniformity enumeration capped at 20 computation vertices, got {n}"])
    # S and each vertex's C-neighbourhood as bitmasks, bit j for computation vertex j
    bit = {c: 1 << j for j, c in enumerate(g.computation)}
    adj = _adjacency_sets(g)
    nbrs = {v: sum(bit.get(u, 0) for u in adj[v]) for v in g.vertices}
    survivors = []
    for mask in range(1, 2**n):
        ok = all((nbrs[o] & mask).bit_count() % 2 == 0 for o in g.output) and all(
            (nbrs[c] & mask).bit_count() % 2 == 0 for c in g.computation if not bit[c] & mask
        )
        if ok:
            survivors.append(tuple(sorted(c for c in g.computation if bit[c] & mask)))
    return survivors


def has_uniform_branches(g: Graph) -> bool:
    """True iff every equatorial measurement of C gives uniformly random outcomes.

    This is the condition under which the acausal resource construction is a
    normalized process matrix for every equatorial angle assignment.  It holds
    for linear and parallel chains; it fails e.g. for two computation vertices
    sharing their only output neighbor, or for a 5-cycle with one output.
    """
    return not _gf2_survivors(g)


# ---------------------------------------------------------------------------
# shipped graphs

def chain(length: int, *, prefix: str = "") -> Graph:
    """Path of ``length`` vertices: c0 - c1 - ... - o0, the output at the end."""
    if length < 2:
        raise GraphError(["chain needs at least 2 vertices"])
    comp = tuple(f"{prefix}c{i}" for i in range(length - 1))
    out = (f"{prefix}o0",)
    verts = comp + out
    path = comp + out
    edges = tuple((path[i], path[i + 1]) for i in range(length - 1))
    return Graph(verts, edges, comp, out)


def parallel_chains(lengths: Sequence[int]) -> Graph:
    """Disjoint union of chains, one output per chain."""
    if not lengths:
        raise GraphError(["parallel_chains needs at least one chain"])
    parts = [chain(ln, prefix=f"{i}.") for i, ln in enumerate(lengths)]
    return Graph(
        tuple(itertools.chain.from_iterable(p.vertices for p in parts)),
        tuple(itertools.chain.from_iterable(p.edges for p in parts)),
        tuple(itertools.chain.from_iterable(p.computation for p in parts)),
        tuple(itertools.chain.from_iterable(p.output for p in parts)),
    )


def cycle_with_output(length: int) -> Graph:
    """Cycle of ``length`` vertices with one of them designated as the output."""
    if length < 3:
        raise GraphError(["cycle needs at least 3 vertices"])
    comp = tuple(f"c{i}" for i in range(length - 1))
    out = ("o0",)
    ring = comp + out
    edges = tuple((ring[i], ring[(i + 1) % length]) for i in range(length))
    return Graph(ring, edges, comp, out)


def random_connected_graph(rng: np.random.Generator, n_computation: int, n_output: int) -> Graph:
    """Random simple connected graph on labeled C and O vertices.

    A random spanning tree guarantees connectivity; every remaining pair is
    then added independently with probability 0.3.
    """
    if n_computation < 1 or n_output < 1:
        raise GraphError(["need at least one computation and one output vertex"])
    verts = [f"c{i}" for i in range(n_computation)] + [f"o{i}" for i in range(n_output)]
    order = list(verts)
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[int(rng.integers(0, i))]))) for i in range(1, len(order))}
    for pair in itertools.combinations(sorted(verts), 2):
        if pair not in edges and rng.random() < 0.3:
            edges.add(pair)
    return Graph(verts, sorted(edges), verts[:n_computation], verts[n_computation:])


# draws of ``random_resource_graph`` before it gives up
RESOURCE_GRAPH_TRIES = 10_000


def random_resource_graph(rng: np.random.Generator, n_computation: int, n_output: int) -> Graph:
    """Random connected graph satisfying :func:`has_uniform_branches`.

    Returns the first draw that satisfies the predicate, so raising
    ``RESOURCE_GRAPH_TRIES`` never changes the graph of a seed that succeeds.
    For N=4, n=1 only about 1.5% of draws satisfy it (seed 246 needs 810
    tries); at that rate 10 000 tries miss with odds below 1e-60.
    """
    for _ in range(RESOURCE_GRAPH_TRIES):
        g = random_connected_graph(rng, n_computation, n_output)
        if has_uniform_branches(g):
            return g
    raise GraphError([
        f"no uniform-branch graph found in {RESOURCE_GRAPH_TRIES} tries "
        f"for N={n_computation}, n={n_output}"
    ])


# ---------------------------------------------------------------------------
# JSON interchange

_GRAPH_FIELDS = {"vertices", "edges", "computation", "output"}


def graph_from_json(obj) -> Graph:
    """Parse ``{"vertices": [...], "edges": [[a, b], ...], "computation": [...], "output": [...]}``.

    Unknown fields are rejected; the result is validated.
    """
    if not isinstance(obj, dict):
        raise GraphError([f"graph document must be an object, got {type(obj).__name__}"])
    unknown = set(obj) - _GRAPH_FIELDS
    if unknown:
        raise GraphError([f"unknown graph fields: {sorted(unknown)}"])
    missing = _GRAPH_FIELDS - set(obj)
    if missing:
        raise GraphError([f"missing graph fields: {sorted(missing)}"])
    for name in ("vertices", "computation", "output"):
        if not isinstance(obj[name], list) or not all(isinstance(v, str) for v in obj[name]):
            raise GraphError([f"{name} must be a list of strings"])
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in edges
    ):
        raise GraphError(["edges must be a list of [a, b] label pairs"])
    return Graph(obj["vertices"], edges, obj["computation"], obj["output"])


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "computation": list(g.computation),
        "output": list(g.output),
    }


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise GraphError([f"invalid JSON in {path}: {exc}"]) from exc
    return graph_from_json(obj)
