"""Spans around the package's layer boundaries, recorded from outside the package.

``Tracer.installed()`` replaces module attributes (and three class methods)
with wrappers that record one span per call: name, start, end, parent span
and the operation it ran under.  The package's modules call each other, and
their own functions, through module attributes looked up at call time, so the
wrappers also see module-internal calls.  On exit every original is restored;
untraced measurements are only ever taken with the wrappers absent.

Spans stay in memory until ``write`` puts them in a JSON-lines file.
``layer_metrics`` turns them into the per-layer numbers the benchmark
reports: call counts, inclusive and self times, and rates built from counts
that the probes take from arguments and results.  Byte counts come from
array ``nbytes`` and are computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def _array_nbytes(obj) -> int:
    for attr in ("amplitudes", "entries"):
        arr = getattr(obj, attr, None)
        if arr is not None:
            return int(arr.nbytes)
    return 0


def _probe_largest(counters, args, result):
    counters["largest_bytes"] = max(counters["largest_bytes"], _array_nbytes(result))


def _probe_kron(counters, args, result):
    nbytes = _array_nbytes(result)
    counters["kron_bytes"] += nbytes
    counters["largest_bytes"] = max(counters["largest_bytes"], nbytes)


def _probe_hermop(counters, args, result):
    counters["largest_bytes"] = max(counters["largest_bytes"], _array_nbytes(args[0]))


def _probe_table(counters, args, result):
    counters["table_entries"] += int(result.size)


def _probe_sampler(counters, args, result):
    counters["sampler_shots"] += int(result.shots)
    counters["sampler_accepted"] += int(result.accepted)


def _probe_validate(counters, args, result):
    counters["validate_trials"] += int(result.trials)


def _targets(pkg):
    """(owner, attribute, span name, probe) for every wrapped boundary."""
    acausal, cli, game, gs, mbqc, procmat, qlin = (
        pkg.acausal, pkg.cli, pkg.game, pkg.graphstate, pkg.mbqc, pkg.procmat, pkg.qlin
    )
    return [
        (cli, "main", "cli.main", None),
        (gs, "graph_state", "graphstate.graph_state", None),
        (gs, "random_resource_graph", "graphstate.random_resource_graph", None),
        (acausal, "build_resource_pm", "acausal.build_resource_pm", None),
        (acausal, "outcome_probabilities", "acausal.outcome_probabilities", _probe_table),
        (acausal, "backend_agreement", "acausal.backend_agreement", None),
        (acausal, "postselected_sampler", "acausal.postselected_sampler", _probe_sampler),
        (procmat, "pm_probability", "procmat.pm_probability", None),
        # "auto" resolves inside pm_probability, so the backend split is taken
        # at the two backend functions it dispatches to
        (procmat, "_dense_probability", "procmat.pm_probability.dense", None),
        (procmat, "_factorized_probability", "procmat.pm_probability.factorized", None),
        (procmat, "alice_instrument", "procmat.instrument", None),
        (procmat, "bob_instrument", "procmat.instrument", None),
        (procmat.ProcessMatrix, "dense", "procmat.dense", None),
        (procmat.ProcessMatrix, "min_eigenvalue", "procmat.min_eigenvalue", None),
        (procmat, "pm_validate", "procmat.pm_validate", _probe_validate),
        (mbqc, "run_causal", "mbqc.run_causal", None),
        (mbqc, "enumerate_causal", "mbqc.enumerate_causal", None),
        (game, "game_report", "game.game_report", None),
        (game, "girls_first_p0", "game.girls_first_p0", None),
        (qlin.HermOp, "__init__", "qlin.HermOp.init", _probe_hermop),
        (qlin, "kron_all", "qlin.kron_all", _probe_kron),
        (qlin, "permute_qubits", "qlin.permute_qubits", _probe_largest),
        (qlin, "sample_projective", "qlin.sample_projective", None),
        (qlin, "min_eigenvalue", "qlin.min_eigenvalue", None),
    ]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op)
        self.counters = defaultdict(int)
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, fn, name, probe):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if probe is not None:
                probe(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap every target of the package ``pkg`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, probe in _targets(pkg):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, probe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans not nested inside a span of the same
    name; self time is a span's duration minus its direct children's.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return stats


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(st, c, clamped: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit), from ``span_stats`` output
    and a tracer's counters; layers not reached read 0."""

    def calls(name):
        return st[name]["calls"]

    def secs(name):
        return st[name]["s"]

    runs = calls("mbqc.run_causal")
    shots = c["sampler_shots"]
    return {
        "cli.self_s": (st["cli.main"]["self_s"], "s"),
        "graphstate.graph_state.calls": (calls("graphstate.graph_state"), "count"),
        "graphstate.graph_state.s": (secs("graphstate.graph_state"), "s"),
        "graphstate.random_resource_graph.s": (secs("graphstate.random_resource_graph"), "s"),
        "acausal.build_resource_pm.calls": (calls("acausal.build_resource_pm"), "count"),
        "acausal.build_resource_pm.s": (secs("acausal.build_resource_pm"), "s"),
        "acausal.outcome_probabilities.calls": (calls("acausal.outcome_probabilities"), "count"),
        "acausal.outcome_probabilities.s": (secs("acausal.outcome_probabilities"), "s"),
        "acausal.outcome_probabilities.self_s": (
            st["acausal.outcome_probabilities"]["self_s"], "s"),
        "acausal.outcome_probabilities.entries_per_s": (
            _rate(c["table_entries"], secs("acausal.outcome_probabilities")), "1/s"),
        "acausal.backend_agreement.s": (secs("acausal.backend_agreement"), "s"),
        "acausal.postselected_sampler.shots_per_s": (
            _rate(shots, secs("acausal.postselected_sampler")), "1/s"),
        "acausal.postselected_sampler.acceptance": (
            c["sampler_accepted"] / shots if shots else 0.0, "ratio"),
        "procmat.pm_probability.dense.calls": (calls("procmat.pm_probability.dense"), "count"),
        "procmat.pm_probability.dense.s": (secs("procmat.pm_probability.dense"), "s"),
        "procmat.dense.s": (secs("procmat.dense"), "s"),
        "procmat.pm_probability.factorized.calls": (
            calls("procmat.pm_probability.factorized"), "count"),
        "procmat.pm_probability.factorized.s": (secs("procmat.pm_probability.factorized"), "s"),
        "procmat.instrument.calls": (calls("procmat.instrument"), "count"),
        "procmat.instrument.s": (secs("procmat.instrument"), "s"),
        "procmat.min_eigenvalue.s": (secs("procmat.min_eigenvalue"), "s"),
        "procmat.pm_validate.trials_per_s": (
            _rate(c["validate_trials"], secs("procmat.pm_validate")), "1/s"),
        "procmat.clamped": (clamped, "count"),
        "mbqc.run_causal.calls": (runs, "count"),
        "mbqc.run_causal.us_per_shot": (
            1e6 * secs("mbqc.run_causal") / runs if runs else 0.0, "us"),
        "mbqc.enumerate_causal.s": (secs("mbqc.enumerate_causal"), "s"),
        "game.game_report.s": (secs("game.game_report"), "s"),
        "game.girls_first_p0.s": (secs("game.girls_first_p0"), "s"),
        "qlin.HermOp.init.calls": (calls("qlin.HermOp.init"), "count"),
        "qlin.HermOp.init.s": (secs("qlin.HermOp.init"), "s"),
        "qlin.kron_all.calls": (calls("qlin.kron_all"), "count"),
        "qlin.kron_all.s": (secs("qlin.kron_all"), "s"),
        "qlin.kron_all.bytes": (c["kron_bytes"], "B"),
        "qlin.permute_qubits.s": (secs("qlin.permute_qubits"), "s"),
        "qlin.largest_array_mb": (c["largest_bytes"] / 2**20, "MB"),
        "qlin.sample_projective.calls": (calls("qlin.sample_projective"), "count"),
        "qlin.sample_projective.s": (secs("qlin.sample_projective"), "s"),
        "qlin.min_eigenvalue.s": (secs("qlin.min_eigenvalue"), "s"),
    }
