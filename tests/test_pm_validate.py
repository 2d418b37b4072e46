"""``procmat.pm_validate`` draws and contracts whole blocks of trials.

It must agree with the per-trial reference loop of ``pm_reference`` (totals,
worst trial, descriptions and random stream) across block boundaries, hold
at most one block in memory, clamp and count each batched entry once, and
name the trial of an out-of-range entry.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acausal_mbqc import acausal, graphstate, procmat, qlin
from pm_reference import mbqc_sampler, random_density, rank_one_sampler, reference_sweep


@st.composite
def sweeps(draw):
    """A W (a factored resource with N + n <= 5, or a density process matrix),
    a family with its per-trial reference sampler, a block size and a trial
    count that is not a multiple of it."""
    family = draw(st.sampled_from(["mbqc", "rank1"]))
    if draw(st.booleans()):
        n_comp = draw(st.integers(1, 4))
        n_out = draw(st.integers(1, 5 - n_comp))
        seed = draw(st.integers(0, 2**32 - 1))
        r = acausal.build_resource_pm(
            graphstate.random_resource_graph(np.random.default_rng(seed), n_comp, n_out)
        )
        w, alices, bobs = r.w, r.alice_parties, r.bob_parties
    else:
        k = draw(st.integers(1, 3))
        rho = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
        w = procmat.density_process_matrix(rho)
        split = draw(st.integers(0, k))
        alices, bobs = w.parties[:split], w.parties[split:]
    if family == "mbqc":
        fam, sampler = procmat.mbqc_instrument_family(alices, bobs), mbqc_sampler(alices, bobs)
    else:
        parties = alices + bobs
        fam, sampler = procmat.rank_one_instrument_family(parties), rank_one_sampler(parties)
    block = draw(st.integers(2, 6))
    trials = block * draw(st.integers(0, 3)) + draw(st.integers(1, block - 1))
    return w, fam, sampler, block, trials, draw(st.integers(0, 2**32 - 1))


def small_blocks(monkeypatch, w, family, block):
    """Shrink the byte budget so that ``pm_validate`` draws ``block`` trials at a time."""
    backend = "factorized" if w.factor is not None else "dense"
    monkeypatch.setattr(
        procmat,
        "_BLOCK_BYTES",
        procmat._fixed_bytes(w, backend) + block * procmat._trial_bytes(w, family, backend),
    )
    assert procmat._block_trials(w, family, backend) == block


@settings(max_examples=40, deadline=None, database=None)
@given(sweeps())
def test_batched_sweep_equals_the_per_trial_loop(case):
    w, family, sampler, block, trials, seed = case
    ref_rng = np.random.default_rng(seed)
    ref_totals, ref_worst, ref_desc = reference_sweep(w, sampler, trials, ref_rng)
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, w, family, block)
        rng = np.random.default_rng(seed)
        totals = np.concatenate([t for _, t in procmat._trial_totals(w, family, trials, rng)])
        # tol -1 makes the report describe the worst trial whatever its deviation
        rng_report = np.random.default_rng(seed)
        report = procmat.pm_validate(w, family, trials, -1.0, rng_report)
    assert totals.shape == (trials,)
    assert float(np.max(np.abs(totals - ref_totals))) <= 1e-12
    assert int(np.argmax(np.abs(totals - 1.0))) == ref_worst
    assert report.worst_assignment == ref_desc
    assert list(report.worst_assignment) == list(w.parties)
    assert report.max_deviation == pytest.approx(abs(ref_totals[ref_worst] - 1.0), abs=1e-12)
    assert report.trials == trials
    # the stream contract: the blocks consumed exactly what the trials did
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng_report.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "family, length",
    [("mbqc", 4), ("rank1", 4), ("mbqc", 2), ("rank1", 2)],
    ids=["mbqc", "rank1", "mbqc-chain2", "rank1-chain2"],
)
def test_sweep_memory_is_bounded_by_the_block_budget(family, length):
    """On chain(2) the rank-1 draw outweighs the contraction: a budget that
    left the draw out peaked at 2.5 times the budget there."""
    r = acausal.build_resource_pm(graphstate.chain(length))
    fam = (
        procmat.mbqc_instrument_family(r.alice_parties, r.bob_parties)
        if family == "mbqc"
        else procmat.rank_one_instrument_family(r.alice_parties + r.bob_parties)
    )
    trials = 20_000
    assert procmat._block_trials(r.w, fam, "factorized") < trials
    procmat.pm_validate(r.w, fam, 3, 1e-9, np.random.default_rng(0))  # warm caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = procmat.pm_validate(r.w, fam, trials, 1e-9, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.trials == trials
    assert peak < procmat._BLOCK_BYTES + procmat._BLOCK_BYTES // 16, peak


@pytest.mark.parametrize("family", ["mbqc", "rank1"])
def test_dense_sweep_memory_is_bounded_by_the_block_budget(family):
    """The same bound for a W given only as a dense operator, which the dense
    backend contracts; W itself is built before the sweep is measured."""
    w = procmat.density_process_matrix(random_density(np.random.default_rng(8), 4))
    fam = (
        procmat.mbqc_instrument_family(w.parties[:2], w.parties[2:])
        if family == "mbqc"
        else procmat.rank_one_instrument_family(w.parties)
    )
    trials = 200
    assert 1 < procmat._block_trials(w, fam, "dense") < trials
    procmat.pm_validate(w, fam, 3, 1e-9, np.random.default_rng(0))  # builds W, warms caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = procmat.pm_validate(w, fam, trials, 1e-9, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.trials == trials and report.passed
    assert peak < procmat._BLOCK_BYTES + procmat._BLOCK_BYTES // 16, peak


def test_dense_sweep_peak_is_near_the_block_budget():
    """``_trial_bytes`` counts what a block holds, its draw included: a sweep
    of two full blocks and one more trial over a W given only as a dense
    operator, of 1 to 5 parties, stays within the budget for either family
    and on one of them fills more than 0.9 of it (three copies of the largest
    intermediate, an older count, left such sweeps below 0.8; a count
    without the draw let small W overrun the budget by up to 1.44 times)."""
    ratios = []
    for k in range(1, 6):
        w = procmat.density_process_matrix(random_density(np.random.default_rng(8), k))
        for fam in (
            procmat.mbqc_instrument_family(w.parties[: k // 2], w.parties[k // 2:]),
            procmat.rank_one_instrument_family(w.parties),
        ):
            trials = 2 * procmat._block_trials(w, fam, "dense") + 1
            procmat.pm_validate(w, fam, 3, 1e-9, np.random.default_rng(0))  # builds W, warms caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                report = procmat.pm_validate(w, fam, trials, 1e-9, np.random.default_rng(0))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert report.trials == trials and report.passed
            ratios.append(peak / procmat._BLOCK_BYTES)
    assert max(ratios) < 1 + 1 / 16, ratios
    assert max(ratios) > 0.9, ratios


def chain2_sweep(monkeypatch, raw_trial):
    """chain(2) with 2-trial blocks and a factorized backend that returns
    ``raw_trial(t)`` for global trial t, so only the range guard acts."""
    r = acausal.build_resource_pm(graphstate.chain(2))
    family = procmat.mbqc_instrument_family(r.alice_parties, r.bob_parties)
    small_blocks(monkeypatch, r.w, family, 2)
    seen = []

    def fake(w, kets):
        first = len(seen)
        trials = len(kets[w.parties[0]][0])
        seen.extend(range(first, first + trials))
        return np.stack([raw_trial(t) for t in range(first, first + trials)])

    monkeypatch.setattr(procmat, "_factorized_probability", fake)
    return r, family


def test_batched_clamp_counts_each_entry_once(monkeypatch):
    r, family = chain2_sweep(
        monkeypatch, lambda t: np.array([[-5e-11, 0.5], [0.25, 0.25 + 5e-11]])
    )
    before = procmat.clamped_probability_count()
    report = procmat.pm_validate(r.w, family, 5, 1e-9, np.random.default_rng(1))
    assert procmat.clamped_probability_count() == before + 5
    # the clamped entry enters the total as 0.0
    assert report.max_deviation == pytest.approx(5e-11, abs=1e-15)


def test_range_error_names_the_trial(monkeypatch):
    def raw(t):
        return np.array([[0.25, 0.25], [1.0 + 2e-8 if t == 3 else 0.25, 0.25]])

    r, family = chain2_sweep(monkeypatch, raw)
    before = procmat.clamped_probability_count()
    with pytest.raises(
        procmat.ProcmatError, match=re.escape(f"{1.0 + 2e-8!r} at outcome (1, 0) of trial 3 ")
    ):
        procmat.pm_validate(r.w, family, 5, 1e-9, np.random.default_rng(1))
    assert procmat.clamped_probability_count() == before


def test_block_kets_get_the_ket_tests():
    kets = np.tile(np.eye(2, dtype=np.complex128), (3, 1, 1))
    procmat.InstrumentBlock({"P1": (kets, kets)}, lambda t: {"P1": ""})
    long = kets.copy()
    long[2, 1] *= 1.0 + 1e-9
    with pytest.raises(qlin.QlinError, match="deviates from 1"):
        procmat.InstrumentBlock({"P1": (kets, long)}, lambda t: {"P1": ""})
    bad = kets.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(qlin.QlinError, match="finite"):
        procmat.InstrumentBlock({"P1": (bad, kets)}, lambda t: {"P1": ""})
    with pytest.raises(procmat.ProcmatError, match="shape"):
        procmat.InstrumentBlock({"P1": (kets, kets[:2])}, lambda t: {"P1": ""})


def test_family_must_cover_every_party():
    r = acausal.build_resource_pm(graphstate.chain(2))
    family = procmat.rank_one_instrument_family(r.alice_parties)
    with pytest.raises(procmat.ProcmatError, match="every party"):
        procmat.pm_validate(r.w, family, 3, 1e-9, np.random.default_rng(0))
