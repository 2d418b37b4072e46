"""``procmat.pm_validate`` draws and contracts whole blocks of trials.

It must agree with the per-trial reference loop of ``pm_reference`` (totals,
worst trial, descriptions and random stream) across block boundaries, hold
at most one block in memory, clamp and count each batched entry once, and
name the trial of an out-of-range entry.  A drawn block checks each of its
two ket arrays once, and still refuses a bad ket of any party.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acausal_mbqc import acausal, graphstate, procmat, qlin
from pm_reference import density_pm, mbqc_sampler, random_ket, rank_one_sampler, reference_sweep


@st.composite
def sweeps(draw):
    """A W (a resource with N + n <= 5, or a density process matrix),
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
        w, alices, bobs = r.w, r.n_computation, r.n_output
    else:
        k = draw(st.integers(1, 3))
        w = density_pm(random_ket(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k))
        split = draw(st.integers(0, k))
        alices, bobs = split, k - split
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
    monkeypatch.setattr(procmat, "_BLOCK_BYTES", block * procmat._trial_bytes(w, family))
    assert procmat._block_trials(w, family) == block


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
        procmat.mbqc_instrument_family(r.n_computation, r.n_output)
        if family == "mbqc"
        else procmat.rank_one_instrument_family(r.n_computation + r.n_output)
    )
    trials = 20_000
    assert procmat._block_trials(r.w, fam) < trials
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


def test_sweep_peak_is_near_the_block_budget():
    """``_trial_bytes`` counts what a block holds, its draw included: a sweep
    of two full blocks and one more trial over a density process matrix of
    1 to 5 parties stays within the budget for either family."""
    ratios = []
    for k in range(1, 6):
        w = density_pm(random_ket(np.random.default_rng(8), k))
        for fam in (
            procmat.mbqc_instrument_family(k // 2, k - k // 2),
            procmat.rank_one_instrument_family(k),
        ):
            trials = 2 * procmat._block_trials(w, fam) + 1
            procmat.pm_validate(w, fam, 3, 1e-9, np.random.default_rng(0))  # warm caches
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


def chain2_sweep(monkeypatch, raw_trial):
    """chain(2) with 2-trial blocks and a factorized backend that returns
    ``raw_trial(t)`` for global trial t, so only the range guard acts."""
    r = acausal.build_resource_pm(graphstate.chain(2))
    family = procmat.mbqc_instrument_family(r.n_computation, r.n_output)
    small_blocks(monkeypatch, r.w, family, 2)
    seen = []

    def fake(w, measure, reprepare):
        first = len(seen)
        trials = len(measure)
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
    kets = np.tile(np.eye(2, dtype=np.complex128), (3, 1, 1, 1))
    procmat.InstrumentBlock(kets, kets, lambda t: ("",))
    long = kets.copy()
    long[2, 0, 1] *= 1.0 + 1e-9
    with pytest.raises(qlin.QlinError, match="deviates from 1"):
        procmat.InstrumentBlock(kets, long, lambda t: ("",))
    bad = kets.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(qlin.QlinError, match="finite"):
        procmat.InstrumentBlock(bad, kets, lambda t: ("",))
    with pytest.raises(procmat.ProcmatError, match="shape"):
        procmat.InstrumentBlock(kets, kets[:2], lambda t: ("",))


def chain4_family(name):
    r = acausal.build_resource_pm(graphstate.chain(4))
    if name == "mbqc":
        return r, procmat.mbqc_instrument_family(r.n_computation, r.n_output)
    return r, procmat.rank_one_instrument_family(len(r.parties))


@pytest.mark.parametrize("name", ["mbqc", "rank1"])
def test_a_block_checks_each_drawn_array_once(monkeypatch, name):
    """Each family draws two arrays a block: ``mbqc`` its Alices' equatorial
    kets with one readout per Bob, and the readout broadcast as every
    reprepare ket, which is checked on its one shared pair; ``rank1`` its
    measure bases and its reprepare kets.  So each block makes two checks,
    one per array, whatever its trials and parties."""
    r, family = chain4_family(name)
    small_blocks(monkeypatch, r.w, family, 3)  # and builds W before the spy
    seen = []
    real = qlin.check_unit_kets

    def spy(vecs, *args, **kwargs):
        seen.append(vecs.shape)
        return real(vecs, *args, **kwargs)

    monkeypatch.setattr(qlin, "check_unit_kets", spy)
    family.draw(np.random.default_rng(3), 7)
    parties = len(r.parties)
    shared = (1, 1, 2, 2) if name == "mbqc" else (7, parties, 2, 2)
    assert seen == [(7, parties, 2, 2), shared]
    seen.clear()
    procmat.pm_validate(r.w, family, 8, 1e-9, np.random.default_rng(3))
    assert len(seen) == 2 * 3


@pytest.mark.parametrize("side", ["measure", "reprepare"])
@pytest.mark.parametrize("name", ["mbqc", "rank1"])
def test_a_bad_ket_of_any_party_in_a_drawn_block_is_refused(name, side):
    """A ket off the unit sphere, or a NaN, planted in one party's measure or
    reprepare stack of a drawn block, in any trial, is refused; so is a bad
    ket in a broadcast shared by every trial, which is checked once."""
    r, family = chain4_family(name)
    block = family.draw(np.random.default_rng(5), 3)
    for i in range(block.measure.shape[1]):
        for defect, message in ((1.0 + 1e-9, "deviates from 1"), (np.nan, "finite")):
            arrays = {"measure": np.array(block.measure), "reprepare": np.array(block.reprepare)}
            arrays[side][i % 3, i, 1, 1] *= defect
            with pytest.raises(qlin.QlinError, match=message):
                procmat.InstrumentBlock(arrays["measure"], arrays["reprepare"], block.describe)
    long = np.eye(2, dtype=np.complex128)
    long[1] *= 1.0 + 1e-9
    arrays = {"measure": block.measure, "reprepare": block.reprepare}
    arrays[side] = np.broadcast_to(long, block.measure.shape)
    with pytest.raises(qlin.QlinError, match="deviates from 1"):
        procmat.InstrumentBlock(arrays["measure"], arrays["reprepare"], block.describe)


def test_family_must_cover_every_party():
    r = acausal.build_resource_pm(graphstate.chain(2))
    family = procmat.rank_one_instrument_family(1)
    with pytest.raises(procmat.ProcmatError, match="^block has 1 parties, W has 2$"):
        procmat.pm_validate(r.w, family, 3, 1e-9, np.random.default_rng(0))
