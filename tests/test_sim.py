import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from twolane import codec, planner, sim
from twolane.fec import FecParams
from twolane.planner import LinkParams
from twolane.sim import SimConfig

from conftest import not_full_rank_rate


def make_link(ber=0.2, main_rate=8e11, main_distance=6.5, aux_distance=1.5):
    return LinkParams(
        fec=FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=ber),
        main_rate=main_rate,
        main_distance=main_distance,
        aux_distance=aux_distance,
    )


def config(ber=0.2, generations=200, seed=1, mode="analytic-erasure", **plan_overrides):
    link = make_link(ber=ber)
    lp = planner.plan(link)
    if plan_overrides:
        lp = dataclasses.replace(lp, **plan_overrides)
    return SimConfig(
        link=link, plan=lp, generations=generations, rng_seed=seed, error_mode=mode
    )


def plan_with_residual_ser(ps: float, redundancy: int):
    """Plan override for what-if runs: forced erasure probability and R.

    sim.run reads only R and the FEC statistics, so the lane timing is left as planned."""
    lp = planner.plan(make_link())
    fec_forced = dataclasses.replace(lp.fec, residual_ser=ps)
    return dataclasses.replace(lp, fec=fec_forced, redundancy=redundancy)


# -------------------------------------------------------------- erase_symbols


def test_erase_symbols_endpoints():
    rng = np.random.default_rng(0)
    assert sim.erase_symbols(4, 30, 0.0, rng).shape == (4, 30)
    assert sim.erase_symbols(4, 30, 0.0, rng).all()
    assert not sim.erase_symbols(4, 30, 1.0, rng).any()


def test_erase_symbols_binomial_mean():
    rng = np.random.default_rng(1)
    trials, batch = 100_000, 10_000
    batches = (sim.erase_symbols(batch, 30, 0.5, rng) for _ in range(trials // batch))
    survivors = sum(int(alive.sum()) for alive in batches)
    mean = survivors / trials
    sigma = math.sqrt(30 * 0.25 / trials)
    assert abs(mean - 15.0) <= 3 * sigma


# --------------------------------------------------------------- corrupt_bits


def test_corrupt_bits_error_free():
    rng = np.random.default_rng(2)
    assert sim.corrupt_bits(4, 30, 8, 0.0, 29, 0.8, rng).all()


def test_corrupt_bits_saturated_channel():
    rng = np.random.default_rng(3)
    # all 240 bits flip; a 23-bit budget cannot clean any full symbol
    assert not sim.corrupt_bits(4, 30, 8, 1.0, 29, 0.8, rng).any()


def test_corrupt_bits_budget_covers_everything():
    rng = np.random.default_rng(4)
    # huge budget: every flip is corrected, nothing erased
    assert sim.corrupt_bits(4, 30, 8, 0.3, 1000, 1.0, rng).all()


def test_corrupt_bits_budget_snaps_float_noise():
    rng = np.random.default_rng(6)
    # 0.57 * 100 == 56.99999999999999; the budget is 57 and cleans all 57 flips
    assert sim.corrupt_bits(2, 57, 1, 1.0, 100, 0.57, rng).all()


def erased_counts(trials, k, s, ber, correctable, code_rate, rng, batch=2000):
    """Erased symbols per generation over ``trials`` generations, drawn in batches."""
    return np.concatenate(
        [
            k - sim.corrupt_bits(batch, k, s, ber, correctable, code_rate, rng).sum(axis=1)
            for _ in range(trials // batch)
        ]
    )


def test_corrupt_bits_mean_matches_analytic_model():
    rng = np.random.default_rng(5)
    k_ps = 30 * 0.5821232558667687
    mean = erased_counts(20_000, 30, 8, 0.2, 29, 0.8, rng).mean()
    assert abs(mean - k_ps) <= 0.10 * k_ps


def test_corrupt_bits_mean_matches_the_uniform_subset_model():
    """3 sigma from the exact mean of correcting a uniform subset of the flips.

    F ~ Bin(K*s, p_e) bits flip and b = floor(0.8 * 29) = 23 of them are
    corrected, so the F' = max(0, F - b) flips left are a uniform F'-subset
    of the K*s bits, and a symbol is clean with probability
    C(K*s - s, F') / C(K*s, F'). Any sampler that corrects a uniformly
    random subset of the flips has this mean.
    """
    from scipy.stats import binom

    k, s, n = 30, 8, 240
    exact = k * sum(
        binom.pmf(f, n, 0.2) * (1 - math.comb(n - s, max(0, f - 23)) / math.comb(n, max(0, f - 23)))
        for f in range(n + 1)
    )
    erased = erased_counts(20_000, k, s, 0.2, 29, 0.8, np.random.default_rng(7))
    assert abs(erased.mean() - exact) <= 3 * erased.std(ddof=1) / math.sqrt(erased.size)


class Replay:
    """A stand-in generator whose ``random`` returns the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


@st.composite
def flip_draws(draw):
    g, k, s = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    flips = draw(hnp.arrays(np.bool_, (g, k * s)))
    keys = draw(hnp.arrays(np.float64, (g, k * s), elements=st.floats(0, 1, exclude_max=True)))
    return k, s, flips, keys, draw(st.integers(0, k * s + 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flip_draws())
def test_correct_flips_clears_min_of_flips_and_budget(case):
    k, s, flips, keys, budget = case
    left = sim.correct_flips(flips.copy(), keys, budget)
    assert not (left & ~flips).any()  # only flipped bits are cleared
    cleared = (flips & ~left).sum(axis=1)
    assert (cleared == np.minimum(flips.sum(axis=1), budget)).all()
    # corrupt_bits draws the flip uniforms, then the keys; a symbol survives
    # exactly when none of its bits is still flipped
    uniforms = np.where(flips, 0.25, 0.75)
    alive = sim.corrupt_bits(len(flips), k, s, 0.5, budget, 1.0, Replay(uniforms, keys))
    assert (alive == ~left.reshape(len(flips), k, s).any(axis=2)).all()


# ------------------------------------------------------------------------ run


def test_run_lossless_channel():
    report = sim.run(config(ber=0.0, generations=50))
    assert report.decode_failure_rate == 0.0
    assert report.symbol_erasure_rate == 0.0
    assert report.decoded_generations == 50
    assert report.payload_mismatches == 0
    assert report.received_histogram == {30: 50}


def test_run_erasure_rate_tracks_plan():
    cfg = config(ber=0.2, generations=2000, seed=11)
    report = sim.run(cfg)
    ps = cfg.plan.fec.residual_ser
    sigma = math.sqrt(ps * (1 - ps) / (30 * 2000))
    assert abs(report.symbol_erasure_rate - ps) <= 4 * sigma
    assert report.payload_mismatches == 0


def test_run_failure_rate_near_binomial_tail():
    from scipy.stats import binom

    cfg = dataclasses.replace(
        config(generations=3000, seed=13), plan=plan_with_residual_ser(0.2, 3)
    )
    report = sim.run(cfg)
    expected = float(binom.sf(3, 30, 0.2)) + not_full_rank_rate(30, 0.2, 3)
    sigma = math.sqrt(expected * (1 - expected) / 3000)
    assert abs(report.decode_failure_rate - expected) <= 3 * sigma


def test_run_auxiliary_lane_always_delivers():
    cfg = config(ber=0.2, generations=300, seed=17)
    report = sim.run(cfg)
    r = cfg.plan.redundancy
    assert r > 0
    assert min(report.received_histogram) >= r
    assert max(report.received_histogram) <= 30 + r
    assert sum(report.received_histogram.values()) == 300


def test_run_counts_are_consistent():
    cfg = dataclasses.replace(
        config(generations=500, seed=19), plan=plan_with_residual_ser(0.2, 3)
    )
    report = sim.run(cfg)
    total = (
        report.decoded_generations
        + report.insufficient_failures
        + report.singular_failures
    )
    assert total == report.sent_generations == 500
    assert report.decode_failure_rate == pytest.approx(
        (report.insufficient_failures + report.singular_failures) / 500
    )


def test_run_deterministic_for_fixed_seed():
    a = sim.run(config(generations=100, seed=29))
    b = sim.run(config(generations=100, seed=29))
    assert a == b
    c = sim.run(config(generations=100, seed=30))
    assert a != c


def test_run_bit_level_mode():
    report = sim.run(config(ber=0.2, generations=300, seed=31, mode="bit-level"))
    assert report.payload_mismatches == 0
    # R = 18 covers the mean erasure count; most generations decode
    assert report.decoded_generations > 100


def test_sim_config_validation():
    link = make_link()
    lp = planner.plan(link)
    with pytest.raises(ValueError):
        SimConfig(link=link, plan=lp, generations=0)
    with pytest.raises(ValueError, match="error_mode"):
        SimConfig(link=link, plan=lp, generations=1, error_mode="nonsense")
    with pytest.raises(ValueError):
        SimConfig(link=link, plan=lp, generations=1, payload_len=0)
    # rejected here, naming the field, not inside sim.run
    for kwargs, message in (
        ({"generations": 2.5}, "generations must be an integer >= 1, got 2.5"),
        ({"generations": True}, "generations must be an integer >= 1, got True"),
        ({"payload_len": 2.5}, "payload_len must be an integer >= 1, got 2.5"),
        ({"rng_seed": 1.0}, "rng_seed must be an integer >= 0, got 1.0"),
        ({"rng_seed": -1}, "rng_seed must be an integer >= 0, got -1"),
        ({"rng_seed": 2**64}, "rng_seed must be < 2**64, got 18446744073709551616"),
        ({"distance_index": -1}, "distance_index must be an integer >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(link=link, plan=lp, **{"generations": 1, **kwargs})
    numpy_ints = SimConfig(
        link=link, plan=lp, generations=np.int64(2), rng_seed=np.uint32(3), payload_len=np.int8(4)
    )
    assert sim.run(numpy_ints).sent_generations == 2
    assert SimConfig(link=link, plan=lp, generations=1, rng_seed=np.uint64(2**64 - 1)).rng_seed


def test_check_run_args_rejects_a_seed_past_64_bits():
    # entropy words past SeedSequence's 4-word pool run into the spawn key:
    # seed 7 + 2**160 would replay seed 7's (0, 1) stream
    sim.check_run_args(1, "bit-level", rng_seed=2**64 - 1)
    message = f"rng_seed must be < 2**64, got {7 + 2**160}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sim.check_run_args(1, "bit-level", rng_seed=7 + 2**160)


# -------------------------------------------------------------------- streams


def stream_heads(monkeypatch, cfg) -> list[bytes]:
    """The bytes each stream of a run starts with: the coefficients as drawn
    (a run encodes with their echelon form, which at R = K is the identity
    whatever the seed), then the natives of the first generation of every
    chunk that gets encoded."""
    heads = []

    def draw_spy(k, r, seed):
        coeffs = codec.make_coefficients(k, r, seed)
        heads.append(coeffs.tobytes())
        return coeffs

    def encode_spy(gen, coeffs):
        if gen.generation_id % sim.CHUNK == 0:
            heads.append(b"".join(p[: cfg.payload_len] for p in gen.symbols))
        return codec.encode(gen, coeffs)

    monkeypatch.setattr(sim, "make_coefficients", draw_spy)
    monkeypatch.setattr(sim, "encode", encode_spy)
    sim.run(cfg)
    return heads


def shared_prefix(a: bytes, b: bytes) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def test_coefficient_stream_is_no_chunk_stream(monkeypatch):
    # R = K: every generation has K symbols, so every chunk's first one is encoded
    cfg = config(generations=3 * sim.CHUNK, seed=7, redundancy=30)
    coeffs, *chunks = stream_heads(monkeypatch, cfg)
    assert len(chunks) == 3
    assert not any(shared_prefix(coeffs, head) for head in chunks)


def test_large_seed_does_not_alias_a_small_one(monkeypatch):
    # 2**32 + 7 is the entropy words (7, 1); with the words padded before the
    # spawn key, no stream of it is a stream of seed 7
    big, small = (
        stream_heads(monkeypatch, config(generations=2 * sim.CHUNK, seed=seed, redundancy=30))
        for seed in (2**32 + 7, 7)
    )
    assert len(big) == len(small) == 3
    assert not any(shared_prefix(a, b) for a in big for b in small)
    reports = [sim.run(config(generations=50, seed=seed)) for seed in (2**32 + 7, 7)]
    assert reports[0] != reports[1]


# ------------------------------------------------------------ undecodable skip


# At BER 0.2 (R = 18) no generation of the run loses nothing; at 0.1 (R = 1) half do.
@pytest.mark.parametrize(
    "payload_len, ber",
    [
        pytest.param(8, 0.2, id="8"),
        pytest.param(1024, 0.2, id="1024"),
        pytest.param(8, 0.1, id="8-ber0.1"),
    ],
)
def test_run_codes_only_generations_with_k_symbols(monkeypatch, payload_len, ber):
    cfg = dataclasses.replace(config(ber=ber, generations=40, seed=23), payload_len=payload_len)
    r = cfg.plan.redundancy
    masks, blocks, decoded = [], [], []
    real_erase, real_encode, real_decode = sim.erase_symbols, sim.encode, sim.decode

    def erase_spy(*args):
        masks.append(real_erase(*args))
        return masks[-1]

    def encode_spy(gen, coeffs):
        coded = real_encode(gen, coeffs)
        blocks.append((gen.generation_id, len(gen.symbols[0]) // payload_len, coded))
        return coded

    def decode_spy(received, coeffs, k, stats=None):
        coded = [e.payload for e in received.entries if e.kind == "coded"]
        decoded.append((received.generation_id, len(received.entries), coded))
        return real_decode(received, coeffs, k, stats)

    monkeypatch.setattr(sim, "erase_symbols", erase_spy)
    monkeypatch.setattr(sim, "encode", encode_spy)
    monkeypatch.setattr(sim, "decode", decode_spy)
    report = sim.run(cfg)

    # coded and decoded: at least K symbols and at least one native lost
    lost = (30 - np.concatenate(masks).sum(axis=1)).tolist()
    coded = [g for g, n in enumerate(lost) if 0 < n <= r]
    intact = [g for g, n in enumerate(lost) if n == 0]
    assert [gid for gid, _, _ in decoded] == coded
    assert all(30 <= count < 30 + r for _, count, _ in decoded)
    assert report.decoded_generations == len(coded) + len(intact)
    assert report.insufficient_failures == 40 - len(coded) - len(intact) > 0
    assert (len(intact) > 0) == (ber < 0.2)
    assert report.received_histogram == dict(Counter(30 + r - n for n in lost))
    # the encode blocks hold exactly the decoded generations, in order: slot b of
    # a block carries the coded payloads that generation's decode received
    at = 0
    for first_id, size, coded in blocks:
        assert first_id == decoded[at][0]
        for b in range(size):
            assert decoded[at][2] == [c[b * payload_len : (b + 1) * payload_len] for c in coded]
            at += 1
    assert at == len(decoded)


# SimReport fields at config(generations=64, seed=5) as run before undecodable
# generations were skipped; the simulate goldens cover 8-byte payloads only.
REPORTS_BEFORE_THE_SKIP = {
    (8, "analytic-erasure"): (
        48, 16, 0.5671875,
        {24: 1, 26: 2, 27: 6, 28: 3, 29: 4, 30: 13, 31: 10, 32: 8, 33: 3, 34: 9, 35: 2, 37: 2,
         40: 1},
    ),
    (8, "bit-level"): (
        36, 28, 0.5989583333333334,
        {23: 1, 24: 3, 25: 4, 26: 3, 27: 7, 28: 1, 29: 9, 30: 6, 31: 7, 32: 8, 33: 4, 34: 4,
         35: 3, 36: 3, 37: 1},
    ),
    (1024, "analytic-erasure"): (
        38, 26, 0.5791666666666667,
        {26: 4, 27: 2, 28: 8, 29: 12, 30: 4, 31: 12, 32: 9, 33: 4, 34: 4, 35: 2, 36: 1, 38: 2},
    ),
    (1024, "bit-level"): (
        31, 33, 0.6041666666666666,
        {22: 1, 23: 1, 24: 1, 25: 5, 26: 9, 27: 7, 28: 3, 29: 6, 30: 2, 31: 4, 32: 5, 33: 6,
         34: 6, 35: 2, 36: 2, 37: 3, 38: 1},
    ),
}


@pytest.mark.parametrize("payload_len, mode", list(REPORTS_BEFORE_THE_SKIP))
def test_run_reports_are_unchanged_by_the_skip(payload_len, mode):
    decoded, insufficient, erasure_rate, histogram = REPORTS_BEFORE_THE_SKIP[payload_len, mode]
    cfg = dataclasses.replace(config(generations=64, seed=5, mode=mode), payload_len=payload_len)
    assert sim.run(cfg) == sim.SimReport(
        sent_generations=64,
        decoded_generations=decoded,
        insufficient_failures=insufficient,
        decode_failure_rate=insufficient / 64,
        symbol_erasure_rate=erasure_rate,
        received_histogram=histogram,
    )
