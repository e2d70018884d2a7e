"""Acceptance gate: one test per contract-level criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``) including its runtime, and asserts at the tolerance stated in its
docstring. Tolerances are pinned here, not tuned elsewhere.
"""

import dataclasses
import functools
import math
import time

import numpy as np
from scipy.stats import binom

from twolane import cli, codec, fec, planner, sim
from twolane.fec import FecParams
from twolane.planner import LinkParams
from twolane.scenario import read_sweep_csv

from conftest import gf_mul_ref, not_full_rank_rate, reference_chain, scenario_text


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] FAIL {name} ({time.perf_counter() - start:.2f}s)")
                raise
            print(f"[acceptance] PASS {name} ({time.perf_counter() - start:.2f}s)")

        return inner

    return wrap


def headline_params(ber):
    return FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=ber)


def headline_link(ber=0.2):
    return LinkParams(
        fec=headline_params(ber), main_rate=8e11, main_distance=6.5, aux_distance=1.5
    )


@criterion("headline constants")
def test_headline_constants():
    """hamming_distance = 60 and correctable_bits = 29, exactly."""
    d = fec.derive(headline_params(0.2)).hamming_distance
    assert d == 60
    assert fec.correctable_bits(d) == 29


@criterion("clamp threshold")
def test_clamp_threshold():
    """Residual BER clamps to 0 up to the budget threshold, positive past it."""
    boundary = 0.8 * 29 / 240  # = 0.0966666..., the derived clamp point
    assert fec.derive(headline_params(boundary - 1e-9)).residual_ber == 0.0
    assert fec.derive(headline_params(boundary)).residual_ber == 0.0
    assert fec.derive(headline_params(boundary + 1e-9)).residual_ber > 0.0
    # the rounded rendering of the boundary sits just above the exact one
    assert fec.derive(headline_params(0.0966667 + 1e-9)).residual_ber > 0.0


@criterion("equation-chain oracle (10^4 draws, 1e-12 relative)")
def test_equation_chain_oracle():
    """``derive`` and the planning kernel match the chain written out in conftest."""
    rng = np.random.default_rng(2024)
    cases = [(30, 8, 1.0, 0.0), (30, 8, 1.0, 1.0), (30, 8, 0.8, 0.2), (1, 1, 0.5, 0.5)]
    while len(cases) < 10_000:
        cases.append(
            (
                int(rng.integers(1, 101)),
                int(rng.integers(1, 17)),
                float(rng.uniform(0.001, 1.0)),
                float(rng.uniform(0.0, 1.0)),
            )
        )
    for k, s, rate, ber in cases:
        derived = fec.derive(FecParams(k=k, s=s, code_rate=rate, bit_error_rate=ber))
        _, _, point = planner.grid_kernel(k, s, rate, 8e11)
        _, _, r, rt, th, *_ = point(ber, 0.0, 0.0)
        d_o, t_o, pb_o, ps_o, r_o, rt_o, th_o = reference_chain(k, s, rate, ber)
        assert derived.hamming_distance == d_o
        assert derived.correctable_bits == t_o
        assert r == r_o
        assert math.isclose(derived.residual_ber, pb_o, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(derived.residual_ser, ps_o, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(rt, rt_o, rel_tol=1e-12)
        assert math.isclose(th, th_o, rel_tol=1e-12, abs_tol=1e-15)


@criterion("delay matching (10^4 feasible links, 1e-12 relative)")
def test_delay_matching():
    """Substituting the matched auxiliary rate equalises both lane delays."""
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 10_000:
        params = FecParams(
            k=int(rng.integers(1, 101)),
            s=int(rng.integers(1, 17)),
            code_rate=float(rng.uniform(0.05, 1.0)),
            bit_error_rate=float(rng.uniform(0.2, 1.0)),
        )
        probe = LinkParams(
            fec=params,
            main_rate=float(10 ** rng.uniform(6, 13)),
            main_distance=float(rng.uniform(0.0, 50.0)),
            aux_distance=0.0,
        )
        link = dataclasses.replace(
            probe,
            aux_distance=float(rng.uniform(0.0, 0.999 * planner.aux_distance_bound(probe))),
        )
        lp = planner.plan(link)
        if lp.redundancy == 0:
            continue
        accepted += 1
        assert abs(lp.t_main - lp.t_aux) <= 1e-12 * lp.t_main


@criterion("equal-distance reduction (10^3 draws, 1e-12 relative)")
def test_equal_distance_reduction():
    """With equal lane distances the matched rate is main_rate * R / K."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(1, 101))
        s, code_rate = int(rng.integers(1, 17)), float(rng.uniform(0.05, 1.0))
        main_rate = float(10 ** rng.uniform(6, 13))
        d = float(rng.uniform(0.0, 1000.0))
        ber = int(rng.integers(1, k + 1)) / k  # plans some R in [0, K]
        fec_params = FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=ber)
        lp = planner.plan(LinkParams(fec_params, main_rate, main_distance=d, aux_distance=d))
        assert math.isclose(lp.aux_rate, main_rate * lp.redundancy / k, rel_tol=1e-12)


@criterion("codec round-trip (10^4 generations, >= 99.9% success)")
def test_codec_round_trip():
    """K=30, R=18, 64-byte payloads, up to 18 erased natives per generation,
    fresh coefficient seed per trial."""
    k, r, payload_len = 30, 18, 64
    rng = np.random.default_rng(208)
    singular = 0
    for trial in range(10_000):
        coeffs = codec.make_coefficients(k, r, seed=trial)
        natives = rng.integers(0, 256, (k, payload_len), dtype=np.uint8)
        gen = codec.Generation(
            tuple(row.tobytes() for row in natives), generation_id=trial
        )
        coded = codec.encode(gen, coeffs)
        e = int(rng.integers(0, r + 1))
        erased = set(rng.choice(k, size=e, replace=False).tolist())
        entries = [
            codec.ReceivedSymbol("native", i, gen.symbols[i])
            for i in range(k)
            if i not in erased
        ]
        entries += [codec.ReceivedSymbol("coded", j, p) for j, p in enumerate(coded)]
        try:
            out = codec.decode(codec.ReceivedGeneration(tuple(entries)), coeffs, k)
        except codec.SingularSystemError:
            singular += 1  # the only admissible failure
            continue
        assert out.symbols == gen.symbols
    assert singular <= 10  # >= 99.9% success over 10^4 generations


@criterion("systematic no-op (10^3 trials, zero elimination steps)")
def test_systematic_noop():
    """Zero erasures decode without any elimination work."""
    k, r = 30, 18
    coeffs = codec.make_coefficients(k, r, seed=301)
    rng = np.random.default_rng(302)
    for trial in range(1000):
        natives = rng.integers(0, 256, (k, 8), dtype=np.uint8)
        gen = codec.Generation(tuple(row.tobytes() for row in natives))
        coded = codec.encode(gen, coeffs)
        entries = [codec.ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k)]
        if trial % 2:  # with or without the auxiliary symbols alongside
            entries += [codec.ReceivedSymbol("coded", j, p) for j, p in enumerate(coded)]
        stats = codec.DecodeStats()
        out = codec.decode(codec.ReceivedGeneration(tuple(entries)), coeffs, k, stats=stats)
        assert out.symbols == gen.symbols
        assert stats.elimination_steps == 0


@criterion("GF(2^8) correctness (all 65,536 pairs vs brute force)")
def test_gf_correctness():
    """Table multiply equals carry-less-reduce oracle; all inverses check out."""
    from twolane import gf256

    for a in range(256):
        row = gf256.MUL[a]
        for b in range(256):
            assert row[b] == gf_mul_ref(a, b)
    for a in range(1, 256):
        assert gf_mul_ref(a, gf256.INV_LIST[a]) == 1


@criterion("Monte Carlo vs analytics, analytic-erasure mode (3 sigma)")
def test_monte_carlo_analytic_mode():
    """Erasure rate within 3 sigma of 0.2; failure rate within 3 sigma of
    the exact binomial tail Pr[Bin(30, 0.2) > 3] plus the rate of systems
    that are not full rank."""
    generations = 10_000
    link = headline_link()
    lp = planner.plan(link)
    # sim.run reads only R and the FEC statistics: the lane timing stays as planned
    forced_fec = dataclasses.replace(lp.fec, residual_ser=0.2)
    forced = dataclasses.replace(lp, fec=forced_fec, redundancy=3)
    report = sim.run(
        sim.SimConfig(link=link, plan=forced, generations=generations, rng_seed=401)
    )
    sigma_erasure = math.sqrt(0.2 * 0.8 / (30 * generations))
    assert abs(report.symbol_erasure_rate - 0.2) <= 3 * sigma_erasure
    expected = float(binom.sf(3, 30, 0.2)) + not_full_rank_rate(30, 0.2, 3)
    sigma_fail = math.sqrt(expected * (1 - expected) / generations)
    assert abs(report.decode_failure_rate - expected) <= 3 * sigma_fail
    assert report.payload_mismatches == 0


@criterion("Monte Carlo vs analytics, bit-level mode (10^5 generations, +/-10%)")
def test_monte_carlo_bit_level_mode():
    """Mean erased symbols per generation within 10% of K * residual SER.

    The residual-BER chain is an expectation-level model, not an exact
    per-block distribution, hence the deliberately loose tolerance."""
    derived = fec.derive(headline_params(0.2))
    target = 30 * derived.residual_ser  # = 17.4637
    rng = np.random.default_rng(419)
    erased = 0
    trials, batch = 100_000, 1000
    for _ in range(trials // batch):
        erased += batch * 30 - int(sim.corrupt_bits(batch, 30, 8, 0.2, 23, rng).sum())
    mean = erased / trials
    assert abs(mean - target) <= 0.10 * target


@criterion("CLI sweep trends over the synthetic fixture")
def test_cli_sweep_trends(tmp_path):
    """R nondecreasing in distance and modulation level, R_T nonincreasing,
    theta = 1 - R_T rowwise. Absolute published operating points are not
    reproduced: they depend on externally measured BER data this repository
    does not bundle (see README)."""
    configs = [("B", "8PSK", 3), ("B", "16PSK", 4), ("C", "8PSK", 3), ("C", "16PSK", 4)]
    rows = {}
    for channel, modulation, bits in configs:
        scn = tmp_path / f"{channel}_{modulation}.scn"
        scn.write_text(
            scenario_text(
                channel=channel,
                modulation=modulation,
                main_rate=2e11 * bits,
                extra="ber_table = builtin",
            ),
            encoding="utf-8",
        )
        out = tmp_path / f"{channel}_{modulation}.csv"
        assert cli.main(["sweep", "--scenario", str(scn), "--out", str(out)]) == 0
        rows[(channel, modulation)] = read_sweep_csv(out)

    for config_rows in rows.values():
        assert len(config_rows) == 37
        redundancies = [r.redundancy for r in config_rows]
        rates = [r.total_rate for r in config_rows]
        assert all(b >= a for a, b in zip(redundancies, redundancies[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))
        for r in config_rows:
            assert r.overhead == 1.0 - r.total_rate

    for channel in ("B", "C"):
        # higher modulation level never needs less redundancy at equal distance
        for low, high in zip(rows[(channel, "8PSK")], rows[(channel, "16PSK")]):
            assert low.d_main_cm == high.d_main_cm
            assert high.redundancy >= low.redundancy
