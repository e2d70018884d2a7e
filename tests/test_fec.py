import math

import numpy as np
import pytest

from twolane import fec
from twolane.fec import FecParams


def params(k=30, s=8, code_rate=0.8, ber=0.2):
    return FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=ber)


# ------------------------------------------------------------------- distance


def test_hamming_distance_headline_configuration():
    assert fec.hamming_distance(params()) == 60


def test_hamming_distance_rate_one_is_zero():
    for k, s in [(1, 1), (30, 8), (100, 16)]:
        assert fec.hamming_distance(params(k=k, s=s, code_rate=1.0)) == 0


def test_hamming_distance_half_rate():
    assert fec.hamming_distance(params(k=10, s=8, code_rate=0.5)) == 80


def test_hamming_distance_floors_non_integer():
    # 10*8/0.7 - 80 = 34.2857...
    assert fec.hamming_distance(params(k=10, s=8, code_rate=0.7)) == 34


def test_hamming_distance_snaps_float_noise():
    # k*s/code_rate may land a hair under the exact integer
    for code_rate in (0.8, 0.4, 0.1, 0.6):
        p = params(k=30, s=8, code_rate=code_rate)
        exact = 240 / code_rate - 240
        assert abs(fec.hamming_distance(p) - exact) < 1e-6


# ---------------------------------------------------------- correctable bits


@pytest.mark.parametrize(
    "delta,expected",
    [(60, 29), (1, 0), (7, 3), (0, 0), (2, 0), (3, 1), (4, 1), (5, 2)],
)
def test_correctable_bits(delta, expected):
    assert fec.correctable_bits(delta) == expected


def test_correctable_bits_rejects_negative():
    with pytest.raises(ValueError):
        fec.correctable_bits(-1)


# --------------------------------------------------------------- residual BER


def test_residual_ber_fully_corrected_is_clamped_to_zero():
    assert fec.residual_ber(params(ber=0.05), 29) == 0.0


def test_residual_ber_partially_corrected():
    # (240*0.2 - 0.8*29) / 240 = 24.8/240
    value = fec.residual_ber(params(ber=0.2), 29)
    assert value == pytest.approx(24.8 / 240, rel=1e-12)


def test_residual_ber_error_free_channel():
    assert fec.residual_ber(params(ber=0.0), 29) == 0.0


def test_residual_ber_never_exceeds_channel_ber():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ber = float(rng.uniform(0, 1))
        t = int(rng.integers(0, 200))
        assert fec.residual_ber(params(ber=ber), t) <= ber + 1e-15


# --------------------------------------------------------------- residual SER


def test_residual_ser_endpoints():
    assert fec.residual_ser(0.0, 8) == 0.0
    assert fec.residual_ser(1.0, 8) == 1.0


def test_residual_ser_headline_value():
    pb = 24.8 / 240
    assert fec.residual_ser(pb, 8) == pytest.approx(0.5821232558667687, rel=1e-12)


def test_residual_ser_monotone():
    values = [fec.residual_ser(p, 8) for p in np.linspace(0, 1, 101)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    by_s = [fec.residual_ser(0.1, s) for s in range(1, 17)]
    assert all(b >= a for a, b in zip(by_s, by_s[1:]))


# -------------------------------------------------------------------- chain


def test_clamp_threshold_boundary():
    threshold = 0.8 * 29 / 240  # budget/(k*s)
    below = fec.derive(params(ber=threshold - 1e-9))
    above = fec.derive(params(ber=threshold + 1e-9))
    assert below.residual_ber == 0.0
    assert below.residual_ser == 0.0
    assert above.residual_ber > 0.0
    assert above.residual_ser > 0.0


def test_residual_ber_monotone_in_channel_ber_and_budget():
    grid = np.linspace(0, 1, 51)
    values = [fec.residual_ber(params(ber=float(p)), 29) for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    by_t = [fec.residual_ber(params(ber=0.3), t) for t in range(0, 100)]
    assert all(b <= a for a, b in zip(by_t, by_t[1:]))


def test_derive_matches_single_expression_oracle():
    def oracle(k, s, rate, ber):
        bits = k * s
        raw = bits / rate - bits
        near = round(raw)
        d = int(near) if abs(raw - near) < 1e-9 else math.floor(raw)
        t = max(0, (d - 2) // 2) if d % 2 == 0 else (d - 1) // 2
        pb = max(0.0, (bits * ber - rate * t) / bits)
        return d, t, pb, 1.0 - (1.0 - pb) ** s

    rng = np.random.default_rng(1)
    for _ in range(2000):
        k = int(rng.integers(1, 101))
        s = int(rng.integers(1, 17))
        rate = float(rng.uniform(0.01, 1.0))
        ber = float(rng.uniform(0, 1))
        got = fec.derive(FecParams(k=k, s=s, code_rate=rate, bit_error_rate=ber))
        d, t, pb, ps = oracle(k, s, rate, ber)
        assert got.hamming_distance == d
        assert got.correctable_bits == t
        assert got.residual_ber == pytest.approx(pb, rel=1e-12, abs=1e-15)
        assert got.residual_ser == pytest.approx(ps, rel=1e-12, abs=1e-15)


def test_derived_invariants():
    rng = np.random.default_rng(2)
    for _ in range(500):
        p = FecParams(
            k=int(rng.integers(1, 101)),
            s=int(rng.integers(1, 17)),
            code_rate=float(rng.uniform(0.01, 1.0)),
            bit_error_rate=float(rng.uniform(0, 1)),
        )
        d = fec.derive(p)
        assert d.hamming_distance >= 0
        assert d.correctable_bits >= 0
        assert 0 <= d.residual_ber <= p.bit_error_rate + 1e-15
        assert 0 <= d.residual_ser <= 1
        if d.residual_ber == 0:
            assert d.residual_ser == 0


# ----------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0),
        dict(s=0),
        dict(code_rate=0.0),
        dict(code_rate=1.5),
        dict(ber=-0.1),
        dict(ber=1.1),
        # a fractional K reached plan() as redundancy 1, then failed inside numpy
        dict(k=2.5),
        dict(s=8.5),
        dict(k=True),
    ],
)
def test_fec_params_validation(kwargs):
    with pytest.raises(ValueError):
        params(**kwargs)
