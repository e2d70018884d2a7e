import math
import re

import numpy as np
import pytest

from twolane import fec
from twolane.fec import FecParams, binomial_tail_above

from conftest import reference_chain


def params(k=30, s=8, code_rate=0.8, ber=0.2):
    return FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=ber)


def correcting(t, bits=240):
    """A code rate whose minimum distance over ``bits`` data bits is 2t+1: it corrects t."""
    return bits / (bits + 2 * t + 1)


# ------------------------------------------------------------------- distance


def test_hamming_distance_headline_configuration():
    assert fec.derive(params()).hamming_distance == 60


def test_hamming_distance_rate_one_is_zero():
    for k, s in [(1, 1), (30, 8), (100, 16)]:
        assert fec.derive(params(k=k, s=s, code_rate=1.0)).hamming_distance == 0


def test_hamming_distance_half_rate():
    assert fec.derive(params(k=10, s=8, code_rate=0.5)).hamming_distance == 80


def test_hamming_distance_floors_non_integer():
    # 10*8/0.7 - 80 = 34.2857...
    assert fec.derive(params(k=10, s=8, code_rate=0.7)).hamming_distance == 34


def test_hamming_distance_snaps_float_noise():
    # k*s/code_rate may land a hair under the exact integer
    for code_rate in (0.8, 0.4, 0.1, 0.6):
        p = params(k=30, s=8, code_rate=code_rate)
        exact = 240 / code_rate - 240
        assert abs(fec.derive(p).hamming_distance - exact) < 1e-6


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
    for value in (60.5, True):
        with pytest.raises(ValueError, match=f"^delta_min must be an integer >= 0, got {value!r}$"):
            fec.correctable_bits(value)


def test_check_seed_and_check_probability_messages():
    fec.check_seed("seed", np.uint64(2**64 - 1))  # compared exactly, not through a float
    with pytest.raises(ValueError, match=r"^seed must be < 2\*\*64, got 18446744073709551616$"):
        fec.check_seed("seed", 2**64)
    with pytest.raises(ValueError, match=r"^bit_error_rate must be in \[0, 1\], got nan$"):
        params(ber=math.nan)


# --------------------------------------------------------------- residual BER


# the headline code (K=30, s=8, R_F=0.8) corrects t = 29 bits


def test_residual_ber_fully_corrected_is_clamped_to_zero():
    assert fec.derive(params(ber=0.05)).residual_ber == 0.0


def test_residual_ber_partially_corrected():
    # (240*0.2 - 0.8*29) / 240 = 24.8/240
    value = fec.derive(params(ber=0.2)).residual_ber
    assert value == pytest.approx(24.8 / 240, rel=1e-12)


def test_residual_ber_error_free_channel():
    assert fec.derive(params(ber=0.0)).residual_ber == 0.0


def test_residual_ber_never_exceeds_channel_ber():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ber = float(rng.uniform(0, 1))
        t = int(rng.integers(0, 200))
        derived = fec.derive(params(code_rate=correcting(t), ber=ber))
        assert derived.correctable_bits == t
        assert derived.residual_ber <= ber + 1e-15


# --------------------------------------------------------------- residual SER


# at code rate 1 nothing is corrected, so the residual BER is the channel BER


def test_residual_ser_endpoints():
    assert fec.derive(params(code_rate=1.0, ber=0.0)).residual_ser == 0.0
    assert fec.derive(params(code_rate=1.0, ber=1.0)).residual_ser == 1.0


def test_residual_ser_headline_value():
    derived = fec.derive(params(ber=0.2))  # P_b = 24.8/240
    assert derived.residual_ser == pytest.approx(0.5821232558667687, rel=1e-12)


def test_residual_ser_monotone():
    values = [
        fec.derive(params(code_rate=1.0, ber=float(p))).residual_ser for p in np.linspace(0, 1, 101)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    by_s = [fec.derive(params(s=s, code_rate=1.0, ber=0.1)).residual_ser for s in range(1, 17)]
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
    values = [fec.derive(params(ber=float(p))).residual_ber for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    by_t = [fec.derive(params(code_rate=correcting(t), ber=0.3)).residual_ber for t in range(100)]
    assert all(b <= a for a, b in zip(by_t, by_t[1:]))


def test_derive_matches_single_expression_oracle():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        k = int(rng.integers(1, 101))
        s = int(rng.integers(1, 17))
        rate = float(rng.uniform(0.01, 1.0))
        ber = float(rng.uniform(0, 1))
        got = fec.derive(FecParams(k=k, s=s, code_rate=rate, bit_error_rate=ber))
        d, t, pb, ps, *_ = reference_chain(k, s, rate, ber)
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


# -------------------------------------------------------- decode-failure tail


def test_binomial_tail_matches_scipy():
    from scipy.stats import binom

    for k, p, r in [(30, 0.2, 3), (30, 0.5822, 18), (10, 0.0, 0), (10, 1.0, 5), (30, 0.3, 30)]:
        assert binomial_tail_above(k, p, r) == pytest.approx(
            float(binom.sf(r, k, p)), abs=1e-12
        )


def test_binomial_tail_beyond_float_coefficients():
    # C(k, i) passes the float range from k of about 1030 on
    from scipy.stats import binom

    for k, p, r in [
        (1100, 0.5, 10),
        (1100, 0.5, 560),
        (1100, 0.05, 60),
        (1100, 0.0, 10),
        (1100, 1.0, 10),
        (5000, 0.5, 2500),
        (5000, 0.1, 520),
        (5000, 0.3, 1560),
    ]:
        assert binomial_tail_above(k, p, r) == pytest.approx(float(binom.sf(r, k, p)), rel=1e-12)


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


@pytest.mark.parametrize(
    "call, name, least",
    [
        (lambda v: binomial_tail_above(v, 0.2, 3), "k", 1),
        (lambda v: binomial_tail_above(30, 0.2, v), "r", 0),
    ],
    ids=["binomial_tail_above-k", "binomial_tail_above-r"],
)
def test_tail_and_lane_times_reject_a_count_that_is_not_an_integer(call, name, least):
    for value in (2.5, True, least - 1):
        message = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
