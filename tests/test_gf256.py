import numpy as np
import pytest

from twolane import gf256

from conftest import gf_mul_ref, gf_inv_ref


def test_mul_identity_and_annihilator_all_values():
    for a in range(256):
        assert gf256.mul(a, 0x01) == a
        assert gf256.mul(0x01, a) == a
        assert gf256.mul(a, 0x00) == 0
        assert gf256.mul(0x00, a) == 0


def test_mul_matches_bruteforce_on_key_and_random_pairs():
    assert gf256.mul(0x53, 0xCA) == 0x01 == gf_mul_ref(0x53, 0xCA)
    rng = np.random.default_rng(1)
    for _ in range(5000):
        a, b = (int(x) for x in rng.integers(0, 256, 2))
        assert gf256.mul(a, b) == gf_mul_ref(a, b)


def test_mul_range_checks():
    with pytest.raises(ValueError):
        gf256.mul(256, 1)
    with pytest.raises(ValueError):
        gf256.mul(1, -1)


def test_inv_examples():
    assert gf256.inv(0x01) == 0x01
    assert gf256.inv(0x53) == 0xCA == gf_inv_ref(0x53)


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError, match="no inverse for zero"):
        gf256.inv(0)


def test_every_nonzero_element_has_exactly_one_inverse():
    # full 255 x 255 product table scan
    ones_per_row = (gf256.MUL[1:, 1:] == 1).sum(axis=1)
    assert np.all(ones_per_row == 1)
    for a in range(1, 256):
        assert gf256.mul(a, gf256.inv(a)) == 1


def test_field_axioms_on_random_triples():
    rng = np.random.default_rng(2)
    n = 100_000
    a = rng.integers(0, 256, n)
    b = rng.integers(0, 256, n)
    c = rng.integers(0, 256, n)
    # distributivity: a*(b+c) == a*b + a*c
    left = gf256.MUL[a, b ^ c]
    right = gf256.MUL[a, b] ^ gf256.MUL[a, c]
    assert np.array_equal(left, right)
    # associativity: (a*b)*c == a*(b*c)
    assert np.array_equal(gf256.MUL[gf256.MUL[a, b], c], gf256.MUL[a, gf256.MUL[b, c]])
    # commutativity
    assert np.array_equal(gf256.MUL[a, b], gf256.MUL[b, a])


def test_exp_log_consistency():
    nz = np.arange(1, 256)
    la = gf256.LOG[nz][:, None]
    lb = gf256.LOG[nz][None, :]
    expected = gf256.EXP[(la + lb) % 255]
    assert np.array_equal(gf256.MUL[nz[:, None], nz[None, :]], expected)


def test_generator_order_is_full():
    # the log table is a bijection on nonzero elements only if the
    # generator has order 255
    assert sorted(gf256.LOG[1:]) == list(range(255))


def test_mul_bytes_vectorised():
    data = np.arange(256, dtype=np.uint8)
    out = gf256.MUL[0x53, data]
    for i in range(256):
        assert out[i] == gf_mul_ref(0x53, i)
