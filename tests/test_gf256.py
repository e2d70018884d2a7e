import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolane import gf256

from conftest import REF_MUL, gf_inv_ref, gf_mul_ref, matmul_ref


def test_mul_identity_and_annihilator_all_values():
    identity = np.arange(256, dtype=np.uint8)
    assert np.array_equal(gf256.MUL[:, 0x01], identity)
    assert np.array_equal(gf256.MUL[0x01], identity)
    assert not gf256.MUL[:, 0x00].any() and not gf256.MUL[0x00].any()


def test_mul_matches_bruteforce_on_key_and_random_pairs():
    assert gf256.MUL[0x53, 0xCA] == 0x01 == gf_mul_ref(0x53, 0xCA)
    rng = np.random.default_rng(1)
    for _ in range(5000):
        a, b = (int(x) for x in rng.integers(0, 256, 2))
        assert gf256.MUL[a, b] == gf_mul_ref(a, b)
    # every pair: the table the codec reads against the carry-less-reduce oracle's table
    assert gf256.MUL.dtype == np.uint8 and np.array_equal(gf256.MUL, REF_MUL)
    assert np.array_equal(gf256.MUL_FLAT, REF_MUL.reshape(-1))


def test_inv_examples():
    assert gf256.INV_LIST[0x01] == 0x01
    assert gf256.INV_LIST[0x53] == 0xCA == gf_inv_ref(0x53)
    assert gf256.INV_LIST[0] == 0  # a placeholder: zero has no inverse
    assert len(gf256.INV_LIST) == 256 and {type(x) for x in gf256.INV_LIST} == {int}


def test_every_nonzero_element_has_exactly_one_inverse():
    # full 255 x 255 product table scan
    ones_per_row = (gf256.MUL[1:, 1:] == 1).sum(axis=1)
    assert np.all(ones_per_row == 1)
    for a in range(1, 256):
        assert gf256.MUL[a, gf256.INV_LIST[a]] == 1
    assert gf256.INV_LIST[1:] == [gf_inv_ref(a) for a in range(1, 256)]


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


@st.composite
def matrix_pairs(draw):
    n, k, length = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 300))
    cells = draw(st.lists(st.integers(0, 255), min_size=n * k, max_size=n * k))
    payload = draw(st.binary(min_size=k * length, max_size=k * length))
    a = np.array(cells, dtype=np.uint8).reshape(n, k)
    return a, np.frombuffer(payload, dtype=np.uint8).reshape(k, length)


def pair(n, k, length, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 256, (n, k), dtype=np.uint8),
        rng.integers(0, 256, (k, length), dtype=np.uint8),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrix_pairs())
@example(pair(3, 0, 5))  # inner dimension 0
@example(pair(0, 4, 7))  # no rows: the R = 0 encode
@example(pair(0, 48, 8))  # no rows on each path they reach: a decode that lost no native
@example(pair(0, 48, 64))
@example(pair(0, 48, 1024))
@example(pair(2, 3, 0))  # no columns: a decode with no surviving natives
@example(pair(4, 5, 1))
@example(pair(2, 5, 300))  # wider than one 256-byte table row
def test_matmul_matches_bruteforce_oracle(ab):
    a, b = ab
    out = gf256.matmul(a, b)
    (n, k), length = a.shape, b.shape[1]
    assert out.dtype == np.uint8 and out.shape == (n, length)
    assert out.flags.writeable
    assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
    for i in range(n):
        for col in range(length):
            expected = 0
            for p in range(k):
                expected ^= gf_mul_ref(int(a[i, p]), int(b[p, col]))
            assert out[i, col] == expected


def sparse_pair(n, k, length, seed=0):
    """``pair`` with about a third of the columns zero and a third unit, some on one row."""
    a, b = pair(n, k, length, seed)
    rng = np.random.default_rng(seed + 1)
    kind = rng.integers(0, 3, k)  # 0: zero column, 1: unit column, 2: as drawn
    a[:, kind < 2] = 0
    units = np.flatnonzero(kind == 1)
    if n:
        a[rng.integers(0, n, len(units)), units] = 1
    return a, b


@pytest.mark.parametrize("length", [1, 8, 32, 33, 64, 255, 256, 257, 513, 1024, 1031])
@pytest.mark.parametrize("n", [0, 7, 8, 9, 16, 17, 32, 33])
def test_matmul_both_paths_match_the_tabulated_oracle(n, length):
    # L = 1 and 8 take the flat-table gather; L = 32 to 255, or n = 0 and 7, the
    # row gather; the rest the full table, padded to 16, 32 and 40 bytes, with a
    # ragged last 256-byte span at 257, 513 and 1031; at k = 130 its columns go
    # in two or three blocks
    for k in (1, 30, 130):
        a, b = pair(n, k, length, seed=n * length + k)
        assert np.array_equal(gf256.matmul(a, b), matmul_ref(a, b))
        # from L = 256 a zero column is skipped and a unit column is one XOR
        a, b = sparse_pair(n, k, length, seed=n * length + k)
        assert np.array_equal(gf256.matmul(a, b), matmul_ref(a, b))
    # decode passes a strided slice of its elimination matrix
    wide, b = pair(n, 60, length, seed=1)
    assert np.array_equal(gf256.matmul(wide[:, 1::2], b[1::2]), matmul_ref(wide[:, 1::2], b[1::2]))
