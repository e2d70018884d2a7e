"""Property tests for the codec against brute-force GF(2^8) references.

The references use ``gf_mul_ref`` only (no library tables): the encode
oracle sums products byte by byte, and the rank oracle runs its own
Gaussian elimination to say when a decode must fail as singular.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolane import codec
from twolane.codec import (
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
)

from conftest import gf_mul_ref

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

INV_REF = [0] + [next(x for x in range(1, 256) if gf_mul_ref(a, x) == 1) for a in range(1, 256)]


def rank_ref(rows: list[list[int]]) -> int:
    """Rank over GF(2^8) of a list of equal-length rows."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = INV_REF[rows[rank][col]]
        rows[rank] = [gf_mul_ref(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v ^ gf_mul_ref(f, p) for v, p in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def generations(draw, max_k, max_r, max_len, alphabet=st.integers(0, 255)):
    k = draw(st.integers(1, max_k))
    r = draw(st.integers(0, max_r))
    length = draw(st.integers(1, max_len))
    natives = tuple(draw(st.binary(min_size=length, max_size=length)) for _ in range(k))
    cells = draw(st.lists(alphabet, min_size=k * r, max_size=k * r))
    coeffs = np.array(cells, dtype=np.uint8).reshape(k, r)
    return Generation(symbols=natives), coeffs


@PROPERTY
@given(generations(max_k=6, max_r=5, max_len=4))
def test_encode_matches_bruteforce_oracle(case):
    gen, coeffs = case
    coded = codec.encode(gen, coeffs)
    k, r = coeffs.shape
    assert len(coded) == r
    for j in range(r):
        expected = bytearray(len(gen.symbols[0]))
        for i in range(k):
            for pos, byte in enumerate(gen.symbols[i]):
                expected[pos] ^= gf_mul_ref(int(coeffs[i, j]), byte)
        assert coded[j] == bytes(expected)


@PROPERTY
@given(
    st.one_of(
        generations(max_k=40, max_r=20, max_len=16),
        # mostly-zero coefficients make rank-deficient systems likely
        generations(max_k=40, max_r=20, max_len=16, alphabet=st.sampled_from((0, 0, 0, 1, 2))),
    ),
    st.data(),
)
def test_decode_recovers_or_fails_for_the_right_reason(case, data):
    gen, coeffs = case
    k, r = coeffs.shape
    # up to one erasure past what R coded symbols can repair
    e = data.draw(st.integers(0, min(k, r + 1)))
    erased = data.draw(st.sets(st.integers(0, k - 1), min_size=e, max_size=e))
    entries = [ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k) if i not in erased]
    entries += [ReceivedSymbol("coded", j, p) for j, p in enumerate(codec.encode(gen, coeffs))]
    received = ReceivedGeneration(entries=tuple(data.draw(st.permutations(entries))))
    missing = sorted(erased)
    try:
        out = codec.decode(received, coeffs, k)
    except InsufficientSymbolsError:
        assert len(erased) > r
    except SingularSystemError:
        assert len(erased) <= r
        assert rank_ref([[int(coeffs[i, j]) for i in missing] for j in range(r)]) < len(missing)
    else:
        assert len(erased) <= r
        assert out.symbols == gen.symbols
