"""Property tests for the codec against brute-force GF(2^8) references.

The references use ``gf_mul_ref`` only (no library tables): the encode
oracle sums products byte by byte, and the elimination oracle runs its own
Gauss-Jordan with the decoder's pivoting to give the rank (a decode must
fail as singular below full rank) and the field row operations counted.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolane import codec
from twolane.codec import (
    DecodeStats,
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
)

from conftest import gf_inv_ref, gf_mul_ref

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

def elimination_ref(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and row-operation count of scalar Gauss-Jordan with positional pivoting.

    A pivot that is not 1 costs one scale of its row; every other row with
    a nonzero entry in the pivot column costs one update.
    """
    rows = [list(r) for r in rows]
    rank = steps = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        if rows[rank][col] != 1:
            inv = gf_inv_ref(rows[rank][col])
            rows[rank] = [gf_mul_ref(inv, v) for v in rows[rank]]
            steps += 1
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v ^ gf_mul_ref(f, p) for v, p in zip(rows[i], rows[rank])]
                steps += 1
        rank += 1
    return rank, steps


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
        rank, _ = elimination_ref([[int(coeffs[i, j]) for i in missing] for j in range(r)])
        assert rank < len(missing)
    else:
        assert len(erased) <= r
        assert out.symbols == gen.symbols



@PROPERTY
@given(generations(max_k=10, max_r=10, max_len=3), st.data())
def test_decode_elimination_steps_match_scalar_reference(case, data):
    gen, coeffs = case
    k, r = coeffs.shape
    if data.draw(st.integers(0, 4)) == 0:
        # about one case in five: sparse coefficients make singular systems common
        coeffs = np.where(coeffs > 3, 0, coeffs).astype(np.uint8)
    e = data.draw(st.integers(0, min(k, r)))
    erased = data.draw(st.sets(st.integers(0, k - 1), min_size=e, max_size=e))
    entries = [ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k) if i not in erased]
    entries += [ReceivedSymbol("coded", j, p) for j, p in enumerate(codec.encode(gen, coeffs))]
    entries = data.draw(st.permutations(entries))
    missing = sorted(erased)
    # one equation per coded symbol, in received order, over the missing natives
    rank, steps = elimination_ref(
        [[int(coeffs[i, sym.index]) for i in missing] for sym in entries if sym.kind == "coded"]
    )
    stats = DecodeStats()
    try:
        out = codec.decode(ReceivedGeneration(entries=tuple(entries)), coeffs, k, stats)
    except SingularSystemError:
        assert rank < len(missing)
    else:
        assert rank == len(missing)
        assert out.symbols == gen.symbols
    assert stats.elimination_steps == steps
