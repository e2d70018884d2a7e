"""Property tests for the codec against brute-force GF(2^8) references.

The references use ``gf_mul_ref`` only (no library tables): the encode
oracle sums products byte by byte, and the elimination oracle runs its own
Gauss-Jordan with the decoder's pivoting to give the rank (a decode must
fail as singular below full rank) and the field row operations counted.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolane import codec, gf256
from twolane.codec import (
    DecodeError,
    DecodeStats,
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
)

from conftest import gf_inv_ref, gf_mul_ref, matmul_ref

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



@st.composite
def long_generations(draw, length):
    """A generation of ``length``-byte payloads with plain, echelon or sparse
    coefficients: in a sparse array each native's row is zero, a unit row (often one
    that another native shares) or mostly 0 and 1. The bytes come from a drawn seed,
    so that most plain systems have full rank."""
    if draw(st.booleans()):  # from 8 lost natives, decode's product takes the full table
        k, r = draw(st.integers(9, 14)), draw(st.integers(8, 12))
    else:
        k, r = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("plain", "echelon", "sparse")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.integers(0, 256, (k, r), dtype=np.uint8)
    if kind == "echelon":
        coeffs = codec.row_reduce(coeffs)
    elif kind == "sparse" and r:
        coeffs = rng.choice(np.array([0, 0, 1, 1, 2], dtype=np.uint8), (k, r))
        shapes = rng.integers(0, 3, k)  # 0: zero row, 1: unit row, 2: as drawn
        coeffs[shapes < 2] = 0
        units = np.flatnonzero(shapes == 1)
        coeffs[units, rng.integers(0, min(r, 3), len(units))] = 1
    natives = rng.integers(0, 256, (k, length), dtype=np.uint8)
    return Generation(symbols=tuple(map(bytes, natives))), coeffs


@pytest.mark.parametrize("length", [gf256.LONG - 1, gf256.LONG, 1031])
@PROPERTY
@given(data=st.data())
def test_long_payloads_encode_and_decode_like_the_references(length, data):
    # long payloads skip zero coefficient columns and XOR in unit ones; that may change
    # neither the coded bytes, the outcome, the natives nor the elimination steps; 255
    # bytes is just below gf256.LONG and 1031 is odd and past 1 KiB
    gen, coeffs = data.draw(long_generations(length))
    k, r = coeffs.shape
    natives = np.frombuffer(b"".join(gen.symbols), dtype=np.uint8).reshape(k, -1)
    coded = codec.encode(gen, coeffs)
    assert coded == tuple(map(bytes, matmul_ref(coeffs.T, natives)))

    # erasures drawn from a permutation, not as small indices first: an echelon form's
    # pivot natives lead, and only a lost free native leaves decode a product to make
    e = data.draw(st.integers(0, min(k, r + 1)))
    erased = set(data.draw(st.permutations(range(k)))[:e])
    dropped = data.draw(st.sets(st.integers(0, r - 1), max_size=2)) if r else set()
    sent = [j for j in range(r) if j not in dropped]
    entries = [ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k) if i not in erased]
    entries += [ReceivedSymbol("coded", j, coded[j]) for j in sent]
    assert_decodes_like_the_reference(gen, coeffs, data.draw(st.permutations(entries)))


def assert_decodes_like_the_reference(gen, coeffs, entries):
    """decode's outcome, natives and elimination steps against ``elimination_ref``."""
    k = len(gen.symbols)
    missing = sorted(set(range(k)) - {sym.index for sym in entries if sym.kind == "native"})
    rank, steps = elimination_ref(
        [[int(coeffs[i, sym.index]) for i in missing] for sym in entries if sym.kind == "coded"]
    )
    stats = DecodeStats()
    try:
        out = codec.decode(ReceivedGeneration(entries=tuple(entries)), coeffs, k, stats)
    except InsufficientSymbolsError:
        assert len(entries) < k and stats.elimination_steps == 0
    except SingularSystemError:
        assert len(entries) >= k and rank < len(missing)
        assert stats.elimination_steps == steps
    else:
        assert len(entries) >= k and rank == len(missing)
        assert out.symbols == gen.symbols
        assert stats.elimination_steps == steps


@pytest.mark.parametrize("length", [gf256.LONG, 1031])
@PROPERTY
@given(data=st.data())
def test_long_payloads_with_shared_unit_rows_encode_and_decode_like_the_references(
    length, data
):
    # natives with one unit row e_q, two or more per q: as columns of C.T they are unit
    # columns that share row q of encode's product; one fancy-indexed XOR applies only
    # one of two equal indices, so these must be multiplied, while a unit row alone on
    # its q is still XORed
    k, r = data.draw(st.integers(3, 14)), data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.integers(0, 256, (k, r), dtype=np.uint8)
    order = data.draw(st.permutations(range(k)))
    tied = data.draw(st.integers(2, k - 1))  # natives order[:tied] have unit rows
    targets = data.draw(st.lists(st.integers(0, r - 1), min_size=tied, max_size=tied))
    targets[1] = targets[0]  # at least one shared row
    coeffs[order[:tied]] = 0
    coeffs[order[:tied], targets] = 1
    natives = rng.integers(0, 256, (k, length), dtype=np.uint8)
    gen = Generation(symbols=tuple(map(bytes, natives)))
    coded = codec.encode(gen, coeffs)
    assert coded == tuple(map(bytes, matmul_ref(coeffs.T, natives)))

    # lose only natives without a unit row, so that the tied ones stay present
    lost = set(order[tied:][: data.draw(st.integers(1, min(k - tied, r)))])
    entries = [ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k) if i not in lost]
    entries += [ReceivedSymbol("coded", j, p) for j, p in enumerate(coded)]
    assert_decodes_like_the_reference(gen, coeffs, data.draw(st.permutations(entries)))


@PROPERTY
@given(generations(max_k=10, max_r=10, max_len=3), st.data())
def test_decode_elimination_steps_match_scalar_reference(case, data):
    gen, coeffs = case
    k, r = coeffs.shape
    if data.draw(st.integers(0, 4)) == 0:
        # about one case in five: sparse coefficients make singular systems common
        coeffs = np.where(coeffs > 3, 0, coeffs).astype(np.uint8)
    if data.draw(st.integers(0, 2)) == 0:
        # about one case in three: echelon coefficients, whose pivot columns decode replays
        coeffs = codec.row_reduce(coeffs)
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


def outcome(coeffs, gen, erased) -> tuple:
    """What decoding gives when ``erased`` natives are lost: bytes or the error."""
    k = len(gen.symbols)
    entries = [ReceivedSymbol("native", i, gen.symbols[i]) for i in range(k) if i not in erased]
    entries += [ReceivedSymbol("coded", j, p) for j, p in enumerate(codec.encode(gen, coeffs))]
    try:
        return ("decoded", codec.decode(ReceivedGeneration(entries=tuple(entries)), coeffs, k))
    except DecodeError as exc:
        return (type(exc), str(exc))


@PROPERTY
@given(
    st.one_of(
        generations(max_k=7, max_r=8, max_len=3),
        generations(max_k=7, max_r=8, max_len=3, alphabet=st.sampled_from((0, 0, 0, 1, 2))),
    )
)
def test_row_reduce_gives_an_echelon_form_that_decodes_alike(case):
    gen, coeffs = case
    k, r = coeffs.shape
    reduced = codec.row_reduce(coeffs)
    assert reduced.shape == (k, r) and reduced.dtype == np.uint8
    assert not reduced.flags.writeable
    # reduced.T is in reduced row echelon form: each row's leading entry is 1,
    # strictly right of the row above's, alone in its column; zero rows last
    pivots = [int(np.flatnonzero(row)[0]) for row in reduced.T if row.any()]
    assert not reduced.T[len(pivots) :].any()
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        assert reduced[col].tolist() == [int(j == i) for j in range(r)]
    assert len(pivots) == elimination_ref(coeffs.T.tolist())[0]
    assert np.array_equal(codec.row_reduce(reduced), reduced)
    subsets = (itertools.combinations(range(k), e) for e in range(k + 1))
    for erased in map(set, itertools.chain.from_iterable(subsets)):
        assert outcome(reduced, gen, erased) == outcome(coeffs, gen, erased)
