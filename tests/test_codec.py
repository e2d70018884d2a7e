import re

import numpy as np
import pytest

from twolane import codec
from twolane.codec import (
    DecodeStats,
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
)

from conftest import gf_mul_ref


def random_generation(rng, k=30, payload_len=16, generation_id=0):
    return Generation(
        symbols=tuple(
            rng.integers(0, 256, payload_len, dtype=np.uint8).tobytes() for _ in range(k)
        ),
        generation_id=generation_id,
    )


def received_from(gen, coded, erased_native_indices):
    erased = set(erased_native_indices)
    entries = [
        ReceivedSymbol("native", i, gen.symbols[i])
        for i in range(len(gen.symbols))
        if i not in erased
    ]
    entries += [ReceivedSymbol("coded", j, p) for j, p in enumerate(coded)]
    return ReceivedGeneration(entries=tuple(entries), generation_id=gen.generation_id)


# ---------------------------------------------------------------- coefficients


def test_make_coefficients_empty_when_no_redundancy():
    c = codec.make_coefficients(2, 0, seed=1)
    assert c.shape == (2, 0)


def test_make_coefficients_deterministic():
    a = codec.make_coefficients(2, 1, seed=42)
    b = codec.make_coefficients(2, 1, seed=42)
    assert np.array_equal(a, b)
    c = codec.make_coefficients(2, 1, seed=43)
    assert not np.array_equal(a, c)


def test_make_coefficients_shape_and_range():
    c = codec.make_coefficients(30, 11, seed=7)
    assert c.shape == (30, 11)
    assert c.dtype == np.uint8  # uint8 is [0, 255] by construction


def test_coefficients_immutable():
    c = codec.make_coefficients(4, 2, seed=0)
    with pytest.raises(ValueError):
        c[0, 0] = 1


def test_make_coefficients_validation():
    with pytest.raises(ValueError):
        codec.make_coefficients(0, 1, seed=0)
    with pytest.raises(ValueError):
        codec.make_coefficients(1, -1, seed=0)
    for value in (2.5, True):
        with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {value!r}$"):
            codec.make_coefficients(value, 3, seed=0)
        with pytest.raises(ValueError, match=f"^r must be an integer >= 0, got {value!r}$"):
            codec.make_coefficients(3, value, seed=0)


# --------------------------------------------------------------------- encode


def test_encode_two_symbol_example():
    gen = Generation(symbols=(b"\x01", b"\x02"))
    out = codec.encode(gen, np.array([[0x01], [0x01]], dtype=np.uint8))
    expected = gf_mul_ref(0x01, 0x01) ^ gf_mul_ref(0x01, 0x02)
    assert out == (bytes([expected]),)
    assert out == (b"\x03",)


def test_encode_no_redundancy_is_passthrough():
    gen = Generation(symbols=(b"ab", b"cd"))
    assert codec.encode(gen, np.empty((2, 0), dtype=np.uint8)) == ()


def test_encode_systematic_passthrough_30_11():
    rng = np.random.default_rng(3)
    gen = random_generation(rng, k=30, payload_len=16)
    c = codec.make_coefficients(30, 11, seed=9)
    out = codec.encode(gen, c)
    assert len(gen.symbols) + len(out) == 41
    assert all(len(p) == 16 for p in out)


def test_encode_matches_bruteforce_oracle_small():
    rng = np.random.default_rng(4)
    gen = random_generation(rng, k=5, payload_len=3)
    c = codec.make_coefficients(5, 4, seed=11)
    out = codec.encode(gen, c)
    for j in range(4):
        for byte_pos in range(3):
            acc = 0
            for i in range(5):
                acc ^= gf_mul_ref(int(c[i, j]), gen.symbols[i][byte_pos])
            assert out[j][byte_pos] == acc


def test_encode_dimension_mismatch():
    gen = Generation(symbols=(b"\x01", b"\x02"))
    with pytest.raises(ValueError, match="rows"):
        codec.encode(gen, codec.make_coefficients(3, 1, seed=0))


@pytest.mark.parametrize(
    "coeffs",
    [
        np.ones(2, dtype=np.uint8),
        np.ones((2, 1, 1), dtype=np.uint8),
        np.ones((2, 1), dtype=np.int64),
        [[1], [1]],
    ],
    ids=["1-d", "3-d", "int64", "list"],
)
def test_encode_and_decode_reject_malformed_coefficients(coeffs):
    gen = Generation(symbols=(b"\x01", b"\x02"))
    received = ReceivedGeneration(entries=(ReceivedSymbol("native", 0, b"\x01"),))
    with pytest.raises(ValueError, match="2-dimensional uint8"):
        codec.encode(gen, coeffs)
    with pytest.raises(ValueError, match="2-dimensional uint8"):
        codec.decode(received, coeffs, 2)
    with pytest.raises(ValueError, match="2-dimensional uint8"):
        codec.row_reduce(coeffs)


# --------------------------------------------------------------------- decode


def test_decode_all_natives_is_identity_with_zero_elimination():
    rng = np.random.default_rng(5)
    gen = random_generation(rng, k=4, payload_len=8)
    c = codec.make_coefficients(4, 2, seed=1)
    out_gen = codec.encode(gen, c)
    stats = DecodeStats()
    result = codec.decode(received_from(gen, out_gen, []), c, 4, stats=stats)
    assert result.symbols == gen.symbols
    assert stats.elimination_steps == 0


def test_decode_two_symbol_recovery_example():
    gen = Generation(symbols=(b"\x01", b"\x02"))
    c = np.array([[0x01], [0x01]], dtype=np.uint8)
    coded = codec.encode(gen, c)
    received = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 1, b"\x02"),
            ReceivedSymbol("coded", 0, b"\x03"),
        )
    )
    result = codec.decode(received, c, 2)
    assert result.symbols == (b"\x01", b"\x02")
    assert coded[0] == b"\x03"


def test_decode_elimination_steps_pinned():
    # K=30, R=18 with the even natives erased; the count the benchmark's
    # codec.decode.elimination_steps metric sums must not drift.
    k, r = 30, 18
    c = codec.make_coefficients(k, r, seed=301)
    gen = Generation(symbols=tuple(bytes([i, 2 * i % 256, 7]) for i in range(k)))
    stats = DecodeStats()
    result = codec.decode(received_from(gen, codec.encode(gen, c), range(0, k, 2)), c, k, stats)
    assert result.symbols == gen.symbols
    assert stats.elimination_steps == 269


def test_decode_insufficient_symbols():
    c = codec.make_coefficients(3, 2, seed=2)
    received = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 0, b"\x01"),
            ReceivedSymbol("coded", 0, b"\x02"),
        )
    )
    with pytest.raises(InsufficientSymbolsError, match="insufficient symbols"):
        codec.decode(received, c, 3)


def test_decode_singular_system():
    # an all-zero coded column cannot stand in for a missing native
    c = np.array([[0x00], [0x00]], dtype=np.uint8)
    received = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 1, b"\x02"),
            ReceivedSymbol("coded", 0, b"\x00"),
        )
    )
    with pytest.raises(SingularSystemError, match="singular system"):
        codec.decode(received, c, 2)


def test_decode_error_types_are_distinct():
    assert issubclass(InsufficientSymbolsError, codec.DecodeError)
    assert issubclass(SingularSystemError, codec.DecodeError)


def test_round_trip_random_erasures():
    rng = np.random.default_rng(6)
    k, r = 30, 18
    c = codec.make_coefficients(k, r, seed=123)
    failures = 0
    for trial in range(300):
        gen = random_generation(rng, k=k, payload_len=8, generation_id=trial)
        coded = codec.encode(gen, c)
        e = int(rng.integers(0, r + 1))
        erased = rng.choice(k, size=e, replace=False)
        try:
            result = codec.decode(received_from(gen, coded, erased), c, k)
        except SingularSystemError:
            failures += 1
            continue
        assert result.symbols == gen.symbols
    assert failures <= 3  # uniform GF(256) draws are almost never singular


def test_decode_bulk_payloads_counts_steps_from_coefficients_only():
    # K=30, R=18 with 1 KiB payloads; elimination touches only the
    # coefficient block, so the step count matches the 8-byte decode of the
    # same erasure pattern.
    rng = np.random.default_rng(9)
    k, r = 30, 18
    c = codec.make_coefficients(k, r, seed=124)
    bulk = random_generation(rng, k=k, payload_len=1024)
    small = random_generation(rng, k=k, payload_len=8)
    bulk_coded, small_coded = codec.encode(bulk, c), codec.encode(small, c)
    for e in range(r + 1):
        erased = rng.choice(k, size=e, replace=False)
        bulk_stats, small_stats = DecodeStats(), DecodeStats()
        result = codec.decode(received_from(bulk, bulk_coded, erased), c, k, bulk_stats)
        codec.decode(received_from(small, small_coded, erased), c, k, small_stats)
        assert result.symbols == bulk.symbols
        assert type(bulk_stats.elimination_steps) is int
        assert bulk_stats.elimination_steps == small_stats.elimination_steps
        assert (bulk_stats.elimination_steps > 0) == (e > 0)


def test_coefficient_matrix_reuse_across_generations():
    rng = np.random.default_rng(7)
    c = codec.make_coefficients(10, 5, seed=77)
    for gid in range(2):
        gen = random_generation(rng, k=10, payload_len=4, generation_id=gid)
        coded = codec.encode(gen, c)
        erased = rng.choice(10, size=4, replace=False)
        result = codec.decode(received_from(gen, coded, erased), c, 10)
        assert result.symbols == gen.symbols
        assert result.generation_id == gid


def test_decode_deterministic():
    rng = np.random.default_rng(8)
    gen = random_generation(rng, k=8, payload_len=4)
    c = codec.make_coefficients(8, 4, seed=5)
    coded = codec.encode(gen, c)
    received = received_from(gen, coded, [1, 5, 6])
    first = codec.decode(received, c, 8)
    second = codec.decode(received, c, 8)
    assert first == second


# ----------------------------------------------------------------- validation


def test_generation_rejects_ragged_or_empty_payloads():
    # a Generation is built unchecked; encode rejects it
    for symbols, message in [
        ((b"ab", b"c"), "all payloads in a generation must have equal length"),
        ((b"", b""), "payloads must be at least one byte long"),
        ((), "a generation needs at least one payload"),
    ]:
        coeffs = np.zeros((len(symbols), 1), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            codec.encode(Generation(symbols=symbols), coeffs)


@pytest.mark.parametrize(
    "k,coeffs,entries,message",
    [
        (
            2,
            np.ones((2, 1), dtype=np.uint8),
            (ReceivedSymbol("native", 0, b""), ReceivedSymbol("native", 1, b"")),
            "payloads must be at least one byte long",
        ),
        (
            0,
            np.ones((0, 1), dtype=np.uint8),
            (ReceivedSymbol("coded", 0, b"\x01"),),
            "a generation needs at least one payload",
        ),
        (
            2,
            np.ones((2, 1), dtype=np.uint8),
            (ReceivedSymbol("native", 0, b"\x01"), ReceivedSymbol("coded", 0, b"\x01\x02")),
            "all payloads in a generation must have equal length",
        ),
        (
            # the length check runs before the walk that checks kinds
            2,
            np.ones((2, 1), dtype=np.uint8),
            (ReceivedSymbol("junk", 0, b"\x01"), ReceivedSymbol("native", 0, b"\x01\x02")),
            "all payloads in a generation must have equal length",
        ),
    ],
    ids=["zero-length", "k-0", "ragged", "ragged-before-kind"],
)
def test_decode_rejects_what_encode_rejects(k, coeffs, entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        codec.decode(ReceivedGeneration(entries=entries), coeffs, k)


def test_decode_of_nothing_received_is_insufficient():
    # no payloads is not a payload fault: it is a generation that did not arrive
    with pytest.raises(InsufficientSymbolsError, match="received 0 of 2 required"):
        codec.decode(ReceivedGeneration(entries=()), np.ones((2, 0), dtype=np.uint8), 2)


def test_received_generation_rejects_duplicates():
    # a ReceivedGeneration is built unchecked; decode rejects it
    c = codec.make_coefficients(2, 2, seed=0)
    natives = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 0, b"\x01"),
            ReceivedSymbol("native", 0, b"\x02"),
        )
    )
    with pytest.raises(ValueError, match=re.escape("duplicate received symbol ('native', 0)")):
        codec.decode(natives, c, 2)
    coded = ReceivedGeneration(
        entries=(
            ReceivedSymbol("coded", 0, b"\x01"),
            ReceivedSymbol("native", 1, b"\x02"),
            ReceivedSymbol("coded", 0, b"\x03"),
        )
    )
    with pytest.raises(ValueError, match=re.escape("duplicate received symbol ('coded', 0)")):
        codec.decode(coded, c, 2)


def test_received_generation_rejects_unknown_kind():
    received = ReceivedGeneration(entries=(ReceivedSymbol("junk", 0, b"\x01"),))
    with pytest.raises(ValueError, match="unknown symbol kind 'junk'"):
        codec.decode(received, codec.make_coefficients(2, 1, seed=0), 2)


def test_decode_rejects_out_of_range_indices():
    c = codec.make_coefficients(2, 1, seed=0)
    bad_native = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 2, b"\x01"),
            ReceivedSymbol("native", 0, b"\x01"),
        )
    )
    with pytest.raises(ValueError, match="out of range"):
        codec.decode(bad_native, c, 2)
    bad_coded = ReceivedGeneration(
        entries=(
            ReceivedSymbol("coded", 1, b"\x01"),
            ReceivedSymbol("native", 0, b"\x01"),
        )
    )
    with pytest.raises(ValueError, match="out of range"):
        codec.decode(bad_coded, c, 2)


def test_decode_rejects_ragged_payloads():
    c = codec.make_coefficients(2, 1, seed=0)
    received = ReceivedGeneration(
        entries=(
            ReceivedSymbol("native", 0, b"\x01"),
            ReceivedSymbol("coded", 0, b"\x01\x02"),
        )
    )
    with pytest.raises(ValueError, match="equal length"):
        codec.decode(received, c, 2)
