"""Systematic random linear codec over GF(2^8) generations.

A generation is a block of K equal-length byte payloads encoded and decoded
as one unit. Encoding computes R coded payloads, each a random linear
combination of the K natives defined by one column of a K x R coefficient
array; the natives themselves are transmitted unchanged. Decoding recovers
the K natives from any rank-K subset of received symbols, solving only for
the missing natives: Gauss-Jordan elimination runs on the coefficients
alone, a fixed handful of numpy calls per pivot with the pivot row's scale
folded into the update, then the payload bytes are multiplied once by
``gf256.matmul``, the kernel that also encodes. Natives that survived are
emitted as-is. ``encode`` and ``decode`` share one input check, and ``decode``
checks each entry's kind, index and uniqueness in the walk that sorts them.

The coefficients are a plain (K, R) uint8 array. ``make_coefficients``
returns it read-only, so one array may be shared freely: it decodes any
number of generations independently. ``row_reduce`` turns it, once, into the
equivalent array whose transpose is in reduced row echelon form; its coded
payloads recombine the original ones invertibly, so every erasure set keeps
its rank. ``row_reduce`` and ``decode`` share one elimination routine, which
replays a leading run of unit columns as a single row permutation before its
per-pivot loop. A unit column costs the loop a row swap and no row operation,
so the replay changes no pivot, factor or step count; under the echelon form
every missing native that is a pivot column is such a column, and the loop
runs only over the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf256
from .fec import check_count


class DecodeError(Exception):
    """Base class for per-generation decode failures."""


class InsufficientSymbolsError(DecodeError):
    """Fewer than K symbols of the generation were received."""


class SingularSystemError(DecodeError):
    """At least K symbols received, but their coefficient rows have rank < K."""


@dataclass(frozen=True)
class Generation:
    """K native payloads handled as one coding unit; ``encode`` checks them."""

    symbols: tuple[bytes, ...]
    generation_id: int = 0


def make_coefficients(k: int, r: int, seed) -> np.ndarray:
    """Draw a read-only (K, R) uint8 array of i.i.d. uniform field elements.

    Column j defines coded payload j. Deterministic for a fixed seed; zeros
    are included. Columns are not screened for rank or all-zero content; a
    bad draw surfaces later as a ``SingularSystemError``.
    """
    check_count("k", k, 1)
    check_count("r", r, 0)
    coeffs = np.random.default_rng(seed).integers(0, 256, size=(k, r), dtype=np.uint8)
    coeffs.flags.writeable = False
    return coeffs


class ReceivedSymbol(NamedTuple):
    kind: str  # "native" or "coded"
    index: int
    payload: bytes


@dataclass(frozen=True)
class ReceivedGeneration:
    """Symbols of one generation that survived the channel; ``decode`` checks them."""

    entries: tuple[ReceivedSymbol, ...]
    generation_id: int = 0


@dataclass
class DecodeStats:
    """Filled in by decode() when passed in; counts field row operations."""

    elimination_steps: int = 0


def _check_coefficients(coeffs) -> None:
    if not isinstance(coeffs, np.ndarray) or coeffs.ndim != 2 or coeffs.dtype != np.uint8:
        raise ValueError("coefficients must be a 2-dimensional uint8 array")


def _check_inputs(payloads, coeffs: np.ndarray, k: int) -> None:
    """Shared by encode and decode: K >= 1, equal payload lengths >= 1, (K, R) uint8."""
    if k < 1:
        raise ValueError("a generation needs at least one payload")
    length = len(payloads[0]) if payloads else 1
    if length < 1:
        raise ValueError("payloads must be at least one byte long")
    if len(set(map(len, payloads))) > 1:
        raise ValueError("all payloads in a generation must have equal length")
    _check_coefficients(coeffs)
    if coeffs.shape[0] != k:
        raise ValueError(f"coefficient matrix has {coeffs.shape[0]} rows, expected {k}")


def _payload_matrix(payloads) -> np.ndarray:
    """Equal-length payloads as the rows of one read-only (n, L) uint8 array."""
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), -1)


def _gauss_jordan(ab: np.ndarray, m: int) -> tuple[int, int]:
    """Row-reduce the first m columns of ``ab`` in place; return (rank, row operations).

    Positional pivoting: the first nonzero entry wins, since the field has no
    magnitude and so nothing numeric to prefer. The entry in the pivot row is
    tested first and the rows below are searched only when it is zero. At
    full rank every column finds a pivot, so column c ends up solved in row c.
    One product per pivot: row i gains (ab[i, col] / p) times the pivot row,
    and since a*x + b*x = (a + b)*x, the pivot row gaining (1 + 1/p) times
    itself is its scale by 1/p. Each pivot's factors are kept in one row of
    an (m, n) block, counted once at the end; a nonzero factor is one field row
    operation, the pivot row's when p != 1, each other row's when it has a
    nonzero entry in the pivot column. The ``take`` indices are field
    elements, in range by construction, so "clip" checks nothing.

    A leading run of unit columns (one entry 1, the rest 0: the only columns
    whose entries sum to 1 over the integers) is replayed first as one row
    permutation: on such a column the loop only swaps its 1 into the pivot
    row, and its factors are all zero. The replay stops at the first column
    whose 1 sits above the pivot row, which the loop skips.
    """
    n = len(ab)
    row = 0
    sums = ab[:, :m].sum(axis=0, dtype=np.intp).tolist()  # 1 for a unit column only
    lead = 0
    while lead < m and sums[lead] == 1:
        lead += 1
    if lead:
        order, where = list(range(n)), list(range(n))  # position -> row, row -> position
        for q in ab[:, :lead].argmax(axis=0).tolist():  # the row of each column's 1
            p = where[q]
            if p < row:
                break
            order[row], order[p] = order[p], order[row]
            where[order[row]], where[order[p]] = row, p
            row += 1
        if row:
            ab[:] = ab.take(order, axis=0)

    mul, inverse = gf256.MUL, gf256.INV_LIST
    factors = np.zeros((m, n), dtype=np.uint8)
    for col in range(row, m):
        if row == n:  # every row holds a pivot: only row_reduce's wide matrices get here
            break
        column = ab[:, col]
        if not column[row]:
            below = np.flatnonzero(column[row:])
            if not len(below):
                continue
            pivot = row + int(below[0])
            ab[[row, pivot]] = ab[[pivot, row]]
        inv = inverse[column[row]]
        f = mul[inv].take(column, out=factors[col], mode="clip")
        f[row] = 1 ^ inv
        ab ^= mul.take(f, axis=0, mode="clip").take(ab[row], axis=1, mode="clip")
        row += 1
    return row, int(np.count_nonzero(factors))


def row_reduce(coeffs: np.ndarray) -> np.ndarray:
    """The read-only (K, R) array whose transpose is the reduced row echelon form of C.T.

    Coded payload j of the result is an invertible recombination of C's coded
    payloads, so any set of missing natives has the same rank under both, and
    a generation encoded and decoded with either gives the same outcome and
    the same natives. Under the echelon form, a missing native that is a
    pivot column costs its decode a row swap and no elimination.
    """
    _check_coefficients(coeffs)
    ab = coeffs.T.copy()
    _gauss_jordan(ab, coeffs.shape[0])
    reduced = np.ascontiguousarray(ab.T)
    reduced.flags.writeable = False
    return reduced


def encode(gen: Generation, coeffs: np.ndarray) -> tuple[bytes, ...]:
    """The R coded payloads of a generation; its natives are sent unchanged.

    Coded payload j is XOR_i( C[i, j] * native_i ), computed bytewise over
    the field.
    """
    _check_inputs(gen.symbols, coeffs, len(gen.symbols))
    return tuple(row.tobytes() for row in gf256.matmul(coeffs.T, _payload_matrix(gen.symbols)))


def decode(
    received: ReceivedGeneration,
    coeffs: np.ndarray,
    k: int,
    stats: DecodeStats | None = None,
) -> Generation:
    """Recover the K native payloads of one generation.

    Natives present in ``received`` are returned byte-identically; missing
    natives are solved from the received coded payloads by Gauss-Jordan
    elimination on the reduced system (one equation per coded payload, one
    unknown per missing native). With zero missing natives no elimination
    is performed at all.

    Raises ValueError when the shared input check fails or an entry is
    malformed (unknown kind, duplicate, index out of range),
    InsufficientSymbolsError when fewer than ``k`` symbols arrived, and
    SingularSystemError when enough symbols arrived but their implied
    coefficient rows do not reach rank ``k``.
    """
    if stats is None:
        stats = DecodeStats()
    entries = received.entries
    _check_inputs([e.payload for e in entries], coeffs, k)
    r = coeffs.shape[1]

    natives: list[bytes | None] = [None] * k
    coded_seen = [False] * r
    coded_cols: list[int] = []  # in received order, the elimination's row order
    coded_payloads: list[bytes] = []
    for kind, index, payload in entries:
        if kind == "native":
            if not 0 <= index < k:
                raise ValueError(f"native index {index} out of range for k={k}")
            seen = natives[index] is not None
            natives[index] = payload
        elif kind == "coded":
            if not 0 <= index < r:
                raise ValueError(f"coded index {index} out of range for r={r}")
            seen = coded_seen[index]
            coded_seen[index] = True
            coded_cols.append(index)
            coded_payloads.append(payload)
        else:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if seen:
            raise ValueError(f"duplicate received symbol {(kind, index)}")

    if len(entries) < k:
        raise InsufficientSymbolsError(
            f"insufficient symbols: received {len(entries)} of {k} required"
        )

    missing = [i for i, p in enumerate(natives) if p is None]
    if not missing:
        return Generation(symbols=tuple(natives), generation_id=received.generation_id)

    m = len(missing)
    n = len(coded_cols)  # n >= m is implied by len(entries) >= k

    # Row-reduce [A | S | I_n], coefficients only: A and S hold the
    # coefficients of the missing and of the surviving natives in each coded
    # payload, so A x = S present + coded (minus is plus in GF(2^8)).
    # Reducing A to the identity turns S | I_n into T S | T; row c of that,
    # times the surviving payloads stacked on the coded ones, is missing c.
    present = [i for i, p in enumerate(natives) if p is not None]
    ab = np.zeros((n, k + n), dtype=np.uint8)
    ab[:, :k] = coeffs.take(missing + present, axis=0).take(coded_cols, axis=1).T
    ab.reshape(-1)[k :: k + n + 1] = 1  # I_n: entry (i, k + i)

    row, steps = _gauss_jordan(ab, m)
    stats.elimination_steps += steps

    if row < m:
        raise SingularSystemError(
            f"singular system: rank {row} < {m} unknowns from {n} coded symbols"
        )

    payloads = _payload_matrix([natives[i] for i in present] + coded_payloads)
    for native_idx, payload in zip(missing, gf256.matmul(ab[:m, m:], payloads)):
        natives[native_idx] = payload.tobytes()
    return Generation(symbols=tuple(natives), generation_id=received.generation_id)
