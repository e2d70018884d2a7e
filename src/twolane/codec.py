"""Systematic random linear codec over GF(2^8) generations.

A generation is a block of K equal-length byte payloads encoded and decoded
as one unit. Encoding appends R coded payloads, each a random linear
combination of the K natives defined by one column of a K x R coefficient
matrix; the natives themselves are transmitted unchanged. Decoding recovers
the K natives from any rank-K subset of received symbols via Gauss-Jordan
elimination over the field, solving only for the missing natives (natives
that survived are emitted as-is, without recomputation).

A coefficient matrix is immutable after creation and may be shared freely:
the same matrix decodes any number of generations independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf256


class DecodeError(Exception):
    """Base class for per-generation decode failures."""


class InsufficientSymbolsError(DecodeError):
    """Fewer than K symbols of the generation were received."""


class SingularSystemError(DecodeError):
    """At least K symbols received, but their coefficient rows have rank < K."""


@dataclass(frozen=True)
class Generation:
    """K native payloads handled as one coding unit."""

    symbols: tuple[bytes, ...]
    generation_id: int = 0

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("a generation needs at least one payload")
        length = len(self.symbols[0])
        if length < 1:
            raise ValueError("payloads must be at least one byte long")
        if any(len(p) != length for p in self.symbols):
            raise ValueError("all payloads in a generation must have equal length")

    @property
    def k(self) -> int:
        return len(self.symbols)

    @property
    def payload_len(self) -> int:
        return len(self.symbols[0])


class CoefficientMatrix:
    """K x R field-element matrix; column j defines coded payload j."""

    def __init__(self, array: np.ndarray):
        arr = np.array(array, dtype=np.uint8, copy=True)
        if arr.ndim != 2:
            raise ValueError("coefficient matrix must be 2-dimensional")
        arr.flags.writeable = False
        self.array = arr

    @property
    def k(self) -> int:
        return self.array.shape[0]

    @property
    def r(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other):
        return isinstance(other, CoefficientMatrix) and np.array_equal(
            self.array, other.array
        )

    def __repr__(self):
        return f"CoefficientMatrix(k={self.k}, r={self.r})"


def make_coefficients(k: int, r: int, seed) -> CoefficientMatrix:
    """Draw a K x R matrix of i.i.d. uniform field elements (zeros included).

    Deterministic for a fixed seed. Columns are not screened for rank or
    all-zero content; a bad draw surfaces later as a ``SingularSystemError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    rng = np.random.default_rng(seed)
    return CoefficientMatrix(rng.integers(0, 256, size=(k, r), dtype=np.uint8))


@dataclass(frozen=True)
class CodedGeneration:
    """Encoder output: the untouched natives plus R coded payloads."""

    native: tuple[bytes, ...]
    coded: tuple[bytes, ...]
    coefficients: CoefficientMatrix
    generation_id: int = 0


class ReceivedSymbol(NamedTuple):
    kind: str  # "native" or "coded"
    index: int
    payload: bytes


@dataclass(frozen=True)
class ReceivedGeneration:
    """Symbols of one generation that survived the channel."""

    entries: tuple[ReceivedSymbol, ...]
    generation_id: int = 0

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.kind not in ("native", "coded"):
                raise ValueError(f"unknown symbol kind {e.kind!r}")
            key = (e.kind, e.index)
            if key in seen:
                raise ValueError(f"duplicate received symbol {key}")
            seen.add(key)


@dataclass
class DecodeStats:
    """Filled in by decode() when passed in; counts field row operations."""

    elimination_steps: int = 0


def _payload_matrix(payloads, length: int) -> np.ndarray:
    out = np.empty((len(payloads), length), dtype=np.uint8)
    for i, p in enumerate(payloads):
        out[i] = np.frombuffer(p, dtype=np.uint8)
    return out


def encode(gen: Generation, coeffs: CoefficientMatrix) -> CodedGeneration:
    """Append R coded payloads to a generation; natives pass through unchanged.

    Coded payload j is XOR_i( C[i, j] * native_i ), computed bytewise over
    the field.
    """
    if coeffs.k != gen.k:
        raise ValueError(
            f"coefficient matrix has {coeffs.k} rows but generation has {gen.k} payloads"
        )
    if coeffs.r == 0:
        return CodedGeneration(
            native=gen.symbols,
            coded=(),
            coefficients=coeffs,
            generation_id=gen.generation_id,
        )
    natives = _payload_matrix(gen.symbols, gen.payload_len)
    # (R, K, L) products, XOR-reduced over K
    products = gf256.MUL[coeffs.array.T[:, :, None], natives[None, :, :]]
    coded_arr = np.bitwise_xor.reduce(products, axis=1)
    return CodedGeneration(
        native=gen.symbols,
        coded=tuple(row.tobytes() for row in coded_arr),
        coefficients=coeffs,
        generation_id=gen.generation_id,
    )


def decode(
    received: ReceivedGeneration,
    coeffs: CoefficientMatrix,
    k: int,
    stats: DecodeStats | None = None,
) -> Generation:
    """Recover the K native payloads of one generation.

    Natives present in ``received`` are returned byte-identically; missing
    natives are solved from the received coded payloads by Gauss-Jordan
    elimination on the reduced system (one equation per coded payload, one
    unknown per missing native). With zero missing natives no elimination
    is performed at all.

    Raises InsufficientSymbolsError when fewer than ``k`` symbols arrived,
    and SingularSystemError when enough symbols arrived but their implied
    coefficient rows do not reach rank ``k``.
    """
    if stats is None:
        stats = DecodeStats()
    if coeffs.k != k:
        raise ValueError(f"coefficient matrix has {coeffs.k} rows, expected {k}")

    native_payloads: dict[int, bytes] = {}
    coded_cols: list[int] = []
    coded_payloads: list[bytes] = []
    length = None
    for e in received.entries:
        if length is None:
            length = len(e.payload)
        elif len(e.payload) != length:
            raise ValueError("received payloads must have equal length")
        if e.kind == "native":
            if not 0 <= e.index < k:
                raise ValueError(f"native index {e.index} out of range for k={k}")
            native_payloads[e.index] = e.payload
        else:
            if not 0 <= e.index < coeffs.r:
                raise ValueError(f"coded index {e.index} out of range for r={coeffs.r}")
            coded_cols.append(e.index)
            coded_payloads.append(e.payload)

    if len(received.entries) < k:
        raise InsufficientSymbolsError(
            f"insufficient symbols: received {len(received.entries)} of {k} required"
        )

    missing = [i for i in range(k) if i not in native_payloads]
    if not missing:
        symbols = tuple(native_payloads[i] for i in range(k))
        return Generation(symbols=symbols, generation_id=received.generation_id)

    m = len(missing)
    n = len(coded_cols)  # n >= m is implied by len(entries) >= k
    assert length is not None

    # Reduced system: A x = B with A[row, c] = C[missing[c], coded_cols[row]]
    # and B[row] = coded payload XOR contribution of the natives that survived.
    a = coeffs.array[np.ix_(missing, coded_cols)].T.copy()  # (n, m)
    b = _payload_matrix(coded_payloads, length)  # (n, L)
    present = sorted(native_payloads)
    if present:
        present_arr = _payload_matrix([native_payloads[i] for i in present], length)
        sub = coeffs.array[np.ix_(present, coded_cols)]  # (p, n)
        contrib = np.bitwise_xor.reduce(
            gf256.MUL[sub.T[:, :, None], present_arr[None, :, :]], axis=1
        )
        b ^= contrib

    # Gauss-Jordan with positional pivoting (first nonzero entry wins; the
    # field has no magnitude so there is nothing numeric to prefer).
    pivot_row_of_col = [-1] * m
    row = 0
    for col in range(m):
        pivot = -1
        for i in range(row, n):
            if a[i, col]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        if a[row, col] != 1:
            scale = gf256.INV[a[row, col]]
            a[row] = gf256.MUL[scale, a[row]]
            b[row] = gf256.MUL[scale, b[row]]
            stats.elimination_steps += 1
        factors = a[:, col].copy()
        factors[row] = 0
        targets = np.flatnonzero(factors)
        if targets.size:
            a[targets] ^= gf256.MUL[factors[targets, None], a[row][None, :]]
            b[targets] ^= gf256.MUL[factors[targets, None], b[row][None, :]]
            stats.elimination_steps += int(targets.size)
        pivot_row_of_col[col] = row
        row += 1

    if row < m:
        raise SingularSystemError(
            f"singular system: rank {row} < {m} unknowns from {n} coded symbols"
        )

    symbols_out: list[bytes] = [b""] * k
    for i, payload in native_payloads.items():
        symbols_out[i] = payload
    for c, native_idx in enumerate(missing):
        symbols_out[native_idx] = b[pivot_row_of_col[c]].tobytes()
    return Generation(symbols=tuple(symbols_out), generation_id=received.generation_id)
