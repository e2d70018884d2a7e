"""GF(2^8) arithmetic for the coding layer.

Field elements are plain ints in [0, 255] (one 8-bit symbol unit).
Reduction polynomial: x^8 + x^4 + x^3 + x + 1 (0x11B). Multiplication and
inversion go through log/exp tables built with generator 0x03; 0x02 is not
primitive under 0x11B (its order is 51), so the generator choice matters.

A full 256x256 product table (``MUL``) is also exported. Payload math goes
through ``matmul``, the field's matrix product: it gathers each coefficient's
256-byte product row ``MUL[c]`` and indexes those rows with the payload bytes.

All tables are built once at import and never mutated afterwards, so every
function here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B
GENERATOR = 0x03


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)  # log[0] stays 0 and is never used
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # x *= 0x03, i.e. (x << 1 reduced) XOR x
        doubled = x << 1
        if doubled & 0x100:
            doubled ^= POLY
        x = doubled ^ x
    exp[255:] = exp[:255]  # doubled so EXP[la + lb] needs no mod 255
    return exp, log


EXP, LOG = _build_tables()

# MUL[a, b] = a * b over the field; row/column 0 are all zero.
MUL = np.zeros((256, 256), dtype=np.uint8)
MUL[1:, 1:] = EXP[LOG[1:, None] + LOG[None, 1:]]

# INV[a] = a^-1 for a != 0; INV[0] is 0 and must not be consumed.
INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[1:]]


def mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if not (0 <= a <= 255 and 0 <= b <= 255):
        raise ValueError(f"field elements must be in [0, 255], got {a!r}, {b!r}")
    return int(MUL[a, b])


def inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    if not 0 <= a <= 255:
        raise ValueError(f"field elements must be in [0, 255], got {a!r}")
    if a == 0:
        raise ZeroDivisionError("no inverse for zero")
    return int(INV[a])


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Field product of uint8 (n, k) and (k, L) matrices as a new uint8 (n, L) array."""
    n, k = a.shape
    rows = MUL[a].reshape(n, k * 256)  # column p*256 + v of row i holds a[i, p] * v
    products = rows.take(np.arange(k)[:, None] * 256 + b, axis=1)  # (n, k, L)
    return np.bitwise_xor.reduce(products, axis=1)
