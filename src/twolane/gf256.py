"""GF(2^8) arithmetic for the coding layer.

Field elements are plain ints in [0, 255] (one 8-bit symbol unit).
Reduction polynomial: x^8 + x^4 + x^3 + x + 1 (0x11B). Multiplication and
inversion go through log/exp tables built with generator 0x03; 0x02 is not
primitive under 0x11B (its order is 51), so the generator choice matters.

A full 256x256 product table (``MUL``) is also exported. Payload math goes
through ``matmul``, the field's matrix product: byte gathers from ``MUL`` by
flat index for short payloads or from its rows, and nibble-row gathers for
long payloads (Plank, Greenan and Miller, "Screaming Fast Galois Field
Arithmetic Using Intel SIMD Instructions", FAST 2013).

All tables are built once at import and never mutated afterwards, so every
function here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B
GENERATOR = 0x03
NIBBLE_SPAN = 256  # payload bytes per column block of matmul's nibble path


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
MUL_FLAT = MUL.reshape(-1)  # MUL_FLAT[a * 256 + b] = a * b

NIBBLE_ROWS = MUL[np.r_[0:16, 0:256:16]]  # [v, c] = c * v, [16 + v, c] = c * (v << 4)

# INV_LIST[a] = a^-1 for a != 0, as Python ints; INV_LIST[0] is 0 and must not be consumed.
INV_LIST = [0, *EXP[255 - LOG[1:]].tolist()]


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
    return INV_LIST[a]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Field product of uint8 (n, k) and (k, L) matrices as a new uint8 (n, L) array.

    At L <= 16: one byte gather per (coefficient, row, byte) from MUL_FLAT at
    a[i, p] * 256 + b[p, j], XOR-reduced over the coefficients, not n * k whole
    MUL rows first; at n = 4 to 28, k = 20 to 33 it measured 1.1-1.25x the row
    gather at L = 8 (every 8-byte decode product), 1.05x at 16, 1.0x at 24 and
    0.85-0.9x at 32. Else, at L < 256 or n < 8: one byte gather per (row,
    coefficient, byte) from the rows MUL[a[i, p]]. Otherwise a table holds 32
    rows per coefficient column p, a[:, p] * v and a[:, p] * (v << 4) for
    v < 16, padded to a fast ``take`` chunk (16, 32 or 8j bytes); one row is
    gathered per (p, byte, nibble), and the 2k rows are XOR-reduced as uint64
    words, 256 bytes of ``b`` at a time.
    The nibble path measured 1.0x the byte gather at n = 7, 1.05-1.4x at n = 8;
    at n = 18 it wins from L = 96, but 256 keeps every 8-byte-payload product
    (8 to 128 bytes wide, by the generations stacked) off it.
    """
    (n, k), length = a.shape, b.shape[1]
    if length <= 16:
        products = MUL_FLAT.take((a.T.astype(np.intp) << 8)[:, :, None] | b[:, None, :])
        return np.bitwise_xor.reduce(products, axis=0)  # (k, n, L) -> (n, L)
    if length < 256 or n < 8:
        rows = MUL[a].reshape(n, k * 256)  # column p*256 + v of row i holds a[i, p] * v
        products = rows.take(np.arange(k)[:, None] * 256 + b, axis=1)  # (n, k, L)
        return np.bitwise_xor.reduce(products, axis=1)
    width = 16 if n <= 16 else 32 if n <= 32 else -(-n // 8) * 8
    table = np.zeros((k * 32, width), dtype=np.uint8)
    table[:, :n] = NIBBLE_ROWS.take(a.T, axis=1).transpose(1, 0, 2).reshape(k * 32, n)
    offsets = np.arange(0, 32 * k, 32)[:, None, None] + np.array([[0], [16]])  # (k, 2, 1)
    out = np.empty((length, width), dtype=np.uint8)  # row j holds byte j of all n outputs
    rows_buf = np.empty(2 * k * NIBBLE_SPAN * width, dtype=np.uint8)  # shared: no page faults
    for c in range(0, length, NIBBLE_SPAN):
        part = b[:, c : c + NIBBLE_SPAN]
        span = part.shape[1]
        picks = offsets + np.stack((part & 15, part >> 4), axis=1)  # (k, 2, span)
        rows = rows_buf[: 2 * k * span * width].reshape(2 * k, span, width)
        table.take(picks.reshape(2 * k, span), axis=0, out=rows, mode="clip")  # "clip": no copy
        np.bitwise_xor.reduce(rows.view(np.uint64), axis=0, out=out[c : c + span].view(np.uint64))
    return np.ascontiguousarray(out[:, :n].T)
