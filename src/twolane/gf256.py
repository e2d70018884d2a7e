"""GF(2^8) arithmetic for the coding layer.

Field elements are plain ints in [0, 255] (one 8-bit symbol unit).
Reduction polynomial: x^8 + x^4 + x^3 + x + 1 (0x11B). The full 256x256
product table ``MUL`` and the inverse list ``INV_LIST`` are built from log/exp
tables with generator 0x03; 0x02 is not primitive under 0x11B (its order is
51), so the generator choice matters. ``MUL[a, b]`` is a * b and
``INV_LIST[a]`` is a^-1; the codec reads both directly. Payload math goes
through ``matmul``, the field's matrix product: byte gathers from ``MUL`` by
flat index for short payloads or from its rows, and for payloads of at least
``LONG`` bytes one row gather per payload byte from a full product table of
the coefficients, built from their nibble tables (Plank, Greenan and Miller,
"Screaming Fast Galois Field Arithmetic Using Intel SIMD Instructions", FAST
2013), with no product for a zero coefficient column or a unit one alone on its row.

All tables are built once at import and never mutated afterwards, so every
function here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B
GENERATOR = 0x03
LONG = 256  # payload bytes from which matmul skips sparse columns and uses full tables
TABLE_BYTES = 1 << 19  # bound on one full product table, and on its gather buffer


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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Field product of uint8 (n, k) and (k, L) matrices as a new uint8 (n, L) array.

    At L <= 16: one byte gather per (coefficient, row, byte) from MUL_FLAT at
    a[i, p] * 256 + b[p, j], XOR-reduced over the coefficients, not n * k whole
    MUL rows first; at n = 4 to 28, k = 20 to 33 it measured 1.1-1.25x the row
    gather at L = 8 (every 8-byte decode product), 1.05x at 16, 1.0x at 24 and
    0.85-0.9x at 32. Else, at L < LONG or n < 8: one byte gather per (row,
    coefficient, byte) from the rows MUL[a[i, p]]. From L = LONG on, a zero
    column p costs nothing and a unit column (a[u, p] = 1, the rest 0) alone on
    row u one XOR of b[p] into row u, all in one fancy-indexed XOR, which applies
    one of two equal indices (so unit columns sharing a row are multiplied); and
    at n >= 8 row p * 256 + v of a full table holds
    a[:, p] * v, padded to a fast ``take`` chunk (16, 32 or 8j bytes) and
    built as 8-byte words from the 32 nibble rows a[:, p] * v and
    a[:, p] * (v << 4), v < 16: one row is gathered per (p, byte) into one
    reused buffer and the k rows are XOR-reduced as words, 256 bytes of ``b``
    at a time. Columns go in blocks of at most TABLE_BYTES // (256 * width),
    so a table and the buffer stay within TABLE_BYTES as k grows.
    Over n = 8 to 48 and k = 12 to 100, with no zero or unit column, this
    measured 0.90-1.16x a nibble-row gather (two rows per byte from the 32
    nibble rows) at L = 256, 1.16-1.41x at 512 and 1.36-1.69x at 1024; it
    passes the byte gather from L = 128 (n = 18, k = 30) to 512 (n = 8,
    k = 12). At n = 6 and 7 it would pass it from 512, at n <= 4 not by 1024.
    ``LONG`` = 256 keeps every 8-byte-payload product (8 to 128 bytes wide, by
    the generations stacked) on the short paths. The column check costs 3-10%
    of a long product at n = 4 to 7 that has no zero or unit column.
    """
    if b.shape[1] >= LONG:
        sums = a.sum(axis=0, dtype=np.intp)  # 0 for a zero column only, 1 for a unit one only
        dense = np.flatnonzero(sums > 1)
        if len(dense) < len(sums):
            units = np.flatnonzero(sums == 1)
            _, rows = np.nonzero(a.take(units, axis=1).T)  # the row of each unit column's 1
            alone = np.bincount(rows, minlength=len(a))[rows] == 1  # no other unit on that row
            dense = np.concatenate((dense, units[~alone]))  # in any order: XOR commutes
            out = _product(a.take(dense, axis=1), b.take(dense, axis=0))
            out[rows[alone]] ^= b.take(units[alone], axis=0)
            return out
    return _product(a, b)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``matmul`` multiplying every column; recursing instead re-ran the column check."""
    (n, k), length = a.shape, b.shape[1]
    if length <= 16:
        products = MUL_FLAT.take((a.T.astype(np.intp) << 8)[:, :, None] | b[:, None, :])
        return np.bitwise_xor.reduce(products, axis=0)  # (k, n, L) -> (n, L)
    if length < LONG or n < 8:
        rows = MUL[a].reshape(n, k * 256)  # column p*256 + v of row i holds a[i, p] * v
        products = rows.take(np.arange(k)[:, None] * 256 + b, axis=1)  # (n, k, L)
        return np.bitwise_xor.reduce(products, axis=1)
    width = 16 if n <= 16 else 32 if n <= 32 else -(-n // 8) * 8
    per_table = max(1, TABLE_BYTES // (256 * width))
    out = np.zeros((length, width), dtype=np.uint8)  # row j holds byte j of all n outputs
    words = out.view(np.uint64)
    rows_buf = np.empty(min(k, per_table) * 256 * width, dtype=np.uint8)  # shared: no page faults
    for p0 in range(0, k, per_table):
        block = a[:, p0 : p0 + per_table]
        kb = block.shape[1]
        halves = np.zeros((kb, 32, width), dtype=np.uint8)
        halves[:, :, :n] = NIBBLE_ROWS.take(block.T, axis=1).transpose(1, 0, 2)
        h = halves.view(np.uint64)
        table = np.repeat(h[:, 16:], 16, axis=1).reshape(kb, 16, 16, -1)
        table ^= h[:, None, :16]  # [p, hi, lo] = a[:, p] * (hi << 4 | lo)
        table = table.view(np.uint8).reshape(kb * 256, width)
        offsets = np.arange(0, 256 * kb, 256)[:, None]
        for c in range(0, length, 256):
            part = b[p0 : p0 + kb, c : c + 256]
            span = part.shape[1]
            rows = rows_buf[: kb * span * width].reshape(kb, span, width)
            table.take(offsets + part, axis=0, out=rows, mode="clip")  # "clip": no copy
            if p0:
                words[c : c + span] ^= np.bitwise_xor.reduce(rows.view(np.uint64), axis=0)
            else:
                np.bitwise_xor.reduce(rows.view(np.uint64), axis=0, out=words[c : c + span])
    return np.ascontiguousarray(out[:, :n].T)
