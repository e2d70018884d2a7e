"""Walkthrough: field arithmetic and the systematic coding layer.

Encodes one generation of K native payloads into K + R symbols, knocks a
few natives out, and recovers them from the coded symbols on the side.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from twolane import codec, gf256

print("=" * 72)
print("GF(2^8) BASICS")
print("=" * 72)
print(f"reduction polynomial: 0x{gf256.POLY:X}, table generator: 0x{gf256.GENERATOR:02X}")
print(f"0x53 + 0xCA = 0x{0x53 ^ 0xCA:02X}   (XOR)")
print(f"0x53 * 0xCA = 0x{gf256.MUL[0x53, 0xCA]:02X}   (MUL, the 256x256 product table)")
print(f"inv(0x53)   = 0x{gf256.INV_LIST[0x53]:02X}   (INV_LIST; so 0xCA is the inverse of 0x53)")

K, R, PAYLOAD = 6, 3, 8
rng = np.random.default_rng(42)

print()
print("=" * 72)
print(f"ENCODING ONE GENERATION (K={K} natives, R={R} coded, {PAYLOAD}-byte payloads)")
print("=" * 72)

gen = codec.Generation(
    symbols=tuple(rng.integers(0, 256, PAYLOAD, dtype=np.uint8).tobytes() for _ in range(K)),
    generation_id=0,
)
coeffs = codec.make_coefficients(K, R, seed=7)
coded = codec.encode(gen, coeffs)

for i, payload in enumerate(gen.symbols):
    print(f"  native[{i}] = {payload.hex()}")
for j, payload in enumerate(coded):
    column = [f"{c:02x}" for c in coeffs[:, j]]
    print(f"  coded[{j}]  = {payload.hex()}   (column {' '.join(column)})")
print(f"coefficients: a read-only {coeffs.shape} {coeffs.dtype} array; natives go out unchanged")

print()
print("=" * 72)
print("ERASING NATIVES AND DECODING")
print("=" * 72)

erased = {1, 4}
print(f"main lane loses natives {sorted(erased)}; auxiliary delivers all {R} coded symbols")
entries = [
    codec.ReceivedSymbol("native", i, gen.symbols[i]) for i in range(K) if i not in erased
]
entries += [codec.ReceivedSymbol("coded", j, p) for j, p in enumerate(coded)]

stats = codec.DecodeStats()
out = codec.decode(codec.ReceivedGeneration(tuple(entries)), coeffs, K, stats=stats)
print(f"decode recovered the generation: {out.symbols == gen.symbols}")
print(f"field row operations spent: {stats.elimination_steps}")

print()
print("with zero erasures the decoder just forwards the natives:")
entries_all = [codec.ReceivedSymbol("native", i, gen.symbols[i]) for i in range(K)]
stats_noop = codec.DecodeStats()
codec.decode(codec.ReceivedGeneration(tuple(entries_all)), coeffs, K, stats=stats_noop)
print(f"field row operations spent: {stats_noop.elimination_steps}")

print()
print("too few symbols, and the failure says so:")
short = codec.ReceivedGeneration(tuple(entries_all[: K - R - 1]))
try:
    codec.decode(short, coeffs, K)
except codec.InsufficientSymbolsError as exc:
    print(f"  InsufficientSymbolsError: {exc}")
