"""Monte Carlo simulator of the two-lane generation pipeline.

Each generation's K random native payloads go on the lossy main lane and
its R coded payloads on the auxiliary lane (error-free by assumption, as is
cross-lane interference); the receiver decodes from the surviving natives
plus every coded payload. Two main-lane error models:

  analytic-erasure  each native is erased i.i.d. with the plan's residual
                    symbol error probability.
  bit-level         each of the K*s bits flips i.i.d. with the raw BER; the
                    run computes the FEC budget floor(code_rate *
                    correctable_bits) once, and ``corrupt_bits`` spends it per
                    generation on a uniformly random subset of the flips (each
                    bit draws a key, the smallest keys win); a symbol still
                    holding a flip is erased. Correcting by position instead
                    would bias the erasure count well below the analytic model.

Streams: every draw of a run comes from ``SeedSequence(rng_seed)`` by spawn
key, ``(distance_index, 0)`` for the coefficients and ``(distance_index,
1 + c)`` for chunk c, the generations CHUNK*c to CHUNK*(c + 1) - 1. A chunk
draws, in this order, its (G, K, L) natives, then either the (G, K) erasure
uniforms or the (G, K*s) flip uniforms and (G, K*s) correction keys; the
natives as 32-bit words, the bytes and state of a uint8 draw (``draw_natives``).
Seeds are below 2**64, so no two (seed, distance, chunk) keys share a stream.

A generation gets its surviving natives and all R coded payloads, so one
with fewer than K is counted insufficient from the survivor mask alone, and
one that lost no native is counted decoded from it; neither is encoded or
decoded. The others are encoded in blocks, one ``Generation`` whose payload i
stacks payload i of up to BLOCK_BYTES // L of them (at least one), and decoded one
by one. The receive buffer is unbounded; the symbols received per generation are
only reported, as a histogram.

A run row-reduces the coefficients it draws, once, right after the draw
(``codec.row_reduce``), and encodes and decodes with that echelon form E.
The draw and its stream are unchanged. E.T is T C.T for an invertible T, so
for every set M of lost natives rank(E[M]) = rank(C[M]): each generation is
decodable, insufficient or singular, with the same rank, exactly as under C,
and a full-rank system has one solution, the natives sent. Under E a lost
native that is a pivot column costs its decode no elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import itemgetter

import numpy as np

from .codec import (
    Generation,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
    decode,
    encode,
    make_coefficients,
    row_reduce,
)
from .fec import ERROR_MODES, _correction_budget, check_count, check_probability, check_seed, snap
from .planner import LinkParams, LinkPlan

CHUNK = 16  # generations per random stream; part of the stream contract
# bytes per native stacked in one encode (or one payload, if longer); bounds its product's
# memory, (R + 8) * K * BLOCK_BYTES bytes in the byte gather that takes R < 8 coded payloads
BLOCK_BYTES = 3072


def check_run_args(generations, error_mode, rng_seed=0, payload_len=1, distance_index=0) -> None:
    """Reject a count that is not an integer >= its least value or a bad seed, then a mode."""
    check_count("generations", generations, 1)
    check_seed("rng_seed", rng_seed)
    check_count("payload_len", payload_len, 1)
    check_count("distance_index", distance_index, 0)
    if error_mode not in ERROR_MODES:
        raise ValueError(f"error_mode must be one of {ERROR_MODES}")


@dataclass(frozen=True)
class SimConfig:
    link: LinkParams
    plan: LinkPlan
    generations: int
    rng_seed: int = 0
    error_mode: str = "analytic-erasure"
    payload_len: int = 8  # bytes per simulated symbol payload
    distance_index: int = 0  # first spawn-key word of every stream of the run

    def __post_init__(self):
        check_run_args(
            self.generations, self.error_mode, self.rng_seed, self.payload_len, self.distance_index
        )


@dataclass
class SimReport:
    sent_generations: int = 0
    decoded_generations: int = 0
    insufficient_failures: int = 0
    singular_failures: int = 0
    decode_failure_rate: float = 0.0
    symbol_erasure_rate: float = 0.0  # observed on the main lane
    received_histogram: dict[int, int] = field(default_factory=dict)
    payload_mismatches: int = 0  # decoded generations differing from ground truth


def erase_symbols(g: int, k: int, p_erase: float, rng: np.random.Generator) -> np.ndarray:
    """(g, k) survivor mask: each main-lane symbol is erased i.i.d. with prob p_erase."""
    check_probability("p_erase", p_erase)
    return rng.random((g, k)) >= p_erase


def corrupt_bits(g, k, s, bit_error_rate, budget, rng) -> np.ndarray:
    """(g, k) survivor mask: draw the (g, k*s) flip uniforms and correction keys, clear
    per row the min(flips, budget) flipped bits with the smallest keys, and erase each
    symbol still flipped. Uniform keys make the cleared bits a uniform subset of the flips."""
    check_probability("bit_error_rate", bit_error_rate)
    flips = rng.random((g, k * s)) < bit_error_rate
    keys = rng.random((g, k * s))
    b = min(budget, k * s)
    if b > 0:
        ranked = np.argpartition(np.where(flips, keys, 2.0), b - 1, axis=1)[:, :b]
        np.put_along_axis(flips, ranked, False, axis=1)
    return ~flips.reshape(g, k, s).any(axis=2)


def draw_natives(g: int, k: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.integers(0, 256, (g, k, length), dtype=np.uint8)``, drawn as it draws it: the
    bytes, low first, of ceil(g * k * length / 4) uint32 words, about 1.5x as fast at 1 KiB."""
    words = rng.integers(0, 2**32, -(-g * k * length // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[: g * k * length].reshape(g, k, length)


def run(cfg: SimConfig) -> SimReport:
    """Simulate cfg.generations independent generations end to end."""
    fec, k, r = cfg.link.fec, cfg.link.fec.k, cfg.plan.redundancy
    n, length = int(cfg.generations), int(cfg.payload_len)
    seed, distance = int(cfg.rng_seed), int(cfg.distance_index)
    streams = (np.random.SeedSequence(seed, spawn_key=(distance, key)) for key in count())
    coeffs = row_reduce(make_coefficients(k, r, seed=next(streams)))
    # bit-level only
    budget = math.floor(snap(_correction_budget(fec.code_rate, cfg.plan.fec.correctable_bits)))
    per_block = max(1, BLOCK_BYTES // length)
    report = SimReport(sent_generations=n)
    histogram = report.received_histogram

    for first, stream in zip(range(0, n, CHUNK), streams):
        rng = np.random.default_rng(stream)
        g = min(CHUNK, n - first)
        natives = draw_natives(g, k, length, rng)
        if cfg.error_mode == "analytic-erasure":
            alive = erase_symbols(g, k, cfg.plan.fec.residual_ser, rng)
        else:
            alive = corrupt_bits(g, k, fec.s, fec.bit_error_rate, budget, rng)
        lost = k - np.count_nonzero(alive, axis=1)
        for total in (k + r - lost).tolist():  # every coded payload arrives
            histogram[total] = histogram.get(total, 0) + 1
        # the rest lost more than R natives and cannot decode, or lost none and need not
        kept = np.flatnonzero((lost > 0) & (lost <= r))
        intact = int(np.count_nonzero(lost == 0))
        report.decoded_generations += intact
        report.insufficient_failures += g - intact - len(kept)

        for b0 in range(0, len(kept), per_block):
            block = kept[b0 : b0 + per_block].tolist()
            # at their final size, from a list or a star-unpack, as codec.encode builds its rows
            stacked = tuple([p.tobytes() for p in natives[block].transpose(1, 0, 2)])
            coded = encode(Generation(symbols=stacked, generation_id=first + block[0]), coeffs)
            for b, (i, row) in enumerate(zip(block, alive[block].tolist())):
                cut = itemgetter(slice(b * length, (b + 1) * length))
                sent = (*map(cut, stacked),)
                # tuple.__new__ builds each ReceivedSymbol without a Python-level call
                natives_in = zip(repeat("native"), compress(range(k), row), compress(sent, row))
                coded_in = zip(repeat("coded"), range(r), map(cut, coded))
                entries = (
                    *map(tuple.__new__, repeat(ReceivedSymbol), natives_in),
                    *map(tuple.__new__, repeat(ReceivedSymbol), coded_in),
                )
                try:
                    out = decode(ReceivedGeneration(entries, first + i), coeffs, k)
                except SingularSystemError:
                    report.singular_failures += 1
                else:
                    report.decoded_generations += 1
                    if out.symbols != sent:
                        report.payload_mismatches += 1
            del stacked, coded, coded_in  # coded_in's map holds coded; free them before the next encode

    erased = n * (k + r) - sum(total * times for total, times in histogram.items())
    report.decode_failure_rate = (report.insufficient_failures + report.singular_failures) / n
    report.symbol_erasure_rate = erased / (k * n)
    return report
