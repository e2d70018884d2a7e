"""A scalar reference simulator, the differential oracle for ``sim.run``.

``reference_run`` is written from the stream contract in ``sim.py``'s docstring
and README "Simulator notes", not from the simulator's code. It reads only
``SimConfig`` fields and keeps its own copy of the contract's chunk size. Its
field arithmetic is ``bytes.translate`` on product tables built from
``gf_mul_ref`` and a scalar Gauss-Jordan elimination on Python lists; it uses
numpy only to draw from the documented streams.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolane import planner, sim
from twolane.fec import FecParams
from twolane.planner import LinkParams
from twolane.sim import SimConfig, SimReport

from conftest import gf_mul_ref

GENERATIONS_PER_STREAM = 16  # the stream contract's chunk size

# SCALE[c] is a bytes.translate table: byte v becomes c * v
SCALE = [bytes(gf_mul_ref(c, v) for v in range(256)) for c in range(256)]
INVERSE = [0] + [SCALE[a].index(1) for a in range(1, 256)]


def xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def survivor_rows(cfg: SimConfig, rng, g: int, k: int) -> list[list[bool]]:
    """Per generation of a chunk, which natives survive the main lane."""
    if cfg.error_mode == "analytic-erasure":
        p = cfg.plan.fec.residual_ser
        return [[u >= p for u in row] for row in rng.random((g, k)).tolist()]
    s, ber = cfg.link.fec.s, cfg.link.fec.bit_error_rate
    flips = [[u < ber for u in row] for row in rng.random((g, k * s)).tolist()]
    keys = rng.random((g, k * s)).tolist()
    product = cfg.link.fec.code_rate * cfg.plan.fec.correctable_bits
    budget = math.floor(round(product) if abs(product - round(product)) < 1e-9 else product)
    rows = []
    for flip, key in zip(flips, keys):
        flipped = sorted((bit for bit in range(k * s) if flip[bit]), key=key.__getitem__)
        left = set(flipped[budget:])  # the smallest keys are corrected
        rows.append([left.isdisjoint(range(i * s, (i + 1) * s)) for i in range(k)])
    return rows


def solve(rows: list[list[int]], rhs: list[bytes], m: int) -> list[bytes] | None:
    """Gauss-Jordan over GF(2^8): the m unknowns, or None when the rank is below m."""
    for col in range(m):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = SCALE[INVERSE[rows[col][col]]]
        rows[col] = [inv[v] for v in rows[col]]
        rhs[col] = rhs[col].translate(inv)
        for i, row in enumerate(rows):
            if i != col and row[col]:
                f = SCALE[row[col]]
                rows[i] = [v ^ f[p] for v, p in zip(row, rows[col])]
                rhs[i] = xor(rhs[i], rhs[col].translate(f))
    return rhs[:m]


def reference_run(cfg: SimConfig, reshape=lambda coeffs: coeffs) -> SimReport:
    """The SimReport of ``cfg``; ``reshape`` maps the drawn coefficient array first."""
    k, r = cfg.link.fec.k, cfg.plan.redundancy
    n, length = cfg.generations, cfg.payload_len

    def stream(key):
        seq = np.random.SeedSequence(cfg.rng_seed, spawn_key=(cfg.distance_index, key))
        return np.random.default_rng(seq)

    coeffs = reshape(stream(0).integers(0, 256, size=(k, r), dtype=np.uint8)).tolist()
    report = SimReport(sent_generations=n)
    erased = 0
    for chunk, first in enumerate(range(0, n, GENERATIONS_PER_STREAM)):
        rng = stream(1 + chunk)
        g = min(GENERATIONS_PER_STREAM, n - first)
        natives = rng.integers(0, 256, size=(g, k, length), dtype=np.uint8)
        for payloads, alive in zip(natives, survivor_rows(cfg, rng, g, k)):
            sent = [p.tobytes() for p in payloads]
            received = sum(alive) + r
            erased += k - sum(alive)
            report.received_histogram[received] = report.received_histogram.get(received, 0) + 1
            if received < k:
                report.insufficient_failures += 1
                continue
            coded = [bytes(length)] * r
            for i, native in enumerate(sent):
                coded = [xor(v, native.translate(SCALE[c])) for v, c in zip(coded, coeffs[i])]
            # equation j: the missing natives' terms of coded j = coded j + the survivors' terms
            missing = [i for i in range(k) if not alive[i]]
            rhs = list(coded)
            for i in range(k):
                if alive[i]:
                    rhs = [xor(v, sent[i].translate(SCALE[c])) for v, c in zip(rhs, coeffs[i])]
            solution = solve([[coeffs[i][j] for i in missing] for j in range(r)], rhs, len(missing))
            if solution is None:
                report.singular_failures += 1
                continue
            report.decoded_generations += 1
            decoded = list(sent)
            for i, payload in zip(missing, solution):
                decoded[i] = payload
            report.payload_mismatches += decoded != sent
    report.decode_failure_rate = (report.insufficient_failures + report.singular_failures) / n
    report.symbol_erasure_rate = erased / (k * n)
    return report


def forced_config(k, r, s, ber, code_rate, correctable, ps, **run):
    """A SimConfig whose plan is forced to redundancy r, P_s ps and the given budget."""
    link = LinkParams(
        fec=FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=ber),
        main_rate=8e11,
        main_distance=6.5,
        aux_distance=1.5,
    )
    lp = planner.plan(link)
    fec = dataclasses.replace(lp.fec, residual_ser=ps, correctable_bits=correctable)
    return SimConfig(link=link, plan=dataclasses.replace(lp, fec=fec, redundancy=r), **run)


@st.composite
def configs(draw):
    k, s = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    mode = draw(st.sampled_from(sim.ERROR_MODES))
    # bit-level draws favour more flips than the budget corrects, where the
    # choice of which flips to correct decides the erasures
    ber = draw(st.floats(0.02, 0.5))
    return forced_config(
        k,
        draw(st.integers(0, 9)),
        s,
        ber,
        draw(st.sampled_from((0.5, 0.8, 1.0))),
        draw(st.integers(0, max(0, int(k * s * ber)))),
        draw(st.floats(0.0, 1.0)),
        generations=draw(st.integers(1, 40)),
        rng_seed=draw(st.sampled_from((0, 2**32 + 7, 2**64 - 1)) | st.integers(0, 2**64 - 1)),
        error_mode=mode,
        payload_len=draw(st.sampled_from((1, 2, 3, 8))),
        distance_index=draw(st.integers(0, 5)),
    ), draw(st.integers(0, 3)) == 0


def sparse(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients mostly zero, so that rank-deficient systems are common."""
    out = np.where(coeffs > 3, 0, coeffs).astype(np.uint8)
    out.flags.writeable = False
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(configs())
# the long payloads of the nibble path, across a chunk boundary, at the extreme seeds
@example((forced_config(9, 9, 8, 0.2, 0.8, 5, 0.4, generations=17, payload_len=256), False))
@example((forced_config(9, 9, 8, 0.3, 0.8, 4, 0.4, generations=17, payload_len=300,
                        rng_seed=2**64 - 1, error_mode="bit-level", distance_index=3), False))
@example((forced_config(9, 6, 8, 0.2, 0.8, 5, 0.4, generations=33, payload_len=1,
                        rng_seed=2**32 + 7), True))
# 1 KiB payloads at R = K = 9: encode blocks that stack several generations, across a
# chunk boundary, and a last block of two
@example((forced_config(9, 9, 8, 0.2, 0.8, 5, 0.4, generations=18, payload_len=1024,
                        rng_seed=2**64 - 1, distance_index=1), False))
def test_run_matches_the_scalar_reference(case):
    cfg, rank_deficient = case
    if not rank_deficient:
        assert sim.run(cfg) == reference_run(cfg)
        return
    real = sim.make_coefficients
    with pytest.MonkeyPatch.context() as mp:  # both sides get the same mostly-zero matrix
        mp.setattr(sim, "make_coefficients", lambda k, r, seed: sparse(real(k, r, seed)))
        assert sim.run(cfg) == reference_run(cfg, sparse)
