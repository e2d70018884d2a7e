"""Shared reference oracles for the test suite.

The GF(2^8) reference here is deliberately independent of the library's
table-based implementation: carry-less polynomial multiply followed by
explicit modular reduction, no lookup tables. The planning reference,
``reference_chain``, writes the paper's chain out in one function.
"""

import math

import numpy as np

REDUCTION_POLY = 0x11B


def gf_mul_ref(a: int, b: int, poly: int = REDUCTION_POLY) -> int:
    """Brute-force field product: carry-less multiply, then reduce."""
    prod = 0
    for i in range(8):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(15, 7, -1):
        if (prod >> bit) & 1:
            prod ^= poly << (bit - 8)
    return prod


# Every product a * b, tabulated from the brute-force product, and a matrix
# product built on it alone: one lookup per (row, coefficient, byte), then the XOR.
REF_MUL = np.array([[gf_mul_ref(a, b) for b in range(256)] for a in range(256)], dtype=np.uint8)


def matmul_ref(a, b):
    return np.bitwise_xor.reduce(REF_MUL[a[:, :, None], b[None, :, :]], axis=1)


def gf_inv_ref(a: int) -> int:
    """Exhaustive-search inverse against the brute-force product."""
    for x in range(1, 256):
        if gf_mul_ref(a, x) == 1:
            return x
    raise ValueError(f"no inverse found for {a}")


def not_full_rank_rate(k: int, p_erase: float, r: int, q: int = 256) -> float:
    """Pr[at most r of k natives are erased, yet the system is not full rank].

    With m <= r natives erased, the r coded payloads' coefficients on the m
    missing natives form a uniform random r x m matrix over GF(q), which has
    rank m with probability prod_{i<m} (1 - q^(i-r)) (Trullols-Cruces,
    Barcelo-Ordinas and Fiore, IEEE Commun. Lett. 2011). The simulator counts
    these draws as decode failures on top of the binomial tail Pr[m > r].
    """
    rate = 0.0
    for m in range(min(k, r) + 1):
        full_rank = math.prod(1 - q ** (i - r) for i in range(m))
        rate += math.comb(k, m) * p_erase**m * (1 - p_erase) ** (k - m) * (1 - full_rank)
    return rate


LIGHT_SPEED = 3e8  # m/s, the propagation speed the model fixes for both lanes


def reference_chain(k, s, code_rate, p_e, main_rate=None, main_distance=0.0, aux_distance=0.0):
    """The planning chain written out, each formula in the operation order the package
    documents, so that its floats equal the package's bit for bit.

    Returns (d, t, P_b, P_s, R, R_T, theta) and, given a main_rate, these followed by
    (bound, C_aux, T_main, T_aux), where C_aux, T_main and T_aux are None when the
    auxiliary distance is not strictly below the bound.
    """
    bits = k * s
    raw = bits / code_rate - bits
    near = round(raw)
    d = near if abs(raw - near) < 1e-9 else math.floor(raw)
    t = max(0, (d - 2) // 2) if d % 2 == 0 else (d - 1) // 2
    pb = max(0.0, (bits * p_e - code_rate * t) / bits)
    ps = 1.0 - (1.0 - pb) ** s
    raw_r = ps * k
    near_r = round(raw_r)
    r = near_r if abs(raw_r - near_r) < 1e-9 else math.ceil(raw_r)
    rt = code_rate * k / (k + r)
    chain = (d, t, pb, ps, r, rt, 1.0 - rt)
    if main_rate is None:
        return chain
    c = LIGHT_SPEED
    bound = k * s * c / (code_rate * main_rate) + main_distance
    denom = code_rate * main_rate * (main_distance - aux_distance) + c * k * s
    if denom <= 0:
        return (*chain, bound, None, None, None)
    rate = r * s * c * main_rate / denom if r else 0.0
    t_main = k * s / (code_rate * main_rate) + main_distance / c
    t_aux = r * s / (code_rate * rate) + aux_distance / c if r else 0.0
    return (*chain, bound, rate, t_main, t_aux)


def scenario_text(
    channel: str = "B",
    modulation: str = "16PSK",
    d_start: float = 200,
    d_stop: float = 2000,
    d_step: float = 50,
    aux_policy: str = "fixed",
    aux_cm: float | None = 150,
    main_rate: float = 8e11,
    seed: int = 7,
    extra: str = "",
) -> str:
    lines = [
        "K = 30",
        "s = 8",
        "fec_code_rate = 0.8",
        f"channel = {channel}",
        f"modulation = {modulation}",
        f"main_rate_bps = {main_rate!r}",
        f"d_main_start_cm = {d_start}",
        f"d_main_stop_cm = {d_stop}",
        f"d_main_step_cm = {d_step}",
        f"d_aux_policy = {aux_policy}",
        f"seed = {seed}",
    ]
    if aux_policy == "fixed" and aux_cm is not None:
        lines.append(f"d_aux_cm = {aux_cm}")
    if extra:
        lines.append(extra)
    return "\n".join(lines) + "\n"
