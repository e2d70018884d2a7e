"""Walkthrough: from channel BER to a delay-matched two-lane plan.

Runs the analytic chain (FEC correction budget -> residual BER/SER ->
redundancy -> combined rate/overhead -> auxiliary rate and lane timing)
for the default configuration K=30, s=8, code rate 0.8, and shows how the
plan reacts as the channel degrades. ``fec.derive`` gives the FEC stages,
``planner.plan`` the whole chain, and ``planner.aux_distance_bound`` the
one stage quantity a plan does not hold.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twolane import fec, planner
from twolane.fec import FecParams
from twolane.planner import LinkParams

K, S, RATE = 30, 8, 0.8
MAIN_RATE = 8e11  # bits/s
D_MAIN, D_AUX = 6.5, 1.5  # metres

print("=" * 72)
print(f"FEC CORRECTION BUDGET (K={K}, s={S}, code rate {RATE})")
print("=" * 72)
base = FecParams(k=K, s=S, code_rate=RATE, bit_error_rate=0.2)
derived = fec.derive(base)
d, t = derived.hamming_distance, derived.correctable_bits
threshold = RATE * t / (K * S)
print(f"minimum Hamming distance: {d} bits")
print(f"correctable bits per generation block: {t}")
print(f"channel BER threshold below which nothing is erased: {threshold:.7f}")

print()
print("=" * 72)
print("THE CHAIN AS THE CHANNEL DEGRADES")
print("=" * 72)
header = f"{'p_e':>7} {'P_b':>9} {'P_s':>9} {'R':>3} {'R_T':>7} {'theta':>7} {'C_aux (bps)':>13}"
print(header)
print("-" * len(header))
for ber in (0.02, 0.05, 0.09, 0.10, 0.12, 0.15, 0.20, 0.30):
    link = LinkParams(
        fec=FecParams(k=K, s=S, code_rate=RATE, bit_error_rate=ber),
        main_rate=MAIN_RATE,
        main_distance=D_MAIN,
        aux_distance=D_AUX,
    )
    lp = planner.plan(link)
    print(
        f"{ber:7.3f} {lp.fec.residual_ber:9.5f} {lp.fec.residual_ser:9.5f} "
        f"{lp.redundancy:3d} {lp.total_rate:7.4f} {lp.overhead:7.4f} {lp.aux_rate:13.4e}"
    )

print()
print("=" * 72)
print("DELAY MATCHING AND THE AUXILIARY DISTANCE BOUND")
print("=" * 72)
link = LinkParams(
    fec=base, main_rate=MAIN_RATE, main_distance=D_MAIN, aux_distance=D_AUX
)
lp = planner.plan(link)
print(f"at p_e = {base.bit_error_rate}: R = {lp.redundancy}, C_aux = {lp.aux_rate:.4e} bps")
print(f"t_main = {lp.t_main:.6e} s")
print(f"t_aux  = {lp.t_aux:.6e} s   (difference {abs(lp.t_main - lp.t_aux):.2e} s)")
print(f"auxiliary distance must stay below {planner.aux_distance_bound(link):.4f} m")

print()
print("with equal lane distances the matched rate no longer depends on distance:")
for d_main in (2.0, 6.5, 20.0):
    eq = LinkParams(fec=base, main_rate=MAIN_RATE, main_distance=d_main, aux_distance=d_main)
    rate = planner.plan(eq).aux_rate
    print(f"  d_main = d_aux = {d_main:5.1f} m -> C_aux = {rate:.6e} bps"
          f"  (= main_rate * R / K = {MAIN_RATE * lp.redundancy / K:.6e})")

print()
print("pushing the auxiliary lane past the bound fails loudly:")
try:
    planner.plan(LinkParams(fec=base, main_rate=MAIN_RATE, main_distance=1.0, aux_distance=2.0))
except planner.InfeasibleAuxDistanceError as exc:
    print(f"  InfeasibleAuxDistanceError: {exc}")
