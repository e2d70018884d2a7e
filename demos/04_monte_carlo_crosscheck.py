"""Walkthrough: Monte Carlo simulation against the analytic predictions.

Three cross-checks on the two-lane simulator:
  1. observed main-lane erasure rate vs the residual symbol error rate,
  2. decode failure rate vs the exact binomial tail when redundancy is
     deliberately set too low,
  3. bit-level error model vs the expectation-level erasure chain.
"""

import dataclasses
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from twolane import fec, planner, sim
from twolane.fec import FecParams, binomial_tail_above
from twolane.planner import LinkParams

GENERATIONS = 5000
link = LinkParams(
    fec=FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=0.2),
    main_rate=8e11,
    main_distance=6.5,
    aux_distance=1.5,
)
lp = planner.plan(link)

print("=" * 72)
print("1. EROSION OF THE MAIN LANE (analytic-erasure mode)")
print("=" * 72)
report = sim.run(sim.SimConfig(link=link, plan=lp, generations=GENERATIONS, rng_seed=1))
print(f"analytic residual SER:    {lp.fec.residual_ser:.5f}")
print(f"observed erasure rate:    {report.symbol_erasure_rate:.5f}")
print(f"decoded generations:      {report.decoded_generations}/{GENERATIONS}"
      f"  (R = {lp.redundancy} covers the mean, not the tail)")
print(f"payload mismatches:       {report.payload_mismatches}")
print(f"lane skew of the plan:    {abs(lp.t_main - lp.t_aux):.2e} s (delay-matched)")

print()
print("=" * 72)
print("2. UNDER-PROVISIONED REDUNDANCY vs BINOMIAL TAIL")
print("=" * 72)
rate3 = planner.aux_rate(link, 3)
t_main, t_aux = planner.lane_times(link, 3, rate3)
forced = dataclasses.replace(
    lp,
    fec=dataclasses.replace(lp.fec, residual_ser=0.2),
    redundancy=3,
    aux_rate=rate3,
    t_main=t_main,
    t_aux=t_aux,
)
report = sim.run(sim.SimConfig(link=link, plan=forced, generations=GENERATIONS, rng_seed=2))
tail = binomial_tail_above(30, 0.2, 3)
sigma = math.sqrt(tail * (1 - tail) / GENERATIONS)
print("erasure probability forced to 0.2, redundancy forced to R = 3")
print(f"analytic failure floor Pr[Bin(30, 0.2) > 3]: {tail:.5f}")
print(f"observed decode failure rate:                {report.decode_failure_rate:.5f}"
      f"  ({report.insufficient_failures} insufficient, {report.singular_failures} singular)")
print(f"difference: {abs(report.decode_failure_rate - tail):.5f}  (3 sigma = {3 * sigma:.5f})")

print()
print("=" * 72)
print("3. BIT-LEVEL ERROR MODEL vs EXPECTATION-LEVEL CHAIN")
print("=" * 72)
derived = fec.derive(link.fec)
rng = np.random.default_rng(3)
trials = 20000
batches = (sim.corrupt_bits(2000, 30, 8, 0.2, 29, 0.8, rng) for _ in range(trials // 2000))
mean = 30 - sum(int(alive.sum()) for alive in batches) / trials
target = 30 * derived.residual_ser
print(f"bits flipped at p_e = 0.2, budget floor(0.8 * 29) = 23 corrected per generation")
print(f"analytic mean erased symbols (K * P_s): {target:.3f}")
print(f"simulated mean over {trials} generations:  {mean:.3f}"
      f"  ({100 * (mean - target) / target:+.2f}%)")
print()
print("full pipeline in bit-level mode:")
report = sim.run(
    sim.SimConfig(link=link, plan=lp, generations=2000, rng_seed=4, error_mode="bit-level")
)
print(f"observed erasure rate:  {report.symbol_erasure_rate:.4f}"
      f"  (analytic {lp.fec.residual_ser:.4f})")
print(f"decoded generations:    {report.decoded_generations}/2000")
