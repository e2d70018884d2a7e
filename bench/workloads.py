"""The benchmark's workloads and the output checks each one applies.

A workload is built once per run (loading its inputs, untimed) and then
called round after round with a fresh seed. ``round`` returns how many
operations it attempted, how many failed a check, and the seconds spent
inside the timed twolane calls. An operation is one simulated generation
or one planned grid point. Insufficient and singular decodes are channel
outcomes, not failures.

Every call into twolane goes through a module attribute (``scenario.sweep``,
``sim.run``, ...), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, fields, replace

from tracer import HookLost, patch

# Two-sided false-alarm probability of one erasure-rate check. A run checks
# at most a few thousand rows, so a correct simulator fails a run with
# probability below 1e-5.
ERASURE_ALPHA = 1e-9


@dataclass
class Round:
    ops: int
    failed: int
    seconds: float


def binomial_acceptance(n: int, p: float, alpha: float = ERASURE_ALPHA) -> tuple[int, int]:
    """Range [lo, hi] of Binomial(n, p) counts outside which lies at most alpha.

    Pr[X < lo] <= alpha/2 and Pr[X > hi] <= alpha/2, from the exact pmf.
    """
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return n, n
    lp, lq, ln = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    pmf = [
        math.exp(ln - math.lgamma(c + 1) - math.lgamma(n - c + 1) + c * lp + (n - c) * lq)
        for c in range(n + 1)
    ]
    acc, lo = 0.0, 0
    for c in range(n + 1):
        acc += pmf[c]
        if acc > alpha / 2:
            lo = c
            break
    acc, hi = 0.0, n
    for c in range(n, -1, -1):
        acc += pmf[c]
        if acc > alpha / 2:
            hi = c
            break
    return lo, hi


class ErasureBound:
    """Checks an observed erasure rate against the exact binomial range of P_s."""

    def __init__(self):
        self._ranges: dict[tuple[int, float], tuple[int, int]] = {}

    def holds(self, observed_rate: float, trials: int, p_erase: float) -> bool:
        key = (trials, p_erase)
        if key not in self._ranges:
            self._ranges[key] = binomial_acceptance(trials, p_erase)
        lo, hi = self._ranges[key]
        return lo <= round(observed_rate * trials) <= hi


class SimulateWorkload:
    """``scenario.simulate`` on a shipped scenario, then ``write_sim_csv`` to memory.

    A pass-through around ``twolane.scenario.run`` (one call per distance)
    keeps each SimReport, because ``simulate`` drops ``payload_mismatches``.
    """

    op = "generation"

    def __init__(self, twolane, stack, scenario_file, mode, generations):
        self.tl = twolane
        self.mode = mode
        self.generations = generations
        self.sc = twolane.scenario.load_scenario(scenario_file)
        self.table = twolane.bertable.load_builtin_table()
        self.points = len(self.sc.distances_cm())
        self.ops_per_round = self.points * generations
        self.bound = ErasureBound()
        self.reports: list = []
        real_run = getattr(twolane.scenario, "run", None)

        def keep_report(cfg):
            report = real_run(cfg)
            self.reports.append(report)
            return report

        patch(stack, twolane.scenario, "run", keep_report)
        defaults = {f.name: f.default for f in fields(twolane.sim.SimConfig)}
        self.params = {
            "scenario": os.path.basename(scenario_file),
            "mode": mode,
            "generations_per_distance": generations,
            "distances": self.points,
            "payload_len": defaults["payload_len"],
        }

    def round(self, seed: int) -> Round:
        scenario = self.tl.scenario
        ops = self.ops_per_round
        self.reports.clear()
        out = io.StringIO()
        start = time.perf_counter()
        rows, errors = scenario.simulate(
            self.sc, self.table, self.generations, mode=self.mode, seed=seed
        )
        scenario.write_sim_csv(rows, out)
        seconds = time.perf_counter() - start

        if len(self.reports) != len(rows):
            raise HookLost(
                f"twolane.scenario.run saw {len(self.reports)} calls for {len(rows)} "
                "rows; payload_mismatches can no longer be checked"
            )
        if len(rows) + len(errors) != self.points or out.getvalue().count("\n") != len(rows) + 1:
            return Round(ops, ops, seconds)
        # Every distance of the shipped scenarios is feasible, so a row error
        # fails that distance's generations.
        failed = self.generations * len(errors)
        trials = self.sc.k * self.generations
        for row, report in zip(rows, self.reports):
            bad = (
                row.generations != self.generations
                or row.decoded + row.insufficient_failures + row.singular_failures
                != row.generations
            )
            if self.mode == "analytic-erasure":
                bad = bad or not self.bound.holds(
                    row.observed_erasure_rate, trials, row.p_residual_symbol
                )
            failed += row.generations if bad else report.payload_mismatches
        return Round(ops, failed, seconds)


class BulkPayloadWorkload:
    """``sim.run`` at the README headline point with 1 KiB payloads."""

    op = "generation"
    # README headline link: K=30, s=8, R_F=0.8, raw BER 0.2 -> R=18, P_s~0.582.
    HEADLINE_R = 18

    def __init__(self, twolane, stack, generations, payload_len):
        self.tl = twolane
        self.generations = generations
        self.ops_per_round = generations
        self.payload_len = payload_len
        self.link = twolane.planner.LinkParams(
            fec=twolane.fec.FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=0.2),
            main_rate=8e11,
            main_distance=6.5,
            aux_distance=1.5,
        )
        self.bound = ErasureBound()
        self.params = {
            "mode": "analytic-erasure",
            "generations_per_round": generations,
            "payload_len": payload_len,
            "k": 30,
            "bit_error_rate": 0.2,
        }

    def round(self, seed: int) -> Round:
        tl = self.tl
        start = time.perf_counter()
        lp = tl.planner.plan(self.link)
        report = tl.sim.run(
            tl.sim.SimConfig(
                link=self.link,
                plan=lp,
                generations=self.generations,
                rng_seed=seed,
                payload_len=self.payload_len,
            )
        )
        seconds = time.perf_counter() - start

        g = self.generations
        k = self.link.fec.k
        bad = (
            lp.redundancy != self.HEADLINE_R
            or report.sent_generations != g
            or report.decoded_generations + report.insufficient_failures + report.singular_failures
            != g
            or not self.bound.holds(report.symbol_erasure_rate, k * g, lp.fec.residual_ser)
        )
        return Round(g, g if bad else report.payload_mismatches, seconds)


class SweepWorkload:
    """``scenario.sweep(interpolate=True)`` at a 0.5 cm step plus a CSV round trip.

    The seed shifts the grid start by a multiple of 1/64 cm below 0.5 cm, so
    every distance is exact in binary and stays inside the BER table.
    """

    op = "grid point"
    STEP_CM = 0.5

    def __init__(self, twolane, stack, scenario_file, csv_path):
        self.tl = twolane
        self.base = twolane.scenario.load_scenario(scenario_file)
        self.table = twolane.bertable.load_builtin_table()
        self.csv_path = csv_path
        self.ops_per_round = len(replace(self.base, d_step_cm=self.STEP_CM).distances_cm())
        stack.callback(self._remove_csv)
        self.params = {
            "scenario": os.path.basename(scenario_file),
            "step_cm": self.STEP_CM,
            "interpolate": True,
        }

    def _remove_csv(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)

    def round(self, seed: int) -> Round:
        scenario = self.tl.scenario
        offset = (seed % 32) / 64
        sc = replace(self.base, d_start_cm=self.base.d_start_cm + offset, d_step_cm=self.STEP_CM)
        points = int((sc.d_stop_cm - sc.d_start_cm) / self.STEP_CM) + 1
        start = time.perf_counter()
        rows, errors = scenario.sweep(sc, self.table, interpolate=True)
        scenario.write_sweep_csv(rows, self.csv_path)
        back = scenario.read_sweep_csv(self.csv_path)
        seconds = time.perf_counter() - start

        if len(rows) + len(errors) != points or len(back) != len(rows):
            return Round(points, points, seconds)
        failed = len(errors)  # the shipped scenario is feasible at every distance
        k, code_rate = sc.k, sc.code_rate
        for written, row in zip(rows, back):
            total_rate = code_rate * k / (k + row.redundancy)
            ok = (
                row == written
                # ceil with the planner's 1e-9 slack for float representation noise
                and row.redundancy == math.ceil(row.p_residual_symbol * k - 1e-9)
                and math.isclose(row.total_rate, total_rate, rel_tol=1e-12)
                and math.isclose(row.overhead, 1.0 - row.total_rate, rel_tol=1e-12)
                and (row.redundancy == 0 or math.isclose(row.t_main_s, row.t_aux_s, rel_tol=1e-9))
            )
            failed += not ok
        return Round(points, failed, seconds)


# name -> (why, factory(twolane, stack, root, out_dir))
WORKLOADS = {
    "simulate-erasure": (
        "scenario.simulate on channel_b_16psk.scn in analytic-erasure mode; "
        "the headline path, dominated by decode and per-generation overhead",
        lambda tl, stack, root, out: SimulateWorkload(
            tl, stack, os.path.join(root, "scenarios", "channel_b_16psk.scn"),
            "analytic-erasure", generations=10,
        ),
    ),
    "simulate-bitlevel": (
        "scenario.simulate on channel_b_16psk_equal_aux.scn in bit-level mode; "
        "measures the corrupt_bits sampler end to end",
        lambda tl, stack, root, out: SimulateWorkload(
            tl, stack, os.path.join(root, "scenarios", "channel_b_16psk_equal_aux.scn"),
            "bit-level", generations=10,
        ),
    ),
    "sim-bulk-payload": (
        "sim.run at the README headline point with 1 KiB payloads; "
        "GF(2^8) region multiplies dominate, not call overhead",
        lambda tl, stack, root, out: BulkPayloadWorkload(
            tl, stack, generations=25, payload_len=1024
        ),
    ),
    "sweep-dense": (
        "sweep with interpolation at a 0.5 cm step plus a CSV round trip; "
        "no codec or sim work, the control for codec and sim changes",
        lambda tl, stack, root, out: SweepWorkload(
            tl, stack, os.path.join(root, "scenarios", "channel_b_16psk.scn"),
            os.path.join(out, f"sweep-{os.getpid()}.csv"),
        ),
    ),
}
