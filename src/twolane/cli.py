"""Command line front end.

Subcommands:

    plan      one-point sweep at --d-main-cm -> one-row CSV; aux technology on stderr
    sweep     full distance sweep -> CSV
    simulate  Monte Carlo per distance -> CSV with analytic columns
    classify  auxiliary rate in bits/s -> technology label

Exit codes: 0 success, 1 a usage error or invalid or unreadable input, 2 when
every requested point is infeasible (aux distance past the delay-matching bound).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bertable import load_ber_table, load_builtin_table
from .fec import ERROR_MODES
from .scenario import (
    ScenarioError,
    classify_aux_technology,
    load_scenario,
    simulate,
    sweep,
    write_sim_csv,
    write_sweep_csv,
)


def _path(value: str) -> str:
    """An option's path, which must not be empty: "" would fall back to the scenario's."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario file (key = value format)")
    p.add_argument(
        "--ber-table", type=_path, help="BER table CSV; overrides the scenario's ber_table"
    )
    p.add_argument("--out", type=_path, help="output CSV path; overrides the scenario's output")
    p.add_argument(
        "--interpolate",
        action="store_true",
        help="linearly interpolate BER between tabulated distances",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolane", description="Two-lane erasure-coded link toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a single grid point")
    _add_scenario_args(p_plan)
    p_plan.add_argument(
        "--d-main-cm",
        type=float,
        help="main-lane distance to plan (default: the sweep start)",
    )

    p_sweep = sub.add_parser("sweep", help="plan every distance in the scenario grid")
    _add_scenario_args(p_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo runs per grid distance")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument(
        "--generations", type=int, default=1000, help="generations per distance"
    )
    p_sim.add_argument(
        "--mode", choices=ERROR_MODES, default="analytic-erasure", help="error model"
    )

    p_cls = sub.add_parser("classify", help="label an auxiliary rate")
    p_cls.add_argument("rate_bps", type=float, help="auxiliary-lane rate in bits/s")

    return parser


def _load_inputs(args):
    sc = load_scenario(args.scenario)
    table_path = sc.ber_table if args.ber_table is None else args.ber_table
    if table_path is None:
        raise ScenarioError("no BER table: give --ber-table or a ber_table scenario key")
    if table_path == "builtin":
        return sc, load_builtin_table()
    return sc, load_ber_table(table_path)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error, which is 1 here
        return min(exc.code, 1)
    try:
        if args.command == "classify":
            print(classify_aux_technology(args.rate_bps))
            return 0

        sc, table = _load_inputs(args)
        out_path = sc.output if args.out is None else args.out
        if args.command == "plan":
            d = sc.d_start_cm if args.d_main_cm is None else args.d_main_cm
            sc = replace(sc, d_start_cm=d, d_stop_cm=d)

        if args.command == "simulate":
            rows, errors = simulate(
                sc,
                table,
                generations=args.generations,
                mode=args.mode,
                interpolate=args.interpolate,
                seed=args.seed,
            )
            write_csv = write_sim_csv
        else:
            rows, errors = sweep(sc, table, interpolate=args.interpolate)
            write_csv = write_sweep_csv
        for e in errors:
            print(f"warning: d_main={e.d_main_cm} cm skipped: {e.message}", file=sys.stderr)
        if not rows and errors:
            print("error: every sweep point is infeasible", file=sys.stderr)
            return 2
        if out_path:
            write_csv(rows, out_path)
            print(f"wrote {len(rows)} rows to {out_path}")
        else:
            write_csv(rows, sys.stdout)
        if args.command == "plan":
            label = classify_aux_technology(rows[0].aux_rate_bps)
            print(f"aux technology: {label}", file=sys.stderr)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
