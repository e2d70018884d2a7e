"""Scenario files, distance sweeps, Monte Carlo binding and CSV output.

A scenario is a plain-text ``key = value`` file ('#' starts a comment).
Schema (distances in centimetres, converted to metres internally):

    K = 30                      symbols per generation
    s = 8                       bits per symbol
    fec_code_rate = 0.8         FEC code rate, in (0, 1]
    channel = B                 BER-table channel id
    modulation = 16PSK          BER-table modulation id
    main_rate_bps = 8e11        main-lane bit rate; alternatively give
    # baud_rate = 2e11            baud_rate and bits_per_symbol and the
    # bits_per_symbol = 4         rate is their product
    d_main_start_cm = 200       sweep grid over the main-lane distance
    d_main_stop_cm = 2000
    d_main_step_cm = 50
    d_aux_policy = fixed        'fixed' (needs d_aux_cm) or 'equal_to_main'
    d_aux_cm = 150              only with 'fixed'
    ber_table = path.csv        optional; CLI --ber-table overrides; the
                                special value 'builtin' selects the built-in
                                synthetic fixture
    output = out.csv            optional; CLI --out overrides
    seed = 7                    optional, default 0, below 2**64

Sweep output is a CSV with exactly the header

    d_main_cm,p_e,P_b,P_s,R,R_T,theta,C_aux_bps,T_main_s,T_aux_s

one row per feasible grid distance. A grid point whose auxiliary distance
breaks the feasibility bound, or whose matched auxiliary rate underflows to 0,
becomes a recorded row error and the sweep continues. Floats are serialised
with repr() so files re-parse to identical values.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, index
from typing import get_type_hints

from .bertable import BerTable, rewrite
from .fec import FecParams, check_probability, check_seed, is_integer, snap
from .planner import (
    InfeasiblePointError, LinkParams, grid_kernel, main_rate_from_baud, plan,
)

AUX_POLICIES = ("fixed", "equal_to_main")

# A mistyped d_main_step_cm should fail at parse time, not build millions of points.
MAX_GRID_POINTS = 100_000


class ScenarioError(ValueError):
    """Malformed or incomplete scenario input."""


@dataclass(frozen=True)
class Scenario:
    k: int
    s: int
    code_rate: float
    channel: str
    modulation: str
    main_rate: float  # bits/s
    d_start_cm: float
    d_stop_cm: float
    d_step_cm: float
    aux_policy: str  # 'fixed' | 'equal_to_main'
    aux_distance_cm: float | None = None
    ber_table: str | None = None
    output: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.aux_policy not in AUX_POLICIES:
            raise ScenarioError(f"d_aux_policy must be one of {AUX_POLICIES}")
        if self.aux_policy == "fixed" and self.aux_distance_cm is None:
            raise ScenarioError("d_aux_policy 'fixed' requires d_aux_cm")
        if self.aux_policy == "equal_to_main" and self.aux_distance_cm is not None:
            raise ScenarioError("d_aux_cm is only allowed with d_aux_policy 'fixed'")
        for name in ("d_start_cm", "d_stop_cm", "d_step_cm"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{_FIELD_KEYS[name]} must be finite, got {getattr(self, name)!r}")
        if self.d_step_cm <= 0:
            raise ScenarioError("d_main_step_cm must be > 0")
        if self.d_stop_cm < self.d_start_cm:
            raise ScenarioError("d_main_stop_cm must be >= d_main_start_cm")
        n = self.grid_size()
        if n > MAX_GRID_POINTS:
            raise ScenarioError(
                f"d_main_step_cm = {self.d_step_cm!r} gives {n} grid points, cap {MAX_GRID_POINTS}"
            )
        # the seed, FecParams and LinkParams rules, checked once here; name the key, not the field
        try:
            check_seed("seed", self.seed)
            self.link_for(self.d_start_cm, 0.0)
        except ValueError as exc:
            field, _, rule = str(exc).partition(" ")
            raise ScenarioError(f"{_FIELD_KEYS.get(field, field)} {rule}") from None

    def grid_size(self) -> int | float:
        """Number of grid distances; inf when the span over the step overflows."""
        steps = (self.d_stop_cm - self.d_start_cm) / self.d_step_cm
        return math.floor(snap(steps)) + 1 if math.isfinite(steps) else math.inf

    def distances_cm(self) -> list[float]:
        return [self.d_start_cm + i * self.d_step_cm for i in range(self.grid_size())]

    def lane_distances(self, d_main_cm: float) -> tuple[float, float]:
        """The main- and auxiliary-lane distances in metres at main distance ``d_main_cm``."""
        aux_cm = d_main_cm if self.aux_policy == "equal_to_main" else self.aux_distance_cm
        return d_main_cm / 100.0, aux_cm / 100.0

    def link_for(self, d_main_cm: float, bit_error_rate: float) -> LinkParams:
        main_distance, aux_distance = self.lane_distances(d_main_cm)
        return LinkParams(
            fec=FecParams(
                k=self.k,
                s=self.s,
                code_rate=self.code_rate,
                bit_error_rate=bit_error_rate,
            ),
            main_rate=self.main_rate,
            main_distance=main_distance,
            aux_distance=aux_distance,
        )


def _parse(key: str, value: str, kind: type) -> str | float | int:
    """``value`` as text (str), a finite number (float) or a whole number (int)."""
    if not value:
        raise ScenarioError(f"key {key!r}: empty value")
    if kind is str:
        return value
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ScenarioError(f"key {key!r}: not a finite number: {value!r}")
    if kind is int and x != int(x):
        raise ScenarioError(f"key {key!r}: not a whole number: {value!r}")
    if kind is int and value.removeprefix("-").isdecimal():
        return int(value)  # exact past 2**53, where x is rounded
    return kind(x)


# key: (Scenario field it sets, value kind for _parse, required). baud_rate and
# bits_per_symbol set no field of their own: their product is main_rate.
_KEYS = {
    "K": ("k", int, True),
    "s": ("s", int, True),
    "fec_code_rate": ("code_rate", float, True),
    "channel": ("channel", str, True),
    "modulation": ("modulation", str, True),
    "main_rate_bps": ("main_rate", float, False),
    "baud_rate": (None, float, False),
    "bits_per_symbol": (None, int, False),
    "d_main_start_cm": ("d_start_cm", float, True),
    "d_main_stop_cm": ("d_stop_cm", float, True),
    "d_main_step_cm": ("d_step_cm", float, True),
    "d_aux_policy": ("aux_policy", str, True),
    "d_aux_cm": ("aux_distance_cm", float, False),
    "ber_table": ("ber_table", str, False),
    "output": ("output", str, False),
    "seed": ("seed", int, False),
}
# field -> the key that sets it, for errors; the LinkParams distances come from these keys
_FIELD_KEYS = {field: key for key, (field, _, _) in _KEYS.items() if field} | {
    "main_distance": "d_main_start_cm",
    "aux_distance": "d_aux_cm",
}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ScenarioError(f"{source}: line {lineno}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ScenarioError(f"{source}: line {lineno}: unknown key {key!r}")
        values[key] = value

    missing = [key for key, (_, _, required) in _KEYS.items() if required and key not in values]
    if missing:
        raise ScenarioError(f"{source}: missing keys: {', '.join(missing)}")
    if "main_rate_bps" in values:
        if "baud_rate" in values or "bits_per_symbol" in values:
            raise ScenarioError(
                f"{source}: give either main_rate_bps or baud_rate + bits_per_symbol, not both"
            )
    elif "baud_rate" not in values or "bits_per_symbol" not in values:
        raise ScenarioError(
            f"{source}: main-lane rate missing: main_rate_bps or baud_rate + bits_per_symbol"
        )
    try:
        kwargs = {}
        for key, value in values.items():  # file order: the first bad value is reported
            field, kind, _ = _KEYS[key]
            kwargs[field or key] = _parse(key, value, kind)
        if "baud_rate" in kwargs:
            kwargs["main_rate"] = main_rate_from_baud(
                kwargs.pop("baud_rate"), kwargs.pop("bits_per_symbol")
            )
        return Scenario(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse a scenario file.

    A relative ber_table path (other than the special value 'builtin') is
    resolved against the scenario file's directory.
    """
    with open(path, "r", encoding="utf-8") as f:
        sc = parse_scenario(f.read(), source=str(path))
    if sc.ber_table and sc.ber_table != "builtin" and not os.path.isabs(sc.ber_table):
        sc = replace(sc, ber_table=os.path.join(os.path.dirname(os.path.abspath(path)), sc.ber_table))
    return sc


def _csv_layout(row_type) -> tuple[tuple[str, ...], attrgetter]:
    """A row type's CSV header, one column per field in order ("csv" metadata, else the
    field's name), and the getter of a row's cells."""
    fs = fields(row_type)
    return tuple(f.metadata.get("csv", f.name) for f in fs), attrgetter(*(f.name for f in fs))


@dataclass(frozen=True)
class SweepRow:
    d_main_cm: float
    p_e: float
    p_residual_bit: float = field(metadata={"csv": "P_b"})
    p_residual_symbol: float = field(metadata={"csv": "P_s"})
    redundancy: int = field(metadata={"csv": "R"})
    total_rate: float = field(metadata={"csv": "R_T"})
    overhead: float = field(metadata={"csv": "theta"})
    aux_rate_bps: float = field(metadata={"csv": "C_aux_bps"})
    t_main_s: float = field(metadata={"csv": "T_main_s"})
    t_aux_s: float = field(metadata={"csv": "T_aux_s"})


SWEEP_COLUMNS, _sweep_values = _csv_layout(SweepRow)
_SWEEP_TYPES = tuple(get_type_hints(SweepRow)[f.name] for f in fields(SweepRow))


@dataclass(frozen=True)
class RowError:
    d_main_cm: float
    message: str


def _plans(sc: Scenario, table: BerTable, interpolate: bool, errors: list[RowError], plan_point):
    """The grid walk: yield ``(grid index, d, p_e, plan_point(d, p_e))`` for each feasible
    grid distance, in order, and append a RowError to ``errors`` for each distance where
    ``plan_point`` raises InfeasiblePointError. ``sweep`` plans each point with one
    ``planner.grid_kernel`` and calls no ``plan``; ``simulate`` calls ``plan`` through the
    module global, so a caller can wrap or replace ``scenario.plan`` to see every call of a
    simulation."""
    for i, d in enumerate(sc.distances_cm()):
        p_e = table.lookup(sc.channel, sc.modulation, d, interpolate=interpolate)
        try:
            planned = plan_point(d, p_e)
        except InfeasiblePointError as exc:
            errors.append(RowError(d_main_cm=d, message=str(exc)))
            continue
        yield i, d, p_e, planned


def sweep(
    sc: Scenario, table: BerTable, interpolate: bool = False
) -> tuple[list[SweepRow], list[RowError]]:
    """Plan every grid distance; infeasible points become recorded errors.

    One ``planner.grid_kernel`` plans the whole grid: the scenario fixes the link
    shape, and ``__post_init__`` has checked its rules and every grid distance's, so
    each point checks only its p_e, as FecParams would, and builds only its SweepRow.
    """
    _, _, point = grid_kernel(sc.k, sc.s, sc.code_rate, sc.main_rate)

    def plan_point(d, p_e):
        check_probability("bit_error_rate", p_e)
        return point(p_e, *sc.lane_distances(d))

    errors: list[RowError] = []
    planned = _plans(sc, table, interpolate, errors, plan_point)
    rows = [SweepRow(d, p_e, *values) for _, d, p_e, values in planned]
    return rows, errors


def _format(value) -> str:
    """An integer (Python or numpy, not a bool) in decimal, any other number as a float."""
    if type(value) is float:  # most cells: checked first
        return repr(value)
    return str(index(value)) if is_integer(value) else repr(float(value))


def write_rows_csv(path_or_file, columns, rows_of_values) -> None:
    is_file = hasattr(path_or_file, "write")
    with nullcontext(path_or_file) if is_file else rewrite(path_or_file) as f:
        f.write(",".join(columns) + "\n")
        for values in rows_of_values:
            f.write(",".join(map(_format, values)) + "\n")


def write_sweep_csv(rows: list[SweepRow], path_or_file) -> None:
    write_rows_csv(path_or_file, SWEEP_COLUMNS, map(_sweep_values, rows))


def read_sweep_csv(path) -> list[SweepRow]:
    with open(path, "r", encoding="utf-8") as f:
        lines = [(n, ln) for n, ln in enumerate(f.read().splitlines(), start=1) if ln]
    if not lines or tuple(lines[0][1].split(",")) != SWEEP_COLUMNS:
        raise ScenarioError(f"{path}: not a sweep CSV")
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ScenarioError(
                f"{path}: line {lineno}: expected {len(SWEEP_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            values = [convert(v) for convert, v in zip(_SWEEP_TYPES, parts)]
            row = SweepRow(*values)
            if row.redundancy < 0 or not all(map(math.isfinite, values)):
                raise ValueError(f"R must be >= 0 and every value finite, got {ln!r}")
        except (ValueError, OverflowError) as exc:  # isfinite overflows on an R past 1e308
            raise ScenarioError(f"{path}: line {lineno}: {exc}") from None
        rows.append(row)
    return rows


def classify_aux_technology(rate_bps: float) -> str:
    """Coarse technology label for an auxiliary-lane rate.

    Brackets: 0 -> none, up to 600 Mbps -> WLAN-802.11n, up to 10 Gbps ->
    FSO, up to 100 Gbps -> fiber, above -> THz. The upper two edges are
    labelling conveniences to make the classification total, nothing more.
    """
    if not math.isfinite(rate_bps):
        raise ValueError(f"rate_bps must be finite, got {rate_bps!r}")
    if rate_bps < 0:
        raise ValueError("rate_bps must be >= 0")
    if rate_bps == 0:
        return "none"
    if rate_bps <= 600e6:
        return "WLAN-802.11n"
    if rate_bps <= 10e9:
        return "FSO"
    if rate_bps <= 100e9:
        return "fiber"
    return "THz"


@dataclass(frozen=True)
class SimRow:
    d_main_cm: float
    p_e: float
    p_residual_symbol: float = field(metadata={"csv": "P_s"})
    redundancy: int = field(metadata={"csv": "R"})
    generations: int
    decoded: int
    decode_failure_rate: float
    analytic_failure_rate: float
    observed_erasure_rate: float
    insufficient_failures: int
    singular_failures: int
    mean_lane_skew_s: float


SIM_COLUMNS, _sim_values = _csv_layout(SimRow)


def run(cfg):
    """``sim.run(cfg)``, importing the numpy-backed simulator on first use.

    Importing it here rather than at module level keeps numpy out of
    ``plan``, ``sweep`` and ``classify``. ``simulate`` calls this once per
    distance through the module global, so a caller can wrap or replace
    ``scenario.run`` to see every SimReport.
    """
    from . import sim

    return sim.run(cfg)


def simulate(
    sc: Scenario,
    table: BerTable,
    generations: int,
    mode: str = "analytic-erasure",
    interpolate: bool = False,
    seed: int | None = None,
) -> tuple[list[SimRow], list[RowError]]:
    """Monte Carlo per grid distance, next to the analytic predictions."""
    from .fec import binomial_tail_above  # bound here only: scenario does not re-export it
    from .sim import SimConfig, check_run_args

    check_run_args(generations, mode)
    if seed is not None:
        sc = replace(sc, seed=seed)
    per_run = {"generations": generations, "rng_seed": sc.seed, "error_mode": mode}

    def plan_point(d, p_e):  # SimConfig takes the link and its LinkPlan
        link = sc.link_for(d, p_e)
        return link, plan(link)

    rows: list[SimRow] = []
    errors: list[RowError] = []
    for i, d, p_e, (link, lp) in _plans(sc, table, interpolate, errors, plan_point):
        report = run(SimConfig(link=link, plan=lp, distance_index=i, **per_run))
        rows.append(
            SimRow(
                d_main_cm=d,
                p_e=p_e,
                p_residual_symbol=lp.fec.residual_ser,
                redundancy=lp.redundancy,
                generations=generations,
                decoded=report.decoded_generations,
                decode_failure_rate=report.decode_failure_rate,
                analytic_failure_rate=binomial_tail_above(
                    sc.k, lp.fec.residual_ser, lp.redundancy
                ),
                observed_erasure_rate=report.symbol_erasure_rate,
                insufficient_failures=report.insufficient_failures,
                singular_failures=report.singular_failures,
                mean_lane_skew_s=abs(lp.t_main - lp.t_aux) if lp.redundancy > 0 else 0.0,
            )
        )
    return rows, errors


def write_sim_csv(rows: list[SimRow], path_or_file) -> None:
    write_rows_csv(path_or_file, SIM_COLUMNS, map(_sim_values, rows))
