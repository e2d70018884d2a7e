"""Tabular channel-BER input.

The raw bit error rate of the main lane is not modelled here; it is
ingested as a CSV table with header ``channel_id,modulation,distance_cm,p_e``
holding one curve per (channel, modulation) pair, sampled at distances
increasing by more than 1e-9 cm. Lookups match within 1e-9 cm by default;
linear interpolation between neighbouring distances is available behind a
flag. One bisection of the curve finds the match or the segment.

``load_builtin_table()`` builds a synthetic fixture so sweeps and demos run
out of the box (``ber_table = builtin`` in a scenario): four curves of the
form

    p_e(d) = p0 * exp((d_cm - d_cross) / 1000)

on a 200..2000 cm grid at 50 cm steps, where p0 = 0.8 * 29 / 240 is the
correction-budget threshold of the default configuration (K=30, s=8, code
rate 0.8), so each curve starts needing redundancy at the first grid point
past its d_cross. The fixture is synthetic and qualitative only (monotone in
distance, worse for higher modulation levels and for channel C); it is not
measured data.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass

HEADER = ("channel_id", "modulation", "distance_cm", "p_e")

_DISTANCE_TOL = 1e-9


class BerTableError(ValueError):
    """Malformed or inconsistent BER table input."""


class BadPointError(BerTableError):
    """Point ``index`` of the input breaks ``problem``; the message says where."""

    def __init__(self, index: int, problem: str, at: str):
        super().__init__(f"{problem} at {at}")
        self.index, self.problem = index, problem


@dataclass(frozen=True)
class BerPoint:
    channel: str
    modulation: str
    distance_cm: float
    bit_error_rate: float


class BerTable:
    """Validated set of BER curves, keyed by (channel, modulation)."""

    def __init__(self, points: list[BerPoint]):
        if not points:
            raise BerTableError("empty table")
        groups: dict[tuple[str, str], list[BerPoint]] = {}
        for i, p in enumerate(points):
            if not math.isfinite(p.distance_cm):
                at = f"({p.channel}, {p.modulation}, p_e {p.bit_error_rate})"
                raise BadPointError(i, f"distance_cm {p.distance_cm} is not finite", at)
            if not 0 <= p.bit_error_rate <= 1:
                at = f"({p.channel}, {p.modulation}, {p.distance_cm} cm)"
                raise BadPointError(i, f"p_e {p.bit_error_rate} out of [0, 1]", at)
            groups.setdefault((p.channel, p.modulation), []).append(p)
        for key, rows in groups.items():
            for a, b in zip(rows, rows[1:]):
                if b.distance_cm - a.distance_cm <= _DISTANCE_TOL:
                    raise BerTableError(
                        f"distances not strictly increasing by more than {_DISTANCE_TOL} cm "
                        f"for {key}: {a.distance_cm} then {b.distance_cm}"
                    )
        self._groups = {key: tuple(rows) for key, rows in groups.items()}
        self.points = list(points)

    def groups(self) -> list[tuple[str, str]]:
        return sorted(self._groups)

    def curve(self, channel: str, modulation: str) -> tuple[BerPoint, ...]:
        try:
            return self._groups[(channel, modulation)]
        except KeyError:
            raise BerTableError(
                f"no rows for channel {channel!r} modulation {modulation!r}"
            ) from None

    def lookup(
        self,
        channel: str,
        modulation: str,
        distance_cm: float,
        interpolate: bool = False,
    ) -> float:
        """BER at one distance: exact grid match, or linear if asked."""
        if not math.isfinite(distance_cm):
            raise BerTableError(f"distance {distance_cm} cm is not finite")
        rows = self.curve(channel, modulation)
        # the first point not below distance_cm by more than 1e-9 cm, keyed on the
        # difference as the match test is: distance_cm +- 1e-9 can round onto a point
        i = bisect_left(rows, -_DISTANCE_TOL, key=lambda p: p.distance_cm - distance_cm)
        if i < len(rows) and rows[i].distance_cm - distance_cm <= _DISTANCE_TOL:
            return rows[i].bit_error_rate
        if not interpolate:
            raise BerTableError(
                f"no table point at {distance_cm} cm for ({channel}, {modulation}); "
                "rerun with interpolation enabled or adjust the sweep grid"
            )
        if i in (0, len(rows)):
            raise BerTableError(
                f"{distance_cm} cm outside the tabulated range "
                f"[{rows[0].distance_cm}, {rows[-1].distance_cm}] for ({channel}, {modulation})"
            )
        a, b = rows[i - 1], rows[i]
        frac = (distance_cm - a.distance_cm) / (b.distance_cm - a.distance_cm)
        return a.bit_error_rate + frac * (b.bit_error_rate - a.bit_error_rate)


def parse_ber_table(text: str, source: str = "<string>") -> BerTable:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise BerTableError(f"{source}: empty table")
    if tuple(h.strip() for h in rows[0]) != HEADER:
        raise BerTableError(
            f"{source}: header must be {','.join(HEADER)}, got {','.join(rows[0])}"
        )
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise BerTableError(f"{source}: row {lineno}: expected 4 fields, got {len(row)}")
        channel, modulation = row[0].strip(), row[1].strip()
        try:
            distance = float(row[2])
            ber = float(row[3])
        except ValueError as exc:
            raise BerTableError(f"{source}: row {lineno}: {exc}") from None
        points.append(BerPoint(channel, modulation, distance, ber))
    try:  # BerTable checks each point; point i is row i + 2
        return BerTable(points)
    except BadPointError as exc:
        raise BerTableError(f"{source}: row {exc.index + 2}: {exc.problem}") from None
    except BerTableError as exc:
        raise BerTableError(f"{source}: {exc}") from None


def load_ber_table(path) -> BerTable:
    with open(path, "r", encoding="utf-8") as f:
        return parse_ber_table(f.read(), source=str(path))


def save_ber_table(table: BerTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(HEADER) + "\n")
        for p in table.points:
            f.write(f"{p.channel},{p.modulation},{p.distance_cm!r},{p.bit_error_rate!r}\n")


# Threshold BER below which the default configuration needs no redundancy.
_P_ANCHOR = 0.8 * 29 / 240.0

_BUILTIN_CROSSINGS_CM = {
    # (channel, modulation): distance (cm) where the curve crosses _P_ANCHOR
    ("B", "16PSK"): 640.0,
    ("B", "8PSK"): 740.0,
    ("C", "16PSK"): 490.0,
    ("C", "8PSK"): 590.0,
}


def load_builtin_table() -> BerTable:
    """The synthetic fixture: 4 closed-form curves on 200..2000 cm, 50 cm steps."""
    points = []
    for (channel, modulation), d_cross in sorted(_BUILTIN_CROSSINGS_CM.items()):
        for i in range(37):
            d = 200.0 + i * 50.0
            p_e = min(1.0, _P_ANCHOR * math.exp((d - d_cross) / 1000.0))
            points.append(BerPoint(channel, modulation, d, p_e))
    return BerTable(points)
