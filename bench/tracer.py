"""In-memory span tracing around twolane's public functions.

Nothing inside ``src/twolane`` is instrumented. ``instrument`` replaces each
public function under the name its caller looks it up by (for example
``twolane.sim.decode``, which ``sim.run`` calls) with a wrapper that records
one span per call: name, start, end, parent span and an optional info dict.
Spans stay in memory until the run ends; ``summarize`` then derives the
per-layer counts, total and self times, and ``write_spans`` dumps them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# Decode spans are bucketed by the number of native symbols lost on the main
# lane; the edges follow the regimes of the shipped scenario (no loss, a few,
# around the headline R=18, and beyond it).
LOST_BUCKETS = (("0", 0, 0), ("1-5", 1, 5), ("6-15", 6, 15), ("16-plus", 16, None))


class HookLost(RuntimeError):
    """A function the benchmark hooks is gone or no longer sees its calls."""


def patch(stack: contextlib.ExitStack, owner, attr: str, new) -> None:
    """Set ``owner.attr = new`` until ``stack`` closes; the attribute must exist."""
    if attr not in vars(owner):
        raise HookLost(f"{getattr(owner, '__name__', owner)}.{attr} is gone; cannot hook it")
    old = vars(owner)[attr]
    setattr(owner, attr, new)
    stack.callback(setattr, owner, attr, old)


class Tracer:
    """Records spans as tuples (name, start, end, parent index, info)."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.elimination_steps = 0

    def wrap(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``info(args, kwargs, result)`` may return a dict stored with the span;
        ``result`` is None when the call raised.
        """
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    info(args, kwargs, result) if info else None,
                )

        return traced


def instrument(stack: contextlib.ExitStack, tracer: Tracer, twolane) -> None:
    """Hook every traced layer of ``twolane`` until ``stack`` closes."""
    scenario, sim, planner = twolane.scenario, twolane.sim, twolane.planner
    DecodeStats = twolane.codec.DecodeStats

    def rows_written(args, kwargs, result):
        return {"rows": len(args[0])}

    def rows_read(args, kwargs, result):
        return {"rows": len(result) if result is not None else 0}

    def points_planned(args, kwargs, result):
        return {"points": sum(map(len, result)) if result is not None else 0}

    def generations_run(args, kwargs, result):
        return {"generations": args[0].generations}

    def encoded(args, kwargs, result):
        return {"gid": args[0].generation_id}

    def decoded(args, kwargs, result):
        received, k = args[0], args[2]
        lost = k - sum(1 for e in received.entries if e.kind == "native")
        return {"gid": received.generation_id, "lost": lost, "ok": result is not None}

    real_decode = sim.decode

    def decode_counting_steps(received, coeffs, k, stats=None):
        stats = DecodeStats() if stats is None else stats
        before = stats.elimination_steps
        try:
            return real_decode(received, coeffs, k, stats)
        finally:
            tracer.elimination_steps += stats.elimination_steps - before

    hooks = (
        (scenario, "simulate", "scenario.simulate", None),
        (scenario, "sweep", "scenario.sweep", points_planned),
        (scenario, "write_sim_csv", "scenario.csv_write", rows_written),
        (scenario, "write_sweep_csv", "scenario.csv_write", rows_written),
        (scenario, "read_sweep_csv", "scenario.csv_read", rows_read),
        (scenario, "run", "sim.run", generations_run),
        (scenario, "plan", "planner.plan", None),
        (sim, "run", "sim.run", generations_run),
        (sim, "encode", "codec.encode", encoded),
        (sim, "erase_symbols", "sim.sample", None),
        (sim, "corrupt_bits", "sim.sample", None),
        (planner, "plan", "planner.plan", None),
        (planner, "derive", "fec.derive", None),
        (twolane.bertable.BerTable, "lookup", "bertable.lookup", None),
    )
    for owner, attr, name, info in hooks:
        patch(stack, owner, attr, tracer.wrap(name, vars(owner)[attr], info))
    patch(stack, sim, "decode", tracer.wrap("codec.decode", decode_counting_steps, decoded))


def _self_times(spans) -> list[float]:
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [end - start - child for (_, start, end, _, _), child in zip(spans, child_total)]


def summarize(tracer: Tracer, traced_wall_s: float, timed_s: float) -> dict:
    """Per-layer metrics from the recorded spans.

    ``traced_wall_s`` is the wall time of the traced rounds and ``timed_s``
    the part of it spent inside the timed workload calls; shares are taken
    of ``timed_s``.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    units: dict[str, int] = defaultdict(int)  # rows, points or generations
    bucket_calls: dict[str, int] = defaultdict(int)
    bucket_time: dict[str, float] = defaultdict(float)
    decodes_ok = 0
    encoded_gids: dict[int, set] = defaultdict(set)
    decoded_gids: dict[int, set] = defaultdict(set)
    for (name, start, end, parent, info), self_s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if not info:
            continue
        for key in ("rows", "points", "generations"):
            units[name] += info.get(key, 0)
        if name == "codec.encode":
            encoded_gids[parent].add(info["gid"])
        elif name == "codec.decode":
            lost = info["lost"]
            label = next(b for b, lo, hi in LOST_BUCKETS if lo <= lost and (hi is None or lost <= hi))
            bucket_calls[label] += 1
            bucket_time[label] += end - start
            if info["ok"]:
                decodes_ok += 1
                decoded_gids[parent].add(info["gid"])
    useful_encodes = sum(len(encoded_gids[p] & decoded_gids[p]) for p in encoded_gids)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    def us_per_call(name: str) -> float:
        return per(total[name], calls[name], 1e6)

    metrics = {
        "codec.encode.calls": (calls["codec.encode"], "count"),
        "codec.encode.us_per_call": (us_per_call("codec.encode"), "us"),
        "codec.encode.share": (per(own["codec.encode"], timed_s), "ratio"),
        "codec.encode.useful_ratio": (per(useful_encodes, calls["codec.encode"]), "ratio"),
        "codec.decode.calls": (calls["codec.decode"], "count"),
        "codec.decode.us_per_call": (us_per_call("codec.decode"), "us"),
        "codec.decode.share": (per(own["codec.decode"], timed_s), "ratio"),
        "codec.decode.useful_ratio": (per(decodes_ok, calls["codec.decode"]), "ratio"),
        "codec.decode.elimination_steps": (tracer.elimination_steps, "count"),
    }
    for label, _, _ in LOST_BUCKETS:
        metrics[f"codec.decode.us_lost_{label}"] = (
            per(bucket_time[label], bucket_calls[label], 1e6),
            "us",
        )
    metrics.update(
        {
            "sim.sample.us_per_call": (us_per_call("sim.sample"), "us"),
            "sim.run.gen_per_s": (per(units["sim.run"], total["sim.run"]), "1/s"),
            "sim.run.self_share": (per(own["sim.run"], timed_s), "ratio"),
            "bertable.lookup.us_per_call": (us_per_call("bertable.lookup"), "us"),
            "planner.plan.us_per_call": (us_per_call("planner.plan"), "us"),
            "fec.derive.us_per_call": (us_per_call("fec.derive"), "us"),
            "scenario.sweep.us_per_point": (
                per(total["scenario.sweep"], units["scenario.sweep"], 1e6),
                "us",
            ),
            "scenario.csv_write.us_per_row": (
                per(total["scenario.csv_write"], units["scenario.csv_write"], 1e6),
                "us",
            ),
            "scenario.csv_read.us_per_row": (
                per(total["scenario.csv_read"], units["scenario.csv_read"], 1e6),
                "us",
            ),
            "trace.accounted_share": (per(sum(selfs), traced_wall_s), "ratio"),
        }
    )
    layers = {
        name: {"calls": calls[name], "total_s": total[name], "self_s": own[name]}
        for name in sorted(calls)
    }
    return {"metrics": metrics, "layers": layers}


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: name, start_s, end_s, parent index, info."""
    with open(path, "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span, separators=(",", ":")) + "\n")
