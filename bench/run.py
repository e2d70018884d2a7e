"""twolane benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload simulate-erasure --seed 1 --seconds 28 --trace 0

The run imports twolane from ``src/`` of the checkout it sits in, measures
the CLI cold start in fresh interpreters, then repeats the workload in
rounds for ``--seconds`` and checks every round's output. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` alternates untraced rounds
with rounds that record spans around twolane's public functions, and
reports the per-layer metrics and the tracing overhead. Human-readable
``name value unit`` lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (quartiles, samples, provenance, the
per-layer table) goes to ``bench/out/``, and a traced run also writes its
spans there.

Exit codes: 0 after a completed run (even with failed operations), 1 when
the run cannot start or a hook the checks rely on is gone, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import HookLost, Tracer, instrument, summarize, write_spans
from workloads import WORKLOADS, Round

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SCENARIO = ROOT / "scenarios" / "channel_b_16psk.scn"
# Timed cold-start launches per run, after one untimed launch that fills the
# bytecode and page caches.
SETUP_LAUNCHES = 9
REGION_BYTES = 1024
# Traced rounds stop once this many spans are held in memory.
MAX_SPANS = 300_000
SETUP_PARTS = ("cli.import_s", "scenario.load_s", "bertable.load_s")
# The benchmark process itself stays single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_twolane():
    """Import twolane from this checkout's ``src``, never from elsewhere."""
    package = SRC / "twolane"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no twolane sources at {package}")
    sys.path.insert(0, str(SRC))
    import twolane
    import twolane.cli  # noqa: F401  (loads every layer the workloads reach)

    if Path(twolane.__file__).resolve().parent != package.resolve():
        raise BenchError(f"twolane imported from {twolane.__file__}, not {package}")
    return twolane


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tenth_percentile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[0]


def measure_setup(env: dict) -> tuple[list[float], dict[str, list[float]]]:
    """Wall time of fresh ``twolane`` cold starts, and their three parts."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SETUP_SCENARIO)]
    walls: list[float] = []
    parts: dict[str, list[float]] = {name: [] for name in SETUP_PARTS}
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr.strip()}")
        probe = json.loads(done.stdout)
        if Path(probe["module"]).resolve().parent != (SRC / "twolane").resolve():
            raise BenchError(f"set-up probe imported twolane from {probe['module']}")
        if launch == 0:
            continue
        walls.append(wall)
        for name in SETUP_PARTS:
            parts[name].append(probe[name])
    return walls, parts


def region_mb_per_s(twolane, rng: random.Random) -> list[float]:
    """Throughput samples of ``MUL[c, region]`` on a 1 KiB region, in MB/s."""
    import numpy as np

    gen = np.random.default_rng(rng.randrange(2**31))
    region = gen.integers(0, 256, REGION_BYTES, dtype=np.uint8)
    coeffs = gen.integers(1, 256, 2000).tolist()
    mul = twolane.gf256.MUL
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        for c in coeffs:
            mul[c, region]
        samples.append(REGION_BYTES * len(coeffs) / (time.perf_counter() - start) / 1e6)
    return samples


class Tally:
    """Runs rounds, counting attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, seed: int) -> Round:
        start = time.perf_counter()
        try:
            result = self.workload.round(seed)
        except HookLost:
            raise
        except Exception:  # a raising call fails every operation of its round
            self.problems.append(traceback.format_exc(limit=4))
            ops = self.workload.ops_per_round
            result = Round(ops, ops, time.perf_counter() - start)
        self.attempted += result.ops
        self.failed += result.failed
        return result


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(twolane, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "src_twolane_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "twolane").rglob("*.py"))
        ),
        "platform": platform.platform(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, base_env: dict) -> dict:
    """Run one workload; returns the result record written to ``bench/out``."""
    twolane = import_twolane()
    why, factory = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    env = dict(base_env, PYTHONPATH=str(SRC))
    setup_walls, setup_parts = measure_setup(env)

    rng = random.Random(seed)
    record: dict = {"workload": name, "why": why, "seconds": seconds, "trace": int(trace)}
    samples: dict[str, list[float]] = {"setup_s": setup_walls}
    metrics: dict[str, tuple[float, str]] = {}
    plain: list[float] = []  # ops/s of each untraced round
    traced: list[float] = []  # ops/s of each traced round
    tracer = Tracer()
    timed = traced_wall = 0.0  # traced rounds: inside twolane calls, and in all
    with contextlib.ExitStack() as stack:
        workload = factory(twolane, stack, str(ROOT), str(OUT))
        tally = Tally(workload)
        tally.round(rng.randrange(2**31))  # warm-up: checked, not timed
        deadline = time.perf_counter() + seconds
        while not plain or (trace and not traced) or time.perf_counter() < deadline:
            round_seed = rng.randrange(2**31)
            # A traced run alternates untraced and traced rounds, so drift in
            # machine speed affects both sides of the overhead ratio alike.
            if not (trace and len(traced) < len(plain)):
                result = tally.round(round_seed)
                plain.append(result.ops / result.seconds)
                continue
            with contextlib.ExitStack() as hooks:
                instrument(hooks, tracer, twolane)
                start = time.perf_counter()
                result = tally.round(round_seed)
                traced_wall += time.perf_counter() - start
            traced.append(result.ops / result.seconds)
            timed += result.seconds
            if len(tracer.spans) >= MAX_SPANS:
                break
    samples["ops_per_s"] = plain
    record["params"] = workload.params
    record["op"] = workload.op

    ops_per_s = statistics.median(plain)
    if trace:
        summary = summarize(tracer, traced_wall, timed)
        samples["traced_ops_per_s"] = traced
        samples["gf256.region_mb_per_s"] = region_mb_per_s(twolane, rng)
        samples.update(setup_parts)
        metrics.update(summary["metrics"])
        metrics["gf256.region_mb_per_s"] = (
            statistics.median(samples["gf256.region_mb_per_s"]),
            "MB/s",
        )
        for part in SETUP_PARTS:
            metrics[part] = (statistics.median(setup_parts[part]), "s")
        metrics["trace.overhead"] = (ops_per_s / statistics.median(traced), "ratio")
        spans_file = OUT / f"{name}-seed{seed}.spans.jsonl"
        write_spans(tracer, spans_file)
        record["layers"] = summary["layers"]
        record["spans"] = {"file": spans_file.name, "count": len(tracer.spans)}
    else:
        # This host's speed drifts by up to 2x over seconds; the slow tenth of
        # rounds varies far less from run to run than the median does.
        metrics["ops_per_s_p10"] = (tenth_percentile(plain), "1/s")
        metrics["setup_s"] = (statistics.median(setup_walls), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB on Linux
            "MB",
        )

    error_rate = tally.failed / tally.attempted
    record.update(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "error_rate": error_rate,
            "problems": tally.problems[:5],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": {
                "error_rate": {"value": error_rate, "unit": "ratio"},
                ("gen_per_s" if workload.op == "generation" else "points_per_s"): {
                    "value": ops_per_s,
                    "unit": "1/s",
                },
            },
            "samples": {
                key: {
                    "count": len(vals),
                    "median": statistics.median(vals),
                    "quartiles": quartiles(vals),
                    "values": vals,
                }
                for key, vals in samples.items()
            },
            "provenance": provenance(twolane, seed),
        }
    )
    result_file = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    record["result_file"] = os.path.relpath(result_file, ROOT)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    base_env = dict(os.environ)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), base_env)
    except (BenchError, HookLost, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for key, metric in {**record["metrics"], **record["extra"]}.items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    for layer, row in record.get("layers", {}).items():
        print(f"layer {layer} calls {row['calls']} total_s {row['total_s']!r} self_s {row['self_s']!r}")
    print(f"rounds {record['samples']['ops_per_s']['count']}  result {record['result_file']}")
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
