"""CLI cold-start probe, run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py SCENARIO_FILE  (with twolane importable)

Times the three set-up parts of a ``twolane`` command and prints them as
one JSON object, with the path twolane was imported from.
"""

import json
import sys
import time

t0 = time.perf_counter()
import twolane.cli  # noqa: E402

t1 = time.perf_counter()
twolane.scenario.load_scenario(sys.argv[1])
t2 = time.perf_counter()
twolane.bertable.load_builtin_table()
t3 = time.perf_counter()
print(
    json.dumps(
        {
            "cli.import_s": t1 - t0,
            "scenario.load_s": t2 - t1,
            "bertable.load_s": t3 - t2,
            "module": twolane.__file__,
        }
    )
)
