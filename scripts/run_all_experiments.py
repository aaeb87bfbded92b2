#!/usr/bin/env python3
"""Run every bundled experiment config and collect the CSV reports.

Usage: python scripts/run_all_experiments.py [-h] [RESULTS_DIR]

Solves the two limit-program examples first, then runs each experiment
config through the CLI, writing into RESULTS_DIR (default: results).  The
package is imported from this checkout's ``src``, so no PYTHONPATH is
needed.  Everything is seeded, so reruns reproduce the same bytes.  On a
shared 2-vCPU Linux VM (Python 3.11, numpy 2.4, default OpenBLAS threads)
four runs took 5.2-6.1 s real, ``tail_ratio`` 2.0-2.4 s and
``scenario_heavy`` 0.9-1.1 s of it.  Timings on that VM move with the
host's load by 30% or more.
"""

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "scripts" / "configs"

LIMIT_RUNS = [
    ("lt-limit", "lt_limit_example.json"),
    ("ht-limit", "ht_limit_example.json"),
]

EXPERIMENTS = [
    "cvar_ratio_heavy.json",
    "cvar_ratio_light.json",
    "scenario_light.json",
    "scenario_heavy.json",
    "feasibility_factor.json",
    "feasibility_factor_shrunk.json",
    "frechet_check.json",
    "tail_ratio.json",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every bundled experiment config and "
                                                 "collect the CSV reports.")
    parser.add_argument("results_dir", nargs="?", default="results", type=pathlib.Path,
                        help="directory for the reports (default: results)")
    out_dir = parser.parse_args(argv).results_dir
    # the checkout's package comes first, so the script runs without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))
    from rarecc.cli import cli_main

    out_dir.mkdir(parents=True, exist_ok=True)
    for command, name in LIMIT_RUNS:
        dest = out_dir / name.replace(".json", "_solution.json")
        print(f"== {command} {name} -> {dest}")
        rc = cli_main([command, str(CONFIG_DIR / name), "--out", str(dest)])
        if rc != 0:
            return rc
    for name in EXPERIMENTS:
        dest = out_dir / name.replace(".json", ".csv")
        print(f"== experiment {name} -> {dest}")
        t0 = time.time()
        rc = cli_main(["experiment", str(CONFIG_DIR / name), "--out", str(dest)])
        if rc != 0:
            return rc
        print(f"   done in {time.time() - t0:.1f}s")
    print(f"all reports in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
