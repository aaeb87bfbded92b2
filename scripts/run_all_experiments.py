#!/usr/bin/env python3
"""Run every bundled experiment config and collect the CSV reports.

Usage: python scripts/run_all_experiments.py [RESULTS_DIR]

Solves the two limit-program examples first, then runs each experiment
config through the CLI.  Everything is seeded, so reruns reproduce the
same bytes.  On a shared 2-vCPU Linux VM (Python 3.11, numpy 2.4, default
OpenBLAS threads) a run took 5.7-6.7 s real (three runs), against 6.0-7.0 s
for the previous version, which drew each 2^18-row chunk of a streamed
Monte Carlo budget into a fresh array and built every radius of
frechet_check.  Timings on that VM move with the host's load by 30% or more.
"""

import pathlib
import sys
import time

from rarecc.cli import cli_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"

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


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("results")
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
