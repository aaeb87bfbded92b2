#!/usr/bin/env python3
"""rarecc benchmark: seeded closed-loop answer lists, timed end to end and
traced layer by layer.

Run from the repository root (rarecc is imported from ``src/``):

    python3 bench/run.py --workload cvar --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --record-refs --workload cvar --seed 1

Each workload is a closed loop with one client: one process issues the
workload's fixed answer list back to back, pass after pass, for about
``--seconds``.  ``reproduce`` runs experiments at ``--workers 1``, the CLI's
default; only its traced run also issues each answer at ``--workers 2``, to
measure the experiment pool.  BLAS is capped at one thread.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (see ``spans.py``).  Every answer is checked outside the
timed region against closed forms, invariants, the first pass of the run
and, when ``refs.json`` holds the seed, against the recorded reference values.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
metrics as a table with sample counts, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs.json"
WORKDIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
#: Kept out of tuning; a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
#: Experiment threads in the timed and traced passes of ``reproduce``.  At
#: 2 workers on a 2-vCPU VM, pass times jumped between 1.3 and 2.3 s with the
#: host's load, and were slower than at 1 worker while the host was busy.
REPRODUCE_WORKERS = 1
#: The pool size that ``experiments.speedup_w2`` compares against (``nproc``).
POOL_WORKERS = 2
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "answer_p50_ms": "ms", "answer_p90_ms": "ms",
              "peak_rss_mb": "MB"}


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-refs", action="store_true",
                   help="run one pass and store its checked values in refs.json")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ checks

class Checker:
    """Counts answers and failures; compares fingerprints across passes and
    with the recorded references."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.first: dict[str, list] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, answers, results) -> None:
        from workloads import CheckFailed
        for ans, (out, err) in zip(answers, results):
            self.attempted += 1
            try:
                if err is not None:
                    raise err
                fp = ans.check(out)
                if self.first.setdefault(ans.label, fp) != fp:
                    raise CheckFailed(f"{fp} differs from the first pass {self.first[ans.label]}")
                if self.refs is not None and ans.recorded:
                    self._against_ref(ans.label, fp)
            except Exception as exc:           # any failure counts against the answer
                self.failures.append(f"{ans.label}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, CheckFailed):
                    traceback.print_exception(exc, file=sys.stderr)

    def _against_ref(self, label, fp) -> None:
        from workloads import REL_TOL, CheckFailed
        want = self.refs.get(label)
        if want is None or len(want) != len(fp):
            raise CheckFailed(f"no matching reference recorded (have {want})")
        for got, ref in zip(fp, want):
            if isinstance(ref, str) or isinstance(got, str):
                ok = got == ref
            else:
                ok = abs(got - ref) <= REL_TOL * max(abs(got), abs(ref))
            if not ok:
                raise CheckFailed(f"{got!r} differs from the reference {ref!r}")


def _load_refs(workload: str, seed: int) -> dict | None:
    if not REFS.is_file():
        return None
    return json.loads(REFS.read_text()).get(workload, {}).get(str(seed))


# ------------------------------------------------------------------ timing

def run_pass(answers, tracer=None):
    """Issue every answer once; returns (wall seconds, latencies, results)."""
    results, lat = [], []
    start = time.perf_counter()
    for i, ans in enumerate(answers):
        if tracer is not None:
            tracer.set_answer(i)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, err = ans.call(), None
        except Exception as exc:               # a failed answer is counted, not fatal
            out, err = None, exc
        lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        results.append((out, err))
    return time.perf_counter() - start, lat, results


def _checked_pass(answers, checker, tracer=None, after=None):
    """One pass, then its checks; ``after`` runs between the two."""
    wall, lat, results = run_pass(answers, tracer)
    if after is not None:
        after()
    checker.check(answers, results)
    return wall, lat


def _passes(answers, checker, until: float, after=None):
    """Run passes (at least one) while the next one fits before ``until``."""
    walls, lats = [], []
    while True:
        wall, lat = _checked_pass(answers, checker, after=after)
        walls.append(wall)
        lats.extend(lat)
        if time.perf_counter() + statistics.median(walls) > until:
            return walls, lats


def _time_setups(args) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to issue
    its first answer (imports plus building the workload)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return out


# ------------------------------------------------------------- provenance

def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rarecc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, refs) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "reproduce_workers": REPRODUCE_WORKERS,
            "pool_workers": POOL_WORKERS, "commit": _git_commit(),
            "src_sha256": _src_digest(), "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "references": "recorded" if refs is not None else "none for this seed"}


# ------------------------------------------------------------------ modes

def _result(checker, metrics: dict, units: dict) -> dict:
    return {"correct": not checker.failures, "attempted": checker.attempted,
            "failed": len(checker.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _report(args, env, rows, checker) -> None:
    print(f"# rarecc benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, value, unit, samples in rows:
        print(f"{name:32s} {value:>14.6g} {unit:6s} {samples}")
    fail_frac = len(checker.failures) / checker.attempted
    print(f"{'fail_frac':32s} {fail_frac:>14.6g} {'ratio':6s} "
          f"{len(checker.failures)} of {checker.attempted} answers")
    for msg in checker.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)


def timed(args, build, workdir, checker, env) -> dict:
    setups = _time_setups(args)
    answers = build(args.workload, args.seed, workdir, REPRODUCE_WORKERS)
    # peak RSS through set-up and the first pass: later passes only add
    # allocator history (freed arenas and heap that glibc keeps mapped)
    rss = []

    def note_rss():
        if not rss:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    walls, lats = _passes(answers, checker, time.perf_counter() + args.seconds, after=note_rss)
    lat_ms = [1e3 * v for v in lats]
    metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
               "answer_p50_ms": statistics.median(lat_ms),
               "answer_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
               "peak_rss_mb": rss[0] / 1024}
    counts = {"setup_s": f"median of {len(setups)} fresh processes",
              "wall_s": f"median of {len(walls)} passes",
              "answer_p50_ms": f"{len(lats)} answers", "answer_p90_ms": f"{len(lats)} answers",
              "peak_rss_mb": "set-up and first pass"}
    _report(args, env, [(k, metrics[k], END_TO_END[k], counts[k]) for k in END_TO_END], checker)
    return _result(checker, metrics, END_TO_END)


def traced(args, build, workdir, checker, env) -> dict:
    """Rounds of an untraced pass and a traced pass, back to back; the trace
    overhead is the median of their per-round differences, so that host speed
    drifting between rounds cancels out of it.  On ``reproduce`` the untraced
    pass issues each answer at ``--workers 1`` and then at ``--workers 2``,
    and the pool speedup is the median per-round ratio of the two sums."""
    import spans
    until = time.perf_counter() + args.seconds
    answers = build(args.workload, args.seed, workdir, REPRODUCE_WORKERS)
    pooled = None                               # only reproduce runs the pool
    if args.workload == "reproduce":
        pooled = build(args.workload, args.seed, workdir, POOL_WORKERS)
    tracer = spans.Tracer()
    plain, ratios, traced_walls, per_pass, rounds = [], [], [], [], []
    while True:
        start = time.perf_counter()
        if pooled is None:
            plain.append(_checked_pass(answers, checker)[0])
        else:
            lat = _checked_pass([a for pair in zip(answers, pooled) for a in pair], checker)[1]
            plain.append(sum(lat[0::2]))
            ratios.append(plain[-1] / sum(lat[1::2]))
        tracer.install()
        try:
            traced_walls.append(_checked_pass(answers, checker, tracer,
                                              after=lambda: per_pass.append(tracer.take()))[0])
        finally:
            tracer.uninstall()
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(rounds) > until:
            break
    first_counts = {k: per_pass[0][1].get(k, 0) for k in spans.EXACT_COUNTS}
    for _, counts in per_pass[1:]:
        again = {k: counts.get(k, 0) for k in spans.EXACT_COUNTS}
        if again != first_counts:
            checker.failures.append(f"trace: counts {again} differ from {first_counts}")
    speedup = statistics.median(ratios) if ratios else 0.0
    overhead = statistics.median(t - p for t, p in zip(traced_walls, plain))
    metrics = spans.per_layer_metrics([spans.layer_times(s) for s, _ in per_pass],
                                      per_pass[0][1], traced_walls, overhead, speedup)
    SPANS_DIR.mkdir(exist_ok=True)
    spans.write_spans(per_pass[0][0], SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    note = f"{len(per_pass)} rounds"
    _report(args, env, [(k, v, spans.PER_LAYER[k], note) for k, v in metrics.items()], checker)
    return _result(checker, metrics, spans.PER_LAYER)


def record(args, build, workdir) -> int:
    """Store the fingerprints of one pass's recorded answers that pass their
    checks; a failing answer gets no reference, so later runs fail it too."""
    answers = build(args.workload, args.seed, workdir, REPRODUCE_WORKERS)
    checker = Checker(None)
    _, _, results = run_pass(answers)
    checker.check(answers, results)
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    refs.setdefault(args.workload, {})[str(args.seed)] = {
        a.label: checker.first[a.label] for a in answers if a.recorded and a.label in checker.first}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded references for {args.workload} seed {args.seed}")
    for msg in checker.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    return 1 if checker.failures else 0


def run_all(args, workloads) -> int:
    """Every workload in its own process; one table each, one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    for var in _BLAS_VARS:                      # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "rarecc" / "__init__.py").is_file():
        print(f"error: no rarecc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rarecc
    if not Path(rarecc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: rarecc was imported from {rarecc.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build
    args = _parse(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            build(args.workload, args.seed, workdir, REPRODUCE_WORKERS)
            print("ready", flush=True)
            return 0
        if args.record_refs:
            return record(args, build, workdir)
        refs = _load_refs(args.workload, args.seed)
        checker = Checker(refs)
        env = provenance(args.seed, refs)
        mode = traced if args.trace else timed
        result = mode(args, build, workdir, checker, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass                                # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
