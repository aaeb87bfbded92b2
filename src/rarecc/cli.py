"""Batch command-line interface.

Subcommands (each takes --out PATH; a flag it does not read exits 2)::

    rarecc lt-limit    cfg.json               solve the light-tail limit program
    rarecc ht-limit    cfg.json               solve the heavy-tail limit program
    rarecc oracle      cfg.json [--seed S]    Monte Carlo chance-constrained oracle
    rarecc cvar        cfg.json [--seed S]    sample-average CVaR relaxation
    rarecc scenario    cfg.json [--seed S]    sampled-constraint program
    rarecc sample-size cfg.json               published scenario-count rule
    rarecc experiment  cfg.json [--seed S] [--reps N] [--workers W]   run an experiment

Exit codes: 0 success, 2 bad configuration, 1 runtime or solver failure.
An output file whose directory does not exist is a bad configuration, found
before any work; a write that fails all the same is a runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ParameterError, RareccError, check_count
from .experiments import ExperimentConfig, as_count, run_experiment, write_report
from .limits import solve_ht_limit, solve_lt_limit
from .methods import ccp_oracle, cvar_solve, sample_size_rule, scenario_solve
from .model import ProblemInstance
from .sampler import HeavyTailModel, LightTailModel, sample_tail


def _section(raw: dict, name: str) -> dict:
    """The config's ``name`` section, which must be a JSON object."""
    if name not in raw:
        raise ParameterError(f"a config needs a {name} section")
    if not isinstance(raw[name], dict):
        raise ParameterError(f"a config's {name} section must be an object, got {raw[name]!r}")
    return raw[name]


def _tail_param(data: dict, kind: str, key: str) -> float:
    if key not in data:
        raise ParameterError(f"a {kind} tail needs {key} in its tail section")
    return float(data[key])


def _tail_from_dict(data: dict, n: int):
    kind = data.get("kind")
    if kind == "light":
        # float() also parses the strings "inf" and "Infinity"
        return LightTailModel(n=n, beta=_tail_param(data, kind, "beta"),
                              theta=float(data.get("theta", 1.0)))
    if kind == "heavy":
        atoms = data.get("atoms")
        if atoms is None and n == 1:
            atoms = [[1.0, [1.0]]]
        if atoms is None:
            raise ParameterError(f"a heavy tail needs atoms when n >= 2; the problem has n = {n}")
        return HeavyTailModel.from_pairs(n=n, alpha=_tail_param(data, kind, "alpha"),
                                         pairs=atoms)
    raise ParameterError(f"tail kind must be 'light' or 'heavy', got {kind!r}")


def load_config(path: str) -> dict:
    """Parse the JSON config into model objects; every defect, an unreadable
    file included, raises ParameterError naming ``path``."""
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        problem = ProblemInstance.from_dict(_section(raw, "problem"))
        tail = _tail_from_dict(_section(raw, "tail"), problem.n)
        exp = dict(raw.get("experiment", {}))
        if not isinstance(raw.get("out", ""), (str, type(None))):
            raise TypeError(f"out must be a path string, got {raw['out']!r}")
        return {
            "problem": problem,
            "tail": tail,
            "experiment": exp,
            "master_seed": as_count("master_seed", raw.get("master_seed", 0), least=0),
            "out": raw.get("out"),
            "workers": as_count("workers", raw.get("workers", 1)),
        }
    except (KeyError, ValueError, TypeError, RareccError) as exc:
        raise ParameterError(f"config file {path} is invalid: {exc}") from exc


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text + "\n")


# A reader parses its subcommand's config fields and returns the run, a
# function of the output path.  It calls no solver, so that cli_main can
# report what a malformed field raises while it is read as a bad config.

def _read_limit(cfg: dict, args):
    light = args.command == "lt-limit"
    if not isinstance(cfg["tail"], LightTailModel if light else HeavyTailModel):
        raise ParameterError(f"{args.command} needs a {'light' if light else 'heavy'} tail model")
    return lambda out: _emit((solve_lt_limit if light else solve_ht_limit)(
        cfg["tail"], cfg["problem"]).to_json_dict(), out)


def _first_delta(exp: dict) -> float:
    return float(exp.get("delta_grid", [1e-3])[0])


def _read_method(cfg: dict, args):
    exp, problem, tail, seed = cfg["experiment"], cfg["problem"], cfg["tail"], cfg["master_seed"]
    delta = _first_delta(exp)
    budget = as_count("budget", exp.get("budget", ExperimentConfig.budget))
    if args.command == "scenario":
        k = as_count("k_grid value", exp.get("k_grid", [1000])[0])
        radius = float(exp.get("radius", 1.0))
        return lambda out: _emit(
            scenario_solve(problem, sample_tail(tail, seed, k), radius).to_json_dict(), out)
    return lambda out: _emit((ccp_oracle if args.command == "oracle" else cvar_solve)(
        problem, tail, delta, budget, seed).to_json_dict(), out)


def _read_sample_size(cfg: dict, args):
    exp = cfg["experiment"]
    delta, beta_conf = _first_delta(exp), float(exp.get("beta_conf", 0.01))
    dim = as_count("dim", exp.get("dim", cfg["problem"].m))
    return lambda out: _emit({"delta": delta, "beta_conf": beta_conf, "dim": dim,
                              "k": sample_size_rule(delta, beta_conf, dim)}, out)


def _read_experiment(cfg: dict, args):
    exp = cfg["experiment"]
    if "kind" not in exp:
        raise ParameterError("experiment config missing key 'kind'")
    fields = {key: exp[key] for key in ("delta_grid", "k_grid", "replications", "budget",
                                        "eta", "r_grid", "y_probe") if key in exp}
    if args.reps is not None:
        fields["replications"] = args.reps
    ecfg = ExperimentConfig(
        kind=exp["kind"], problem=cfg["problem"], tail=cfg["tail"],
        master_seed=cfg["master_seed"],
        workers=args.workers if args.workers is not None else cfg["workers"], **fields)

    def run(out):
        rows, comments = run_experiment(ecfg)
        write_report(rows, out, comments)
        print(f"wrote {len(rows)} rows to {out}")
    return run


# each subcommand's integer flags besides --out (any other exits 2), and its reader
_COMMANDS = {
    "lt-limit": ((), _read_limit),
    "ht-limit": ((), _read_limit),
    "oracle": (("--seed",), _read_method),
    "cvar": (("--seed",), _read_method),
    "scenario": (("--seed",), _read_method),
    "sample-size": ((), _read_sample_size),
    "experiment": (("--seed", "--reps", "--workers"), _read_experiment),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(prog="rarecc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        for flag in flags:
            p.add_argument(flag, type=int, default=None)
    return parser


def cli_main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Every config defect raises ParameterError (exit 2); the config, the
    output directory, ``--seed`` and the subcommand's fields are read before
    any solver runs.  Any other package error, or a failed write, exits 1.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out = args.out
    try:
        cfg = load_config(args.config)
        if args.command == "experiment":
            out = out or cfg["out"] or "report.csv"
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            # checked before any work, so a run is not lost to a mistyped path
            raise ParameterError(f"the directory of output file {out} does not exist")
        if getattr(args, "seed", None) is not None:
            # the rule a config's master_seed follows; the sampler keys on
            # seed mod 2^64, so a negative seed would alias a large one
            cfg["master_seed"] = check_count("--seed", args.seed, least=0)
        try:
            run = _COMMANDS[args.command][1](cfg, args)
        except (IndexError, ValueError, TypeError) as exc:
            raise ParameterError(f"experiment config is invalid: {exc}") from exc
        run(out)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RareccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # load_config reports an unreadable config itself, so only writing
        # the output file gets here
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    console_main()
