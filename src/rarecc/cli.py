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
import contextlib
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


class ConfigError(Exception):
    """Configuration could not be loaded or validated."""


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
    """Parse the JSON config into model objects; raises ConfigError on any defect."""
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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
        raise ConfigError(f"config file {path} is invalid: {exc}") from exc


@contextlib.contextmanager
def _parsing_fields():
    """Turn the errors that a malformed experiment field raises while it is
    parsed into ConfigError, as load_config does for the rest of a config;
    wrap no solver call in it."""
    try:
        yield
    except (IndexError, ValueError, TypeError) as exc:
        raise ConfigError(f"experiment config is invalid: {exc}") from exc


def _experiment_config(cfg: dict, args) -> ExperimentConfig:
    exp = cfg["experiment"]
    try:
        kind = exp["kind"]
    except KeyError as exc:
        raise ConfigError(f"experiment config missing key {exc}") from exc
    fields = {key: exp[key] for key in ("delta_grid", "k_grid", "replications", "budget",
                                        "eta", "r_grid", "y_probe") if key in exp}
    if args.reps is not None:
        fields["replications"] = args.reps
    with _parsing_fields():
        return ExperimentConfig(
            kind=kind, problem=cfg["problem"], tail=cfg["tail"],
            master_seed=args.seed if args.seed is not None else cfg["master_seed"],
            workers=args.workers if args.workers is not None else cfg["workers"],
            **fields)


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text + "\n")


def _single_method(cfg: dict, args):
    exp = cfg["experiment"]
    seed = args.seed if args.seed is not None else cfg["master_seed"]
    with _parsing_fields():
        delta = float(exp.get("delta_grid", [1e-3])[0])
        budget = as_count("budget", exp.get("budget", ExperimentConfig.budget))
        if args.command == "scenario":
            k = as_count("k_grid value", exp.get("k_grid", [1000])[0])
            radius = float(exp.get("radius", 1.0))
    if args.command == "oracle":
        return ccp_oracle(cfg["problem"], cfg["tail"], delta, budget, seed)
    if args.command == "cvar":
        return cvar_solve(cfg["problem"], cfg["tail"], delta, budget, seed)
    batch = sample_tail(cfg["tail"], seed, k)
    return scenario_solve(cfg["problem"], batch, radius)


# the integer flags each subcommand reads, besides --out; any other exits 2
_FLAGS = {"lt-limit": (), "ht-limit": (), "oracle": ("--seed",), "cvar": ("--seed",),
          "scenario": ("--seed",), "sample-size": (),
          "experiment": ("--seed", "--reps", "--workers")}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(prog="rarecc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        for flag in flags:
            p.add_argument(flag, type=int, default=None)
    return parser


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    if args.command == "experiment":
        out = out or cfg["out"] or "report.csv"
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        # checked before any work, so a run is not lost to a mistyped path
        print(f"error: the directory of output file {out} does not exist", file=sys.stderr)
        return 2

    try:
        if getattr(args, "seed", None) is not None:
            # the rule a config's master_seed follows; the sampler keys on
            # seed mod 2^64, so a negative seed would alias a large one
            check_count("--seed", args.seed, least=0)
        if args.command == "lt-limit":
            if not isinstance(cfg["tail"], LightTailModel):
                raise ConfigError("lt-limit needs a light tail model")
            sol = solve_lt_limit(cfg["tail"], cfg["problem"])
            _emit(sol.to_json_dict(), out)
        elif args.command == "ht-limit":
            if not isinstance(cfg["tail"], HeavyTailModel):
                raise ConfigError("ht-limit needs a heavy tail model")
            sol = solve_ht_limit(cfg["tail"], cfg["problem"])
            _emit(sol.to_json_dict(), out)
        elif args.command in ("oracle", "cvar", "scenario"):
            res = _single_method(cfg, args)
            _emit(res.to_json_dict(), out)
        elif args.command == "sample-size":
            exp = cfg["experiment"]
            with _parsing_fields():
                delta = float(exp.get("delta_grid", [1e-3])[0])
                beta_conf = float(exp.get("beta_conf", 0.01))
            dim = as_count("dim", exp.get("dim", cfg["problem"].m))
            k = sample_size_rule(delta, beta_conf, dim)
            _emit({"delta": delta, "beta_conf": beta_conf, "dim": dim, "k": k}, out)
        else:
            ecfg = _experiment_config(cfg, args)
            rows, comments = run_experiment(ecfg)
            write_report(rows, out, comments)
            print(f"wrote {len(rows)} rows to {out}")
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RareccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # past load_config, only writing the output file touches the file system
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    console_main()
