"""Command-line front end: analyze, solve, sweep, flatzone.

Every command reads one configuration file and writes plot-ready CSV or JSON.
Output files open with a comment line naming the tool version and the
configuration hash, and identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 configuration problem, 2 solver non-convergence,
3 invalid coefficient sequence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    DiagnosisReport,
    diagnose,
    half_resolution,
    lambda_sweep,
    report_to_json,
    to_json,
)
from .config import ExperimentConfig, load_config
from .elliptic import GridFunction, write_gridfunction_csv
from .errors import ConfigError, InvalidSequence, NoConvergence, PorolabError
from .pipeline import ZONE_NOT_APPLICABLE, converge, flat_zone


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves for
    # solver failures; route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="porolab", description="Power-series diffusion experiment driver")
    p.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify the configured problem")
    a.add_argument("--config", required=True, help="experiment configuration file")
    a.add_argument("--out", help="write the report JSON here (default: stdout)")

    s = sub.add_parser("solve", help="run the approximation scheme up to order N")
    s.add_argument("--config", required=True)
    s.add_argument("--n", required=True, type=int, help="largest approximation order")
    s.add_argument("--out", required=True, help="output CSV for the solution")

    w = sub.add_parser("sweep", help="classify a range of load factors")
    w.add_argument("--config", required=True)
    w.add_argument("--lambda-min", required=True, type=float)
    w.add_argument("--lambda-max", required=True, type=float)
    w.add_argument("--steps", required=True, type=int)
    w.add_argument("--out", required=True, help="output CSV lambda,verdict")

    f = sub.add_parser("flatzone", help="locate the zone where v reaches K")
    f.add_argument("--config", required=True)
    f.add_argument("--n-max", required=True, type=int, help="approximation order used")
    f.add_argument("--out", required=True, help="output CSV for the zone mask")
    return p


def _comment(cfg: ExperimentConfig) -> str:
    return f"porolab {__version__} config-sha256={cfg.config_hash}"


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _bracket(report: DiagnosisReport) -> str:
    return (
        f"bracket: lambda_exist={_fmt(report.lambda_exist)}"
        f" lambda_nonexist={_fmt(report.lambda_nonexist)}"
    )


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    seq, problem = cfg.sequence, cfg.problem
    report = diagnose(seq, problem, cfg.tolerances)
    half = half_resolution(problem) if report.lambda1 is not None else None
    coarse = diagnose(seq, half, cfg.tolerances) if half is not None else None
    print(f"verdict: {report.verdict}")
    print(_bracket(report))
    # a datum can vanish on every other node, so that the coarse v1 is 0
    if coarse is not None and coarse.lambda1 is not None:
        print(
            "half-resolution check: delta(sup_v1)="
            + _fmt(report.sup_v1 - coarse.sup_v1)
            + " delta(lambda1)="
            + _fmt(report.lambda1 - coarse.lambda1)
        )
    text = report_to_json(report, comment=_comment(cfg))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _solve_schedule(cfg: ExperimentConfig, n: int) -> list[int]:
    if n < 1:
        raise ConfigError("--n must be at least 1")
    schedule = sorted({k for k in cfg.n_schedule if k < n} | {n})
    return schedule


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    run = converge(
        cfg.sequence,
        cfg.problem,
        _solve_schedule(cfg, args.n),
        cfg.stop_tol,
        cfg.tolerances,
    )
    write_gridfunction_csv(run.converged_u, args.out, comment=_comment(cfg))
    last_n, last_sup = run.sup_history[-1]
    state = "converged" if run.converged else "schedule exhausted"
    print(f"orders {list(run.executed)}: {state}, sup u = {_fmt(last_sup)} at n={last_n}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not (math.isfinite(args.lambda_min) and math.isfinite(args.lambda_max)):
        raise ConfigError("--lambda-min and --lambda-max must be finite")
    if args.lambda_min > args.lambda_max:
        raise ConfigError("sweep range is empty (--lambda-min above --lambda-max)")
    if args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    if args.lambda_min <= 0:
        raise ConfigError("--lambda-min must be positive")
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    result = lambda_sweep(cfg.sequence, cfg.problem, lams, cfg.tolerances)
    lines = [f"# {_comment(cfg)}", "lambda,verdict"]
    for lam, verdict in result.rows:
        lines.append(f"{lam:.16e},{verdict}")
    with open(args.out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(_bracket(result.base_report))
    return 0


def _summary_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".json"


def _cmd_flatzone(args) -> int:
    cfg = load_config(args.config)
    if args.n_max < 1:
        raise ConfigError("--n-max must be at least 1")
    result = flat_zone(cfg.sequence, cfg.problem, args.n_max, cfg.tolerances)
    mask = (
        result.zone_mask
        if result.zone_mask is not None
        else GridFunction.zero(cfg.problem.grid)
    )
    write_gridfunction_csv(mask, args.out, comment=_comment(cfg))
    summary = {
        "status": result.status,
        "measure": result.measure,
        "mean_gap": result.mean_gap,
        "sigma": result.sigma,
        "K_value": result.K_value,
        "n_large": result.n_large,
        "detail": result.detail,
    }
    with open(_summary_path(args.out), "w", newline="") as fh:
        fh.write(to_json(summary, _comment(cfg)))
    if result.status == ZONE_NOT_APPLICABLE:
        print(f"flat zone: {result.status} ({result.detail})")
    else:
        print(
            f"flat zone: {result.status} measure={_fmt(result.measure)} "
            f"mean_gap={_fmt(result.mean_gap)}"
        )
    return 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "flatzone": _cmd_flatzone,
}


def entry(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except InvalidSequence as exc:
        print(f"error (series): {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 1
    except PorolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
