"""Command-line surface for batch jobs.

One self-describing JSON config per invocation plus flag overrides; every
command writes deterministic output (stdout when no --out path is given,
human diagnostics on stderr).  Exit codes: 0 success, 2 config/schema
errors, 3 numeric domain errors, 4 ellipticity failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as pdzio
from .analysis import (hs_norm, kernel_decay_fit, lp_bound_reports,
                       mikhlin_uniformity, schatten_reports, trace)
from .calculus import SymbolExpansion, adjoint, compose, parametrix, transpose
from .config import JobConfig, load_config
from .errors import ConfigError, NotEllipticError, PdzError
from .grids import DEFAULT_DENSE_CAP, LatticeSequence
from .quantize import apply
from .report import DiagnosticsReport
from .solver import _divide, _row_scan, solve_dense, solve_elliptic
from .symbols import SampledSymbol, sample


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdz",
        description="Pseudo-difference operator engine: apply, calculus, solve, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON job file")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--box", type=int, default=None, help="override box half-width N")
    common.add_argument("--dim", type=int, default=None, help="override dimension n")
    common.add_argument("--seed", type=int, default=None, help="override probe seed")
    common.add_argument("--tol", type=float, default=None, help="override tolerance")

    for name, help_text in [
        ("apply", "apply a symbol's operator to an input sequence"),
        ("kernel", "export the summation kernel of a symbol"),
        ("compose", "truncated composition of two symbols"),
        ("adjoint", "truncated adjoint symbol"),
        ("transpose", "truncated transpose symbol"),
        ("parametrix", "approximate-inverse expansion of an elliptic symbol"),
        ("solve", "solve Op(sigma) f = g"),
    ]:
        sub.add_parser(name, parents=[common], help=help_text)

    diag = sub.add_parser("diagnose", parents=[common], help="run diagnostic suites")
    for flag in ("hs", "trace", "schatten", "decay", "lp", "mikhlin"):
        diag.add_argument(f"--{flag}", action="store_true")
    return parser


def _overrides(args) -> dict:
    out = {}
    for key in ("box", "dim", "seed", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _sampled(cfg: JobConfig, name: str) -> SampledSymbol:
    return sample(cfg.symbol(name), cfg.box, cfg.box.matched_grid())


def _section_symbol(cfg: JobConfig, section: dict, key: str = "symbol") -> SampledSymbol:
    name = section.get(key)
    if not isinstance(name, str):
        raise ConfigError(f"section needs a string {key!r} field")
    return _sampled(cfg, name)


def _read_input(cfg: JobConfig, section: dict) -> LatticeSequence:
    path = section.get("input")
    if not isinstance(path, str):
        raise ConfigError("section needs an 'input' path to a sequence CSV")
    return pdzio.read_sequence_csv(cfg.resolve_path(path), cfg.box)


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_apply(cfg: JobConfig, args) -> int:
    section = cfg.section("apply")
    sym = _section_symbol(cfg, section)
    f = _read_input(cfg, section)
    _emit(pdzio.sequence_to_csv(apply(sym, f)), args.out)
    return 0


def _cmd_kernel(cfg: JobConfig, args) -> int:
    sym = _section_symbol(cfg, cfg.section("kernel"))
    _emit(pdzio.kernel_to_csv(sym), args.out)
    return 0


def _cmd_calculus(cfg: JobConfig, args, op, *keys: str) -> int:
    section = cfg.section(args.command)
    order = section.get("order", 1)
    if not isinstance(order, int):
        raise ConfigError(f"{args.command}: 'order' must be an integer")
    symbols = [_section_symbol(cfg, section, key) for key in keys]
    _emit(pdzio.symbol_to_csv(op(*symbols, order)), args.out)
    return 0


def _cmd_parametrix(cfg: JobConfig, args) -> int:
    section = cfg.section("parametrix")
    sym = _section_symbol(cfg, section)
    mu = section.get("mu")
    order = section.get("order", 3)
    if not isinstance(mu, (int, float)):
        raise ConfigError("parametrix: numeric 'mu' is required")
    if not isinstance(order, int):
        raise ConfigError("parametrix: 'order' must be an integer")
    expansion = parametrix(SymbolExpansion([sym], [float(mu)]), float(mu), order,
                           m_cut=section.get("m_cut"))
    _emit(pdzio.expansion_to_csv(expansion), args.out)
    return 0


def _cmd_solve(cfg: JobConfig, args) -> int:
    section = cfg.section("solve")
    sym = _section_symbol(cfg, section)
    g = _read_input(cfg, section)
    method = section.get("method", "auto")
    s_values = section.get("s_values", [0.0, 2.0])
    if not isinstance(s_values, list) or not all(isinstance(s, (int, float)) for s in s_values):
        raise ConfigError("solve: 's_values' must be a list of numbers")
    tol = cfg.tol

    scan = None
    if method == "auto":
        scan = _row_scan(sym)  # kept, so the multiplier route does not scan again
        if scan[2]:
            method = "multiplier"
        elif sym.box.size <= DEFAULT_DENSE_CAP:
            method = "dense"
        else:
            method = "iterative"
    if method == "multiplier":
        report = _divide(sym, scan or _row_scan(sym), g, s_values)
    elif method == "dense":
        report = solve_dense(sym, float(section.get("mu", 0.0)), g, tol=tol,
                             s_values=s_values, dense_cap=DEFAULT_DENSE_CAP)
    elif method == "iterative":
        mu = section.get("mu", 0.0)
        order = section.get("order", 2)
        max_iter = section.get("max_iter", 50)
        if not isinstance(order, int) or not isinstance(max_iter, int):
            raise ConfigError("solve: 'order' and 'max_iter' must be integers")
        report = solve_elliptic(sym, float(mu), g, order, max_iter=max_iter,
                                tol=tol, s_values=s_values)
    else:
        raise ConfigError(f"solve: unknown method {method!r}")

    _emit(pdzio.sequence_to_csv(report.solution), args.out)
    (sys.stdout if args.out else sys.stderr).write(report.render() + "\n")
    return 0


def _cmd_diagnose(cfg: JobConfig, args) -> int:
    section = cfg.section("diagnose")
    suites = [s for s in ("hs", "trace", "schatten", "decay", "lp", "mikhlin")
              if getattr(args, s, False)]
    if not suites:
        suites = section.get("suites", ["hs", "trace"])
    report = DiagnosticsReport("diagnostics")
    needs_symbol = any(s in suites for s in ("hs", "trace", "schatten", "decay", "lp"))
    sym = _section_symbol(cfg, section) if needs_symbol else None
    seed = cfg.seed
    if "hs" in suites:
        report.add_value("hs_norm", hs_norm(sym))
    if "trace" in suites:
        report.add_value("trace", trace(sym))
    if "schatten" in suites:
        p_values = [float(p) for p in section.get("p_values", [1.0, 2.0])]
        for section_report in schatten_reports(sym, p_values):
            report.add_section(section_report)
    if "decay" in suites:
        for n_t in section.get("n_t", [1, 2, 3]):
            report.add_section(kernel_decay_fit(sym, int(n_t)))
    if "lp" in suites:
        p_values = [float(p) for p in section.get("p_values", [1.0, 2.0])]
        for section_report in lp_bound_reports(sym, p_values, seed=seed):
            report.add_section(section_report)
    if "mikhlin" in suites:
        name = section.get("symbol")
        sizes = section.get("sizes", [4, 8])
        report.add_section(mikhlin_uniformity(cfg.symbol(name), cfg.box.n, sizes,
                                              seed=seed))
    _emit(report.render() + "\n", args.out)
    return 0


_COMMANDS = {
    "apply": _cmd_apply,
    "kernel": _cmd_kernel,
    "compose": lambda cfg, args: _cmd_calculus(cfg, args, compose, "left", "right"),
    "adjoint": lambda cfg, args: _cmd_calculus(cfg, args, adjoint, "symbol"),
    "transpose": lambda cfg, args: _cmd_calculus(cfg, args, transpose, "symbol"),
    "parametrix": _cmd_parametrix,
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
}


def run(args) -> int:
    cfg = load_config(args.config, overrides=_overrides(args))
    return _COMMANDS[args.command](cfg, args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    except NotEllipticError as exc:
        sys.stderr.write(f"ellipticity failure: {exc}\n")
        return 4
    except PdzError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
