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
from .analysis import (hs_norm, kernel_decay_fits, lp_bound_reports,
                       mikhlin_uniformity, schatten_reports, trace)
from .calculus import SymbolExpansion, adjoint, compose, parametrix, transpose
from .config import JobConfig, load_config, number
from .errors import ConfigError, NotEllipticError, PdzError
from .grids import LatticeSequence
from .quantize import apply
from .report import DiagnosticsReport
from .solver import solve
from .symbols import SampledSymbol, sample


#: Diagnostic suites: ``pdz diagnose`` flags and the entries of ``diagnose.suites``.
_SUITES = ("hs", "trace", "schatten", "decay", "lp", "mikhlin")


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
    for flag in _SUITES:
        diag.add_argument(f"--{flag}", action="store_true")
    return parser


def _overrides(args) -> dict:
    out = {}
    for key in ("box", "dim", "seed", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _section_symbol(cfg: JobConfig, section: dict, key: str = "symbol") -> SampledSymbol:
    name = section.get(key)
    if not isinstance(name, str):
        raise ConfigError(f"section needs a string {key!r} field")
    return sample(cfg.symbol(name), cfg.box, cfg.box.matched_grid())


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
    order = number(args.command, section, "order", 1)
    symbols = [_section_symbol(cfg, section, key) for key in keys]
    _emit(pdzio.symbol_to_csv(op(*symbols, order)), args.out)
    return 0


def _cmd_parametrix(cfg: JobConfig, args) -> int:
    section = cfg.section("parametrix")
    sym = _section_symbol(cfg, section)
    mu = number("parametrix", section, "mu")
    order = number("parametrix", section, "order", 3)
    m_cut = None if section.get("m_cut") is None else number("parametrix", section, "m_cut")
    expansion = parametrix(SymbolExpansion([sym], [mu]), mu, order, m_cut=m_cut)
    _emit(pdzio.expansion_to_csv(expansion), args.out)
    return 0


def _cmd_solve(cfg: JobConfig, args) -> int:
    section = cfg.section("solve")
    max_iter = number("solve", section, "max_iter", 50)
    if max_iter < 1:
        raise ConfigError(f"solve: 'max_iter' must be at least 1, got {max_iter}")
    sym = _section_symbol(cfg, section)
    g = _read_input(cfg, section)
    report = solve(sym, g, section.get("method", "auto"),
                   mu=number("solve", section, "mu", 0.0),
                   order=number("solve", section, "order", 2),
                   max_iter=max_iter, tol=cfg.tol,
                   s_values=number("solve", section, "s_values", [0.0, 2.0]))
    _emit(pdzio.sequence_to_csv(report.solution), args.out)
    (sys.stdout if args.out else sys.stderr).write(report.render() + "\n")
    return 0


def _cmd_diagnose(cfg: JobConfig, args) -> int:
    section = cfg.section("diagnose")
    suites = [s for s in _SUITES if getattr(args, s)] or section.get("suites", ["hs", "trace"])
    if not isinstance(suites, list) or not all(s in _SUITES for s in suites):
        raise ConfigError(f"diagnose: 'suites' must be a list drawn from {', '.join(_SUITES)}")
    report = DiagnosticsReport("diagnostics")
    needs_symbol = any(s != "mikhlin" for s in suites)
    sym = _section_symbol(cfg, section) if needs_symbol else None
    p_values = number("diagnose", section, "p_values", [1.0, 2.0])
    if "hs" in suites:
        report.add_value("hs_norm", hs_norm(sym))
    if "trace" in suites:
        report.add_value("trace", trace(sym))
    if "schatten" in suites:
        for section_report in schatten_reports(sym, p_values):
            report.add_section(section_report)
    if "decay" in suites:
        for section_report in kernel_decay_fits(sym, number("diagnose", section, "n_t",
                                                             [1, 2, 3])):
            report.add_section(section_report)
    if "lp" in suites:
        for section_report in lp_bound_reports(sym, p_values, seed=cfg.seed):
            report.add_section(section_report)
    if "mikhlin" in suites:
        sizes = number("diagnose", section, "sizes", [4, 8])
        report.add_section(mikhlin_uniformity(cfg.symbol(section.get("symbol")), cfg.box.n,
                                              sizes, seed=cfg.seed))
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
