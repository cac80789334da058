import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pdz import (LatticeBox, LatticeSequence, OperatorMatrix, SampledSymbol,
                 SymbolExpansion, matrix, parametrix)
from pdz.cli import main
from pdz.config import compile_expression, load_config
from pdz.errors import ConfigError, NonFiniteValueError
from pdz.io import (read_matrix_binary, read_sequence_csv, write_matrix_binary,
                    write_sequence_csv)
from pdz.symbols import sample

import helpers
import oracles

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def workdir(tmp_path):
    for name in ("example3_job.json", "example3_g.csv", "example3_apply_golden.csv"):
        shutil.copy(DATA / name, tmp_path / name)
    return tmp_path


def _job_path(workdir) -> str:
    return str(workdir / "example3_job.json")


# ---------------------------------------------------------------------------
# golden run and determinism


def test_apply_matches_bundled_golden_bytes(workdir, capsys):
    out = workdir / "out.csv"
    assert main(["apply", "--config", _job_path(workdir), "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "example3_apply_golden.csv").read_bytes()


def test_golden_file_agrees_with_dense_oracle(workdir):
    cfg = load_config(_job_path(workdir))
    sym = sample(cfg.symbol("T"), cfg.box, cfg.box.matched_grid())
    g = read_sequence_csv(workdir / "example3_g.csv", cfg.box)
    golden = read_sequence_csv(workdir / "example3_apply_golden.csv", cfg.box)
    oracle = matrix(sym).values @ g.values
    assert np.max(np.abs(golden.values - oracle)) <= 1e-10


def test_repeated_runs_are_byte_identical(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    assert main(["apply", "--config", _job_path(workdir), "--out", str(a)]) == 0
    assert main(["apply", "--config", _job_path(workdir), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# command behaviour


def test_apply_forward_difference_of_delta(tmp_path):
    box = LatticeBox(1, 4)
    write_sequence_csv(LatticeSequence.delta(box), tmp_path / "g.csv")
    job = {
        "box": {"n": 1, "N": 4},
        "symbols": [{"name": "D1", "kind": "builtin",
                     "params": {"builtin": "forward_diff", "j": 1}}],
        "apply": {"symbol": "D1", "input": "g.csv"},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "out.csv"
    assert main(["apply", "--config", str(tmp_path / "job.json"),
                 "--out", str(out)]) == 0
    result = read_sequence_csv(out, box)
    expected = (LatticeSequence.delta(box, [-1]).values
                - LatticeSequence.delta(box).values)
    np.testing.assert_allclose(result.values, expected, atol=1e-12)


def test_apply_unit_multiplier_is_identity(tmp_path):
    box = LatticeBox(1, 3)
    g = LatticeSequence(box, np.arange(box.size) - 2.5 + 0.5j)
    write_sequence_csv(g, tmp_path / "g.csv")
    job = {
        "box": {"n": 1, "N": 3},
        "symbols": [{"name": "one", "kind": "builtin",
                     "params": {"builtin": "multiplier", "expr": "1"}}],
        "apply": {"symbol": "one", "input": "g.csv"},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "out.csv"
    assert main(["apply", "--config", str(tmp_path / "job.json"),
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(read_sequence_csv(out, box).values, g.values,
                               atol=1e-13)


def test_kernel_command_emits_two_entries_per_row(workdir):
    out = workdir / "kernel.csv"
    assert main(["kernel", "--config", _job_path(workdir), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k_1,l_1,re,im"
    box = LatticeBox(1, 16)
    assert len(lines) - 1 == 2 * box.size
    for ln in lines[1:]:
        k, l, re, im = ln.split(",")
        assert int(l) in (-1, 0)
        expected = 1.0 if int(l) == -1 else -1.0
        assert abs(float(re) - expected) <= 1e-12
        assert abs(float(im)) <= 1e-12


def test_solve_command_reports_small_residual(workdir, capsys):
    out = workdir / "f.csv"
    assert main(["solve", "--config", _job_path(workdir), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    line = next(ln for ln in report.splitlines() if ln.startswith("residual_l2:"))
    assert float(line.split(":")[1]) <= 1e-10
    assert "method: exact-multiplier" in report
    # forward check through the library
    cfg = load_config(_job_path(workdir))
    sym = sample(cfg.symbol("T"), cfg.box, cfg.box.matched_grid())
    f = read_sequence_csv(out, cfg.box)
    g = read_sequence_csv(workdir / "example3_g.csv", cfg.box)
    from pdz import apply
    assert np.max(np.abs(apply(sym, f).values - g.values)) <= 1e-10


def test_diagnose_single_site_hs_is_one(workdir, capsys):
    assert main(["diagnose", "--config", _job_path(workdir), "--hs"]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if "hs_norm" in ln)
    assert float(line.split(":")[1]) == pytest.approx(1.0, abs=1e-12)


def test_compose_adjoint_transpose_commands(workdir, tmp_path):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["compose"] = {"left": "D1", "right": "T", "order": 2}
    job["adjoint"] = {"symbol": "D1", "order": 2}
    job["transpose"] = {"symbol": "D1", "order": 2}
    cfg_path = workdir / "calc.json"
    cfg_path.write_text(json.dumps(job))
    for command in ("compose", "adjoint", "transpose"):
        out = workdir / f"{command}.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "k_1,j_1,re,im"


def test_parametrix_command_writes_terms(workdir):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["parametrix"] = {"symbol": "T", "mu": 0.0, "order": 2}
    cfg_path = workdir / "par.json"
    cfg_path.write_text(json.dumps(job))
    out = workdir / "terms.csv"
    assert main(["parametrix", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "term,k_1,j_1,re,im"
    terms = {ln.split(",")[0] for ln in lines[1:]}
    assert terms == {"0", "1"}


def test_parametrix_command_matches_per_row_reference(workdir):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["parametrix"] = {"symbol": "T", "mu": 0.0, "order": 3}
    cfg_path = workdir / "par.json"
    cfg_path.write_text(json.dumps(job))
    out = workdir / "terms.csv"
    assert main(["parametrix", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    sym = sample(cfg.symbol("T"), cfg.box, cfg.box.matched_grid())
    expansion = parametrix(SymbolExpansion([sym], [0.0]), 0.0, 3)
    assert out.read_text() == oracles.expansion_csv(expansion)


def test_solve_without_out_writes_csv_to_stdout_and_report_to_stderr(workdir, capsys):
    out = workdir / "f.csv"
    assert main(["solve", "--config", _job_path(workdir), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert main(["solve", "--config", _job_path(workdir)]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert captured.err == report


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["apply", "--config", str(bad)]) == 2


def test_missing_symbol_exits_2(workdir):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["apply"]["symbol"] = "nope"
    path = workdir / "bad.json"
    path.write_text(json.dumps(job))
    assert main(["apply", "--config", str(path)]) == 2


def test_singular_symbol_solve_exits_3(workdir, capsys):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["solve"]["symbol"] = "D1"
    path = workdir / "sing.json"
    path.write_text(json.dumps(job))
    assert main(["solve", "--config", str(path)]) == 3
    assert "vanishes" in capsys.readouterr().err


def test_non_elliptic_parametrix_exits_4(workdir, capsys):
    assert main(["parametrix", "--config", _job_path(workdir)]) == 4
    err = capsys.readouterr().err
    assert "x=(0.0,)" in err  # witness printed


def test_box_override_changes_domain(workdir):
    out = workdir / "o.csv"
    assert main(["apply", "--config", _job_path(workdir), "--box", "16",
                 "--out", str(out)]) == 0
    # overriding to a size that no longer matches the stored sequence fails
    assert main(["apply", "--config", _job_path(workdir), "--box", "8",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("flags", [["--box", "0"], ["--dim", "0"], ["--box", "-1"]])
def test_box_override_below_one_exits_2(workdir, capsys, flags):
    out = workdir / "o.csv"
    assert main(["apply", "--config", _job_path(workdir), *flags, "--out", str(out)]) == 2
    assert "n >= 1 and N >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_box_half_width_zero_exits_2(workdir, capsys):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["box"]["N"] = 0
    path = workdir / "zero.json"
    path.write_text(json.dumps(job))
    assert main(["apply", "--config", str(path)]) == 2
    assert "n >= 1 and N >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value, flags", [
    ("parametrix", "parametrix", "m_cut", "3", []),
    ("solve", "solve", "mu", "two", []),
    ("apply", None, "tol", "abc", []),
    ("diagnose", "diagnose", "p_values", ["x"], ["--schatten"]),
    ("diagnose", "diagnose", "n_t", ["y"], ["--decay"]),
    ("diagnose", "diagnose", "n_t", [True], ["--decay"]),
    ("diagnose", "diagnose", "sizes", ["z"], ["--mikhlin"]),
    ("diagnose", "diagnose", "suites", 5, []),
    ("diagnose", "diagnose", "suites", "hstrace", []),
    ("diagnose", "diagnose", "suites", ["hs", "fourier"], []),
    ("apply", "box", "n", True, []),
    ("apply", None, "seed", True, []),
    ("apply", None, "tol", True, []),
    ("apply", None, "tol", float("nan"), []),
    ("apply", None, "tol", float("inf"), []),
    ("apply", None, "tol", 1e-10, ["--tol", "nan"]),
    ("apply", None, "tol", 1e-10, ["--tol", "inf"]),
    ("solve", "solve", "s_values", [0.0, float("-inf")], []),
])
def test_non_numeric_config_value_exits_2(workdir, capsys, command, section, key, value,
                                          flags):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["parametrix"]["symbol"] = "T"  # elliptic, so only the bad value can fail
    (job[section] if section else job)[key] = value
    path = workdir / "bad.json"
    path.write_text(json.dumps(job))
    assert main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("command", ["kernel", "diagnose"])
@pytest.mark.parametrize("params, key", [
    ({"expr": "2 + k_1**2", "mu": "two"}, "mu"),
    ({"expr": "2 + k_1**2", "mu": float("nan")}, "mu"),
    ({"builtin": "shift", "j": True}, "j"),
    ({"builtin": "forward_diff", "j": 1.0}, "j"),
    ({"builtin": "weight", "s": True}, "s"),
    ({"builtin": "weight", "s": float("inf")}, "s"),
    ({"builtin": "example3", "a": float("nan")}, "a"),
    ({"builtin": "example3", "a": float("-inf")}, "a"),
])
def test_bad_symbol_parameter_exits_2(tmp_path, capsys, command, params, key):
    kind = "builtin" if "builtin" in params else "expression"
    job = {"box": {"n": 1, "N": 4}, "symbols": [{"name": "S", "kind": kind, "params": params}],
           command: {"symbol": "S"}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: symbol 'S': {key!r} must be a")


_JOB = {"box": {"n": 1, "N": 4},
        "symbols": [{"name": "S", "kind": "expression", "params": {"expr": "2 + k_1**2"}}],
        "kernel": {"symbol": "S"}}


def _job_with(**changes):
    return {**_JOB, **changes}


def _symbol_with(**changes):
    return _job_with(symbols=[{**_JOB["symbols"][0], **changes}])


@pytest.mark.parametrize("job, message", [
    (_job_with(symbols=[5]), "symbol entry must be a mapping"),
    (_symbol_with(name=""), "needs a nonempty 'name'"),
    (_symbol_with(params=[1]), "params must be a mapping"),
    (_symbol_with(kind="table"), "kind must be 'builtin' or 'expression'"),
    (_symbol_with(params={}), "needs a string 'expr'"),
    (_symbol_with(kind="builtin", params={"builtin": "rotate"}), "unknown builtin 'rotate'"),
    (_symbol_with(params={"expr": "k_1 < x_1"}), "unsupported syntax"),
    (_job_with(kernel=[1]), "config section 'kernel' must be a mapping"),
    (None, "cannot read config"),
    ([1], "config root must be a JSON object"),
    (_job_with(box=5), "'box' must be an object"),
    (_job_with(symbols={}), "'symbols' must be a list"),
    (_job_with(symbols=_JOB["symbols"] * 2), "symbol 'S' defined twice"),
], ids=["entry", "name", "params", "kind", "expr", "builtin", "syntax", "section",
        "unreadable", "root", "box", "symbols", "duplicate"])
def test_config_structure_errors_exit_2(tmp_path, capsys, job, message):
    path = tmp_path / "job.json"
    if job is not None:
        path.write_text(json.dumps(job))
    assert main(["kernel", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


# ---------------------------------------------------------------------------
# serialization round trips


def test_sequence_csv_round_trip(tmp_path):
    box = LatticeBox(2, 2)
    f = helpers.random_sequence(box, np.random.default_rng(0))
    write_sequence_csv(f, tmp_path / "f.csv")
    back = read_sequence_csv(tmp_path / "f.csv", box)
    np.testing.assert_array_equal(back.values, f.values)


def test_sequence_csv_rejects_bad_header(tmp_path):
    box = LatticeBox(1, 2)
    (tmp_path / "f.csv").write_text("wrong,header\n")
    with pytest.raises(ConfigError):
        read_sequence_csv(tmp_path / "f.csv", box)


def test_sequence_csv_rejects_missing_rows(tmp_path):
    box = LatticeBox(1, 2)
    (tmp_path / "f.csv").write_text("k_1,re,im\n0,1,0\n")
    with pytest.raises(ConfigError, match="missing"):
        read_sequence_csv(tmp_path / "f.csv", box)


def test_matrix_binary_round_trip(tmp_path):
    box = LatticeBox(1, 3)
    rng = np.random.default_rng(1)
    op = OperatorMatrix(box, rng.standard_normal((box.size, box.size))
                        + 1j * rng.standard_normal((box.size, box.size)))
    write_matrix_binary(op, tmp_path / "m.pdzm")
    blob = (tmp_path / "m.pdzm").read_bytes()
    assert blob[:4] == b"PDZM"
    assert len(blob) == 16 + 16 * box.size**2
    back = read_matrix_binary(tmp_path / "m.pdzm")
    assert back.box == box
    np.testing.assert_array_equal(back.values, op.values)


def test_matrix_binary_with_nan_entry_raises_non_finite(tmp_path):
    box = LatticeBox(1, 2)
    write_matrix_binary(OperatorMatrix(box, np.eye(box.size)), tmp_path / "m.pdzm")
    blob = bytearray((tmp_path / "m.pdzm").read_bytes())
    blob[16:32] = np.array([complex(np.nan, 0.0)], dtype="<c16").tobytes()
    (tmp_path / "m.pdzm").write_bytes(bytes(blob))
    with pytest.raises(NonFiniteValueError):
        read_matrix_binary(tmp_path / "m.pdzm")


# ---------------------------------------------------------------------------
# expression language


def test_expression_arithmetic_and_names():
    fn = compile_expression("2*sin(2*pi*x_1) + cos(x_2)/2 - exp(i*k_1) + abs_k", 2)
    env = {"x_1": 0.25, "x_2": 0.0, "k_1": 0.0, "k_2": 3.0,
           "abs_k": 3.0, "i": 1j, "pi": np.pi}
    assert fn(env) == pytest.approx(2.0 + 0.5 - 1.0 + 3.0)


def test_expression_rejects_unknown_names_and_calls():
    with pytest.raises(ConfigError):
        compile_expression("open('x')", 1)
    with pytest.raises(ConfigError):
        compile_expression("y_1 + 1", 1)
    with pytest.raises(ConfigError):
        compile_expression("k_1", 1, allow_k=False)
    with pytest.raises(ConfigError):
        compile_expression("import os", 1)


def _expression_job(tmp_path, expr) -> str:
    job = {"box": {"n": 1, "N": 4}, "kernel": {"symbol": "S"},
           "symbols": [{"name": "S", "kind": "expression", "params": {"expr": expr}}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


@pytest.mark.parametrize("expr", ["1/0", "10.0**400", "0/0 + x_1", "10**400 + x_1",
                                  "(2*i)**5000", "exp(1000) + x_1"])
def test_non_finite_constant_expression_exits_3(tmp_path, capsys, expr):
    # Python scalar arithmetic raises where numpy gives inf or nan; either way
    # the symbol is reported non-finite, with no numpy warning
    assert main(["kernel", "--config", _expression_job(tmp_path, expr)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: symbol samples non-finite") and "Warning" not in err


@pytest.mark.parametrize("expr, literal", [("True + x_1", "True"), ("x_1 * False", "False")])
def test_boolean_literal_in_expression_exits_2(tmp_path, capsys, expr, literal):
    with pytest.raises(ConfigError):
        compile_expression(expr, 1)
    assert main(["kernel", "--config", _expression_job(tmp_path, expr)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: literal {literal} not allowed")


def test_huge_integer_power_is_not_computed(tmp_path, capsys):
    # 10**10**7 takes seconds as an exact int; past the float range it is inf at once
    start = time.perf_counter()
    assert main(["kernel", "--config", _expression_job(tmp_path, "10**10**7 + x_1")]) == 3
    assert time.perf_counter() - start < 2.0
    assert "non-finite" in capsys.readouterr().err


def test_integer_constants_stay_exact():
    fn = compile_expression("2**60 + 1 - 2**60 + x_1**2", 1)
    assert fn({"x_1": np.array([2j]), "i": 1j, "pi": np.pi})[0] == 1 + (2j) ** 2


def test_builtin_axis_validation(tmp_path):
    job = {
        "box": {"n": 1, "N": 2},
        "symbols": [{"name": "s", "kind": "builtin",
                     "params": {"builtin": "shift", "j": 2}}],
    }
    path = tmp_path / "j.json"
    path.write_text(json.dumps(job))
    assert main(["kernel", "--config", str(path)]) == 2


def test_solve_command_iterative_method(tmp_path, capsys):
    box = LatticeBox(1, 8)
    write_sequence_csv(LatticeSequence.delta(box), tmp_path / "g.csv")
    job = {
        "box": {"n": 1, "N": 8},
        "symbols": [{"name": "E", "kind": "expression",
                     "params": {"expr": "1 + abs_k**2 + exp(2*pi*i*x_1)",
                                "mu": 2.0}}],
        "solve": {"symbol": "E", "input": "g.csv", "method": "iterative",
                  "mu": 2.0, "order": 2, "max_iter": 40, "s_values": [0.0]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "f.csv"
    assert main(["solve", "--config", str(tmp_path / "job.json"),
                 "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "method: parametrix-iteration" in report
    line = next(ln for ln in report.splitlines() if ln.startswith("residual_l2:"))
    assert float(line.split(":")[1]) <= 1e-9
    # solution solves the dense system
    cfg = load_config(tmp_path / "job.json")
    sym = sample(cfg.symbol("E"), cfg.box, cfg.box.matched_grid())
    f = read_sequence_csv(out, cfg.box)
    lu = np.linalg.solve(matrix(sym).values,
                         LatticeSequence.delta(cfg.box).values)
    assert np.max(np.abs(f.values - lu)) <= 1e-7


def _solve_job(tmp_path, expr, N, g=None, name="job.json", **solve):
    """Write g.csv (default: the delta at the origin) and a solve config for
    the expression symbol ``expr`` (declared order 2) on the box n=1, N."""
    box = LatticeBox(1, N)
    write_sequence_csv(g if g is not None else LatticeSequence.delta(box),
                       tmp_path / "g.csv")
    job = {
        "box": {"n": 1, "N": N},
        "symbols": [{"name": "E", "kind": "expression",
                     "params": {"expr": expr, "mu": 2.0}}],
        "solve": {"symbol": "E", "input": "g.csv", "mu": 2.0, "s_values": [0.0],
                  **solve},
    }
    (tmp_path / name).write_text(json.dumps(job))
    return str(tmp_path / name)


def _report_field(report: str, key: str) -> str:
    return next(ln for ln in report.splitlines() if ln.startswith(key + ":")).split(": ")[1]


_NEAR_SINGULAR = "1 + abs_k**2 + exp(2*pi*i*x_1)"
#: The same symbol with no separated form: exp of an argument that reads k.
_NEAR_SINGULAR_FUSED = "1 + abs_k**2 + exp(2*pi*i*x_1*(1 + 0*k_1))"


@pytest.mark.parametrize("expr, cap, method", [
    (_NEAR_SINGULAR, None, "krylov-gmres"),
    (_NEAR_SINGULAR, 16, "krylov-gmres"),
    (_NEAR_SINGULAR_FUSED, None, "dense-lu"),
    (_NEAR_SINGULAR_FUSED, 16, "parametrix-iteration"),
    ("3 + exp(2*pi*i*x_1)", None, "exact-multiplier"),
])
def test_solve_auto_route(tmp_path, capsys, monkeypatch, expr, cap, method):
    if cap is not None:  # below K = 17
        monkeypatch.setattr("pdz.quantize.DENSE_CAP", cap)
    path = _solve_job(tmp_path, expr, 8, method="auto", order=2, max_iter=40)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "f.csv")]) == 0
    report = capsys.readouterr().out
    assert _report_field(report, "method") == method
    assert float(_report_field(report, "residual_l2")) <= 1e-10


def _multiplier_solve_passes(tmp_path, capsys, monkeypatch, expr, method) -> int:
    """Passes over the symbol's rows in ``pdz solve`` of ``expr``; one-row
    blocks keep the sampled symbol streamed (K = 17)."""
    helpers.force_block_rows(monkeypatch, 1, 17)
    passes = []
    blocks = SampledSymbol.blocks

    def counted(sym):
        passes.append(sym)
        return blocks(sym)

    monkeypatch.setattr(SampledSymbol, "blocks", counted)
    path = _solve_job(tmp_path, expr, 8, method=method)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "f.csv")]) == 0
    assert _report_field(capsys.readouterr().out, "method") == "exact-multiplier"
    return len(passes)


@pytest.mark.parametrize("method", ["auto", "multiplier"])
def test_solve_multiplier_route_scans_the_rows_once(tmp_path, capsys, monkeypatch, method):
    # exp of an argument that reads k has no separated form: one pass over
    # the rows checks k-constancy, one recomputes the residual
    expr = "3 + exp(2*pi*i*x_1*(1 + 0*k_1))"
    assert _multiplier_solve_passes(tmp_path, capsys, monkeypatch, expr, method) == 2


@pytest.mark.parametrize("method", ["auto", "multiplier"])
def test_solve_multiplier_route_of_a_separated_symbol_makes_no_pass(tmp_path, capsys,
                                                                    monkeypatch, method):
    # a lattice-free expression is one separated term with A = 1: k-constancy
    # is read off A and the residual is applied through the term
    expr = "3 + exp(2*pi*i*x_1)"
    assert _multiplier_solve_passes(tmp_path, capsys, monkeypatch, expr, method) == 0


def test_solve_dense_method_above_the_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pdz.quantize.DENSE_CAP", 16)  # below K = 17
    path = _solve_job(tmp_path, _NEAR_SINGULAR, 8, method="dense")
    assert main(["solve", "--config", path]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["auto", "dense", "iterative"])
def test_solve_non_elliptic_lattice_dependent_symbol_exits_4(tmp_path, capsys, method):
    path = _solve_job(tmp_path, "(1 + abs_k**2) * (exp(2*pi*i*x_1) - 1)", 8, method=method)
    assert main(["solve", "--config", path]) == 4
    assert "x=(0.0,)" in capsys.readouterr().err


def test_solve_auto_meets_tolerance_on_the_divergence_fixture(tmp_path, capsys):
    # order 3 at N = 256, where the full parametrix sum once missed tol * |g|:
    # auto solves it by the mean-preconditioned GMRES, iterative by the
    # parametrix stopped per row, and both recomputed residuals meet tol * |g|
    box = LatticeBox(1, 256)
    rng = np.random.default_rng(8)
    g = LatticeSequence(box, rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size))
    path = _solve_job(tmp_path, _NEAR_SINGULAR, 256, g=g, method="auto", order=3,
                      max_iter=60)
    out = tmp_path / "f.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert _report_field(capsys.readouterr().out, "method") == "krylov-gmres"
    cfg = load_config(path)
    sym = sample(cfg.symbol("E"), cfg.box, cfg.box.matched_grid())
    from pdz import apply
    f = read_sequence_csv(out, cfg.box)
    assert np.linalg.norm(g.values - apply(sym, f).values) <= cfg.tol * g.norm2()

    iterative = _solve_job(tmp_path, _NEAR_SINGULAR, 256, g=g, name="iter.json",
                           method="iterative", order=3, max_iter=60)
    assert main(["solve", "--config", iterative, "--out", str(out)]) == 0
    assert _report_field(capsys.readouterr().out, "method") == "parametrix-iteration"
    f = read_sequence_csv(out, cfg.box)
    assert np.linalg.norm(g.values - apply(sym, f).values) <= cfg.tol * g.norm2()


def test_solve_with_a_large_iteration_budget_exits_0(tmp_path, capsys):
    # the GMRES work arrays grow with the steps taken, not with max_iter
    path = _solve_job(tmp_path, _NEAR_SINGULAR, 8, method="krylov", max_iter=200000)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "f.csv")]) == 0
    assert _report_field(capsys.readouterr().out, "method") == "krylov-gmres"


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solve_rejects_an_iteration_budget_below_one(tmp_path, capsys, max_iter):
    path = _solve_job(tmp_path, _NEAR_SINGULAR, 8, method="krylov", max_iter=max_iter)
    assert main(["solve", "--config", path]) == 2
    assert "'max_iter' must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["auto", "multiplier", "krylov", "dense", "iterative"])
@pytest.mark.parametrize("order", [0, 13])
def test_solve_checks_the_expansion_order_on_every_route(tmp_path, capsys, method, order):
    path = _solve_job(tmp_path, "3 + exp(2*pi*i*x_1)", 8, method=method, order=order)
    assert main(["solve", "--config", path]) == 3
    assert "expansion order must lie in [1, 12]" in capsys.readouterr().err


def test_apply_of_a_separated_symbol_beyond_physical_memory_exits_0(tmp_path):
    # n=1 N=131072: the (K x X) samples would be 1.1 TB; apply reads the factors
    box = LatticeBox(1, 131072)
    delta = LatticeSequence.delta(box)
    write_sequence_csv(delta, tmp_path / "g.csv")
    job = {"box": {"n": 1, "N": box.N},
           "symbols": [{"name": "E", "kind": "expression",
                        "params": {"expr": "1.5 + k_1**2 + exp(2*pi*i*x_1)"}}],
           "apply": {"symbol": "E", "input": "g.csv"}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "f.csv"
    assert main(["apply", "--config", str(tmp_path / "job.json"), "--out", str(out)]) == 0
    weight = 1.5 + box.points[:, 0].astype(float) ** 2
    want = weight * delta.values + delta.shifted((1,)).values
    # the FFT's rounding of f, about 1e-16, is scaled by a(k) = 1.5 + k^2
    assert (np.abs(read_sequence_csv(out, box).values - want) <= 1e-12 * weight).all()


def test_solve_dense_method_matches_the_iterative_solution(tmp_path, capsys):
    # the job of test_solve_command_iterative_method, solved both ways
    solutions = {}
    for method in ("dense", "iterative"):
        path = _solve_job(tmp_path, _NEAR_SINGULAR, 8, name=f"{method}.json",
                          method=method, order=2, max_iter=40)
        out = tmp_path / f"{method}.csv"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        solutions[method] = read_sequence_csv(out, LatticeBox(1, 8)).values
    assert np.max(np.abs(solutions["dense"] - solutions["iterative"])) <= 1e-9


def test_diagnose_full_suites_render(tmp_path, capsys):
    job = {
        "box": {"n": 1, "N": 8},
        "symbols": [
            {"name": "P", "kind": "builtin",
             "params": {"builtin": "multiplier", "expr": "1/(2 + cos(2*pi*x_1))"}},
        ],
        "diagnose": {"symbol": "P", "p_values": [1.0, 2.0], "n_t": [1, 2],
                     "sizes": [4, 8]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "report.txt"
    assert main(["diagnose", "--config", str(tmp_path / "job.json"),
                 "--hs", "--trace", "--schatten", "--decay", "--lp",
                 "--mikhlin", "--out", str(out)]) == 0
    text = out.read_text()
    for marker in ("hs_norm", "trace", "schatten_p=1", "schatten_p=2",
                   "kernel_decay_nt=1", "kernel_decay_nt=2", "lp_bound_p=1",
                   "mikhlin_uniformity", "norm_N=4", "norm_N=8"):
        assert marker in text, marker
    assert "FAIL" not in text


def test_diagnose_decay_runs_above_the_dense_cap(tmp_path, capsys, monkeypatch):
    # the decay fit holds one row block of the kernel at a time, so the cap
    # on dense (K x K) objects does not apply to it
    monkeypatch.setattr("pdz.quantize.DENSE_CAP", 16)  # below K = 17
    job = {
        "box": {"n": 1, "N": 8},
        "symbols": [{"name": "E", "kind": "expression",
                     "params": {"expr": "1.5 + exp(2*pi*i*x_1)/(1 + abs_k**2)"}}],
        "diagnose": {"symbol": "E", "n_t": [1, 2]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "report.txt"
    assert main(["diagnose", "--config", str(tmp_path / "job.json"), "--decay",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "kernel_decay_nt=1:" in text and "kernel_decay_nt=2:" in text


def test_diagnose_decay_makes_one_kernel_pass_for_every_exponent(tmp_path, capsys,
                                                                  monkeypatch):
    passes = []
    kappa_blocks = SampledSymbol.kappa_blocks

    def counted(sym):
        passes.append(sym)
        return kappa_blocks(sym)

    monkeypatch.setattr(SampledSymbol, "kappa_blocks", counted)
    job = {
        "box": {"n": 1, "N": 8},
        "symbols": [{"name": "E", "kind": "expression",
                     "params": {"expr": "1.5 + exp(2*pi*i*x_1)/(1 + abs_k**2)"}}],
        "diagnose": {"symbol": "E", "n_t": [1, 2, 3]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert main(["diagnose", "--config", str(tmp_path / "job.json"), "--decay"]) == 0
    text = capsys.readouterr().out
    assert all(f"kernel_decay_nt={n_t}:" in text for n_t in (1, 2, 3))
    assert len(passes) == 1


def test_diagnose_seed_override_is_deterministic(tmp_path, capsys):
    job = {
        "box": {"n": 1, "N": 6},
        "symbols": [{"name": "P", "kind": "builtin",
                     "params": {"builtin": "multiplier",
                                "expr": "2 + cos(2*pi*x_1)"}}],
        "diagnose": {"symbol": "P", "p_values": [2.0]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    outs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(["diagnose", "--config", str(tmp_path / "job.json"),
                     "--lp", "--seed", "7", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_diagnose_lp_renders_one_section_per_p(tmp_path):
    from pdz import DiagnosticsReport, lp_bound_report
    job = {
        "box": {"n": 1, "N": 12},
        "symbols": [{"name": "E", "kind": "expression",
                     "params": {"expr": "1.5 + exp(2*pi*i*x_1)/(1 + abs_k**2)"}}],
        "diagnose": {"symbol": "E", "p_values": [1, 2.0, 3.5]},
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "report.txt"
    assert main(["diagnose", "--config", str(tmp_path / "job.json"), "--lp",
                 "--seed", "4", "--out", str(out)]) == 0
    cfg = load_config(tmp_path / "job.json")
    sym = sample(cfg.symbol("E"), cfg.box, cfg.box.matched_grid())
    want = DiagnosticsReport("diagnostics")
    for p in (1.0, 2.0, 3.5):
        want.add_section(lp_bound_report(sym, p, seed=4))
    assert out.read_text() == want.render() + "\n"


def test_compose_command_output_matches_library(workdir):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["compose"] = {"left": "D1", "right": "T", "order": 2}
    cfg_path = workdir / "calc.json"
    cfg_path.write_text(json.dumps(job))
    out = workdir / "compose.csv"
    assert main(["compose", "--config", str(cfg_path), "--out", str(out)]) == 0

    from pdz import compose as lib_compose
    cfg = load_config(cfg_path)
    box = cfg.box
    grid = box.matched_grid()
    left = sample(cfg.symbol("D1"), box, grid)
    right = sample(cfg.symbol("T"), box, grid)
    expected = lib_compose(left, right, 2)
    lines = out.read_text().strip().splitlines()[1:]
    assert len(lines) == box.size * grid.size
    values = np.empty((box.size, grid.size), dtype=complex)
    for ln in lines:
        k, j, re, im = ln.split(",")
        values[box.index_of(np.array([int(k)])), int(j)] = complex(float(re), float(im))
    np.testing.assert_allclose(values, expected.samples, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builtins_equal_their_expression_templates(n):
    from pdz.config import build_symbol
    box = LatticeBox(n, {1: 6, 2: 3, 3: 2}[n])
    grid = box.matched_grid()
    example3 = " + ".join(f"2*i*sin(2*pi*x_{j})" for j in range(1, n + 1))
    cases = [
        ({"builtin": "shift", "j": n}, f"exp(2*pi*i*x_{n})", 0.0),
        ({"builtin": "forward_diff", "j": 1}, "exp(2*pi*i*x_1) - 1", 0.0),
        ({"builtin": "multiplier", "expr": "-sin(2*pi*x_1)"}, "-sin(2*pi*x_1)", 0.0),
        ({"builtin": "weight", "s": 2}, "(1 + abs_k)**2", 2.0),
        ({"builtin": "weight", "s": -1.5}, "(1 + abs_k)**-1.5", -1.5),
        ({"builtin": "weight", "s": 0}, "(1 + abs_k)**0", 0.0),
        ({"builtin": "example3", "a": 1.0}, example3 + " + 1.0", 0.0),
        ({"builtin": "example3", "a": -2}, example3 + " + -2", 0.0),
        ({"builtin": "example3", "a": 0}, example3 + " + 0", 0.0),
    ]
    for params, expr, mu in cases:
        got = sample(build_symbol({"name": "b", "kind": "builtin", "params": params}, n),
                     box, grid)
        want = sample(build_symbol({"name": "e", "kind": "expression",
                                    "params": {"expr": expr, "mu": mu}}, n), box, grid)
        for part in ("real", "imag"):
            a, b = getattr(got.samples, part), getattr(want.samples, part)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), params
        assert got.params.mu == mu, params


def test_builtin_shift_and_weight_definitions():
    from pdz.config import build_symbol
    box = LatticeBox(2, 2)
    grid = box.matched_grid()
    shift = sample(build_symbol(
        {"name": "s", "kind": "builtin", "params": {"builtin": "shift", "j": 2}}, 2),
        box, grid)
    np.testing.assert_allclose(shift.samples, helpers.shift_symbol(box, grid, 1).samples,
                               atol=1e-15)
    weight = sample(build_symbol(
        {"name": "w", "kind": "builtin", "params": {"builtin": "weight", "s": -1.5}}, 2),
        box, grid)
    np.testing.assert_allclose(weight.samples,
                               helpers.weight_symbol(box, grid, -1.5).samples,
                               atol=1e-15)
    assert weight.params.mu == -1.5


def test_missing_input_file_exits_2(workdir, capsys):
    job = json.loads((workdir / "example3_job.json").read_text())
    job["apply"]["input"] = "does_not_exist.csv"
    path = workdir / "missing.json"
    path.write_text(json.dumps(job))
    assert main(["apply", "--config", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_kernel_csv_two_dimensional_layout(tmp_path):
    from pdz import kernel as lib_kernel
    from pdz.io import kernel_to_csv
    box = LatticeBox(2, 2)
    grid = box.matched_grid()
    sym = helpers.forward_diff_symbol(box, grid, axis=1)
    text = kernel_to_csv(lib_kernel(sym))
    lines = text.strip().splitlines()
    assert lines[0] == "k_1,k_2,l_1,l_2,re,im"
    assert len(lines) - 1 == 2 * box.size
    for ln in lines[1:]:
        cols = ln.split(",")
        assert (int(cols[2]), int(cols[3])) in ((0, 0), (0, -1))


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    """The row-block passes use bare threads: ``concurrent.futures`` would add
    several milliseconds to every command's start-up.  Every module the
    import adds comes from the standard library, numpy or pdz, the only
    declared runtime dependency; the baseline is taken in the same process,
    after the site hooks have run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys; before = set(sys.modules); import pdz.cli; "
             "print('concurrent.futures' in sys.modules); "
             "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
             " - sys.stdlib_module_names - {'numpy', 'pdz'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:2] == ["False", "[]"]
