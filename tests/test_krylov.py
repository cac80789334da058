"""The matrix-free GMRES route: ``solver.gmres`` against LU, ``solve_krylov``
against ``solve_dense`` and against the weighted-shift form of the operator,
its memory, its failures, and where ``method: auto`` sends it."""

import json
import tracemalloc

import numpy as np
import pytest

from pdz import (DivergenceError, DomainMismatchError, LatticeBox, LatticeSequence,
                 NotEllipticError, SingularSymbolError, sample, solve, solve_dense,
                 solve_krylov)
from pdz.cli import main
from pdz.config import build_symbol
from pdz.io import write_sequence_csv
from pdz.solver import gmres

import helpers

#: (n, N) per block setting, as in test_separated.
BOXES = {None: [(1, 150), (2, 9), (3, 3)], 1: [(1, 6), (2, 3), (3, 2)],
         2: [(1, 6), (2, 3), (3, 2)]}

#: Elliptic separated expressions ({n} is the last axis), their declared
#: order, and their weighted-shift form: (c_t(k) on the box points, m_t),
#: with Op(c(k) e^{2 pi i m.x}) f(k) = c(k) f(k + m).
SEPARATED = {
    "2 + k_1**2 + exp(2*pi*i*x_1)":
        (2.0, lambda k, n: [(2.0 + k[:, 0] ** 2, 0), (1.0, 1)]),
    "1.1*(1 + abs_k) + 0.8*exp(2*pi*i*x_1) + 0.3*k_{n}*exp(-2*pi*i*x_{n})":
        (1.0, lambda k, n: [(1.1 * (1.0 + np.linalg.norm(k, axis=1)), 0), (0.8, 1),
                            (0.3 * k[:, n - 1], -n)]),
}


def _symbol(expr: str, n: int, N: int, mu: float = 2.0):
    definition = build_symbol({"name": "s", "kind": "expression",
                               "params": {"expr": expr.format(n=n), "mu": mu}}, n)
    box = LatticeBox(n, N)
    return sample(definition, box, box.matched_grid())


def _weighted_shift(terms, f: LatticeSequence) -> np.ndarray:
    """sum_t c_t(k) f(k + m_t), m_t = sign(a) e_|a| for an axis code a (0: none)."""
    out = np.zeros(f.box.size, dtype=complex)
    for c, axis in terms:
        m = np.zeros(f.box.n, dtype=int)
        if axis:
            m[abs(axis) - 1] = np.sign(axis)
        out += c * f.shifted(m).values
    return out


def _nonincreasing(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


# ---------------------------------------------------------------------------
# gmres


def test_gmres_solves_a_small_system_as_lu_does():
    rng = np.random.default_rng(0)
    size = 40
    A = np.eye(size) * 4 + rng.standard_normal((size, size)) / np.sqrt(size)
    d = 1.0 / np.diag(A)
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x, history = gmres(lambda v: A @ v, lambda v: d * v, g, 1e-12, size)
    assert np.max(np.abs(x - np.linalg.solve(A, g))) <= 1e-10
    assert history[0] == np.linalg.norm(g) and history[-1] <= 1e-12 * history[0]
    assert _nonincreasing(history) and len(history) - 1 <= size


def test_gmres_of_zero_data_is_zero():
    x, history = gmres(lambda v: 2 * v, lambda v: v, np.zeros(5, dtype=complex), 1e-10, 10)
    assert np.all(x == 0) and history == [0.0]


def test_gmres_stops_at_max_iter_with_a_nonincreasing_history():
    rng = np.random.default_rng(1)
    A = np.diag(np.arange(1.0, 31.0)) + 0.1 * rng.standard_normal((30, 30))
    _, history = gmres(lambda v: A @ v, lambda v: v, rng.standard_normal(30) + 0j,
                       1e-14, 5)
    assert len(history) == 6 and _nonincreasing(history)


# ---------------------------------------------------------------------------
# agreement


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("expr", SEPARATED)
def test_krylov_matches_dense_lu_and_the_weighted_shift_form(monkeypatch, expr, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    mu, terms = SEPARATED[expr]
    sym = _symbol(expr, n, N, mu)
    assert sym.separated() is not None
    g = helpers.random_sequence(box, np.random.default_rng(n + N))
    report = solve_krylov(sym, mu, g, tol=1e-10)
    assert report.method == "krylov-gmres"
    assert report.residual_l2 <= 1e-10 * g.norm2()
    assert report.iterations == len(report.residual_history) - 1 >= 1
    assert _nonincreasing(report.residual_history)
    dense = solve_dense(sym, mu, g, tol=1e-10).solution.values
    got = report.solution.values
    assert np.max(np.abs(got - dense)) <= 1e-9 * np.max(np.abs(dense))
    oracle = _weighted_shift(terms(box.points.astype(float), n), report.solution)
    assert np.linalg.norm(g.values - oracle) <= 1e-9 * g.norm2()
    assert solve(sym, g, mu=mu).method == "krylov-gmres"


def test_krylov_holds_no_square_array():
    sym = _symbol("1.5 + k_1**2 + exp(2*pi*i*x_1)", 1, 1024)
    K = sym.box.size
    g = helpers.random_sequence(sym.box, np.random.default_rng(0))
    tracemalloc.start()
    try:
        report = solve_krylov(sym, 2.0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.residual_l2 <= 1e-10 * g.norm2()
    assert sym._samples is None and sym._kappa is None
    assert peak < K**2 * 16 / 10


# ---------------------------------------------------------------------------
# failures


def test_krylov_rejects_bad_symbols_as_dense_lu_does():
    g = LatticeSequence.delta(LatticeBox(1, 8))
    not_elliptic = _symbol("(1 + k_1**2)*(exp(2*pi*i*x_1) - 1)", 1, 8)
    vanishing = _symbol("1 + k_1**2 - exp(2*pi*i*x_1)", 1, 8)  # zero at k = 0, x = 0
    for sym, error in [(not_elliptic, NotEllipticError), (vanishing, SingularSymbolError)]:
        with pytest.raises(error) as dense:
            solve_dense(sym, 2.0, g)
        for method in ("krylov", "auto"):
            with pytest.raises(error) as krylov:
                solve(sym, g, method, mu=2.0)
            assert (str(krylov.value), krylov.value.witness) == (
                str(dense.value), dense.value.witness)


def _job(tmp_path, expr, N, name="job.json", **solve_keys):
    box = LatticeBox(1, N)
    write_sequence_csv(helpers.random_sequence(box, np.random.default_rng(2)),
                       tmp_path / "g.csv")
    job = {"box": {"n": 1, "N": N},
           "symbols": [{"name": "E", "kind": "expression", "params": {"expr": expr}}],
           "solve": {"symbol": "E", "input": "g.csv", "mu": 2.0, **solve_keys}}
    (tmp_path / name).write_text(json.dumps(job))
    return str(tmp_path / name)


def test_non_elliptic_krylov_job_exits_4_with_the_dense_witness(tmp_path, capsys):
    errors = {}
    for method in ("dense", "krylov", "auto"):
        path = _job(tmp_path, "(1 + abs_k**2) * (exp(2*pi*i*x_1) - 1)", 8,
                    name=f"{method}.json", method=method)
        assert main(["solve", "--config", path]) == 4
        errors[method] = capsys.readouterr().err
    assert errors["krylov"] == errors["auto"] == errors["dense"]
    assert "x=(0.0,)" in errors["dense"]


def test_krylov_above_its_iteration_budget_raises_and_auto_falls_back_to_lu():
    sym = _symbol("1 + k_1**2 + exp(2*pi*i*x_1)", 1, 16)
    g = helpers.random_sequence(sym.box, np.random.default_rng(3))
    with pytest.raises(DivergenceError, match="krylov residual") as err:
        solve(sym, g, "krylov", mu=2.0, max_iter=1)
    history = err.value.history
    assert len(history) == 2 and _nonincreasing(history) and history[0] == g.norm2()
    report = solve(sym, g, mu=2.0, max_iter=1)
    assert report.method == "dense-lu"
    assert report.warnings == [
        f"krylov-gmres did not converge ({err.value}); solved by dense LU instead"]
    assert report.residual_l2 <= 1e-10 * g.norm2()
    lu = solve_dense(sym, 2.0, g)
    assert np.array_equal(report.solution.values, lu.solution.values)


def test_krylov_fallback_in_the_cli(tmp_path, capsys, monkeypatch):
    expr = "1 + abs_k**2 + exp(2*pi*i*x_1)"
    path = _job(tmp_path, expr, 8, method="auto", max_iter=1)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "f.csv")]) == 0
    report = capsys.readouterr().out
    assert "method: dense-lu" in report
    assert "warning: krylov-gmres did not converge (krylov residual" in report
    krylov = _job(tmp_path, expr, 8, name="krylov.json", method="krylov", max_iter=1)
    assert main(["solve", "--config", krylov]) == 3
    assert "krylov residual" in capsys.readouterr().err
    monkeypatch.setattr("pdz.quantize.DENSE_CAP", 16)  # below K = 17: no fallback
    assert main(["solve", "--config", path]) == 3
    assert "krylov residual" in capsys.readouterr().err


def test_auto_does_not_take_krylov_when_the_mean_symbol_vanishes():
    # a weighted shift: sigma-bar = 0 at every k, so 1 / sigma-bar is no
    # preconditioner
    sym = _symbol("(2 + k_1**2)*exp(2*pi*i*x_1)", 1, 8)
    assert sym.separated() is not None
    g = helpers.random_sequence(sym.box, np.random.default_rng(4))
    report = solve(sym, g, mu=2.0)
    assert report.method == "dense-lu"
    assert report.residual_l2 <= 1e-10 * g.norm2()
    with pytest.raises(DomainMismatchError, match="mean of the symbol"):
        solve(sym, g, "krylov", mu=2.0)


def test_krylov_solves_a_symbol_without_a_separated_form():
    # the mean over the grid comes from one pass over the rows instead
    sym = _symbol("1 + abs_k**2 + exp(2*pi*i*x_1*(1 + 0*k_1))", 1, 8)
    assert sym.separated() is None
    g = helpers.random_sequence(sym.box, np.random.default_rng(5))
    report = solve(sym, g, "krylov", mu=2.0)
    assert report.method == "krylov-gmres"
    dense = solve_dense(sym, 2.0, g).solution.values
    assert np.max(np.abs(report.solution.values - dense)) <= 1e-9 * np.max(np.abs(dense))
    assert solve(sym, g, mu=2.0).method == "dense-lu"


def test_auto_reads_k_constancy_off_the_factors_before_krylov(monkeypatch):
    # the ellipticity check is the one pass over the rows; the route choice,
    # GMRES and the residual go through the separated form (K = 17)
    helpers.force_block_rows(monkeypatch, 1, 17)
    sym = _symbol("2 + k_1**2 + exp(2*pi*i*x_1)", 1, 8)
    passes = []
    blocks = type(sym).blocks

    def counted(self):
        passes.append(self)
        return blocks(self)

    monkeypatch.setattr(type(sym), "blocks", counted)
    g = helpers.random_sequence(sym.box, np.random.default_rng(6))
    assert solve(sym, g, mu=2.0).method == "krylov-gmres"
    assert len(passes) == 1


def test_auto_sends_a_k_constant_sum_of_varying_factors_to_krylov():
    # A_t = k_1^2 and -k_1^2 vary with k, the sum of their terms does not:
    # auto does not scan the rows to find that, and GMRES solves the
    # multiplier as well
    sym = _symbol("3 + k_1**2*x_1 - k_1**2*x_1 + exp(2*pi*i*x_1)", 1, 8, mu=0.0)
    assert sym.separated() is not None and sym.constant_row() is None
    g = helpers.random_sequence(sym.box, np.random.default_rng(7))
    report = solve(sym, g)
    assert report.method == "krylov-gmres"
    exact = solve(sym, g, "multiplier").solution.values
    assert np.max(np.abs(report.solution.values - exact)) <= 1e-9 * np.max(np.abs(exact))
