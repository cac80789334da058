"""Expression symbols applied and transformed through their separated form
sigma = sum_t a_t(k) b_t(x), against the dense passes over the same
expression's samples: an array-backed symbol of one evaluator call on the
whole box x grid (the dense oracle), or the evaluator alone with no
separated form (the blocked dense path)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pdz import (LatticeBox, NonFiniteValueError, SampledSymbol, SymbolDefinition, apply,
                 compactness_tail, compose, ellipticity_check, hs_norm, kernel_decay_fit,
                 lp_bound_report, matrix, sample, solve, trace)
from pdz import analysis, config, symbols
from pdz import io as pdzio
from pdz.config import build_symbol
from pdz.solver import _row_scan
from pdz.symbols import require_invertible

import helpers

#: (n, N) per block setting, as in test_stream: two blocks each at the
#: default size, odd K under forced one- and two-row blocks.
BOXES = {None: [(1, 150), (2, 9), (3, 3)], 1: [(1, 6), (2, 3), (3, 2)],
         2: [(1, 6), (2, 3), (3, 2)]}

#: Separable expressions ({n} is the last axis) and their term counts.
SEPARABLE = {
    "1.2*exp(2*pi*i*x_1)*(1 + abs_k) + 0.7*cos(2*pi*x_{n})": 2,
    "1.1*(1 + abs_k) + 0.8*exp(2*pi*i*x_1) + 0.3*k_{n}*exp(-2*pi*i*x_{n})": 3,
    "1.5 + 0.8*exp(2*pi*i*x_1)/(1 + k_1**2)": 2,
    "(k_1 + cos(2*pi*x_1))**2 - k_{n}*sin(2*pi*x_{n})/3": 5,
    "-(2*k_1 - x_{n})*(x_1 + k_1)/(2 + abs_k)": 4,
    "3 + exp(2*pi*i*x_1)": 1,
    "(1 + abs_k)**2": 1,
    "+(k_1*exp(2*pi*i*x_{n}))": 1,
    "(k_1*cos(2*pi*x_{n}))**2": 1,
    "(k_1*exp(2*pi*i*x_{n}))**2": 1,
    "((1 + k_1**2)*(2 + cos(2*pi*x_1)))**-1": 1,
}

#: Expressions with no separated form.
NON_SEPARABLE = [
    "exp(2*pi*i*k_1*x_1/7)",
    "3 + exp(2*pi*i*x_1*(1 + 0*k_1))",
    "sin(k_1 + x_1) + 2",
    "1/(3 + k_1**2 + sin(2*pi*x_1))",
    "(3 + k_1**2 + cos(2*pi*x_1))**0.5",
    "(3 + k_1**2 + cos(2*pi*x_1))**-1",
    "(20 + x_1*k_1)**1.5",
    "(2 + x_1)**k_1",
]


def _definition(expr: str, n: int, mu: float = 0.0) -> SymbolDefinition:
    return build_symbol({"name": "s", "kind": "expression",
                         "params": {"expr": expr.format(n=n), "mu": mu}}, n)


def _pair(expr: str, n: int, N: int, mu: float = 0.0):
    """The sampled symbol of ``expr`` and its array-backed dense oracle."""
    definition = _definition(expr, n, mu)
    box, grid = helpers.box_and_grid(n, N)
    values = definition.evaluator(box.points[:, None, :], grid.nodes[None, :, :])
    stored = SampledSymbol(box, grid, np.broadcast_to(values, (box.size, grid.size)),
                           params=definition.params)
    return sample(definition, box, grid), stored


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(got - want).max()) <= 1e-12 * scale


def _kernel_rows(text: str, n: int):
    """The (k, l) columns and the values of a kernel CSV."""
    body = np.array(text.split("\n", 1)[1].replace(",", " ").split(), dtype=float)
    rows = body.reshape(-1, 2 * n + 2)
    return rows[:, :2 * n], rows[:, 2 * n] + 1j * rows[:, 2 * n + 1]


@pytest.mark.parametrize("expr", SEPARABLE)
def test_expressions_compile_with_their_terms(expr):
    for n in (1, 2, 3):
        separated = _definition(expr, n).separated
        assert separated is not None and len(separated) == SEPARABLE[expr]


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("expr", SEPARABLE)
def test_separated_paths_equal_the_dense_oracle(monkeypatch, expr, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    separated, stored = _pair(expr, n, N)
    assert separated.separated() is not None and stored.separated() is None
    f = helpers.random_sequence(box, np.random.default_rng(n + N))
    _close(apply(separated, f).values, apply(stored, f).values)
    deviation, constant = _row_scan(separated)[1:]
    want_deviation, want_constant = _row_scan(stored)[1:]
    assert constant == want_constant
    assert abs(deviation - want_deviation) <= 1e-12 * max(1.0, want_deviation)
    got_points, got = _kernel_rows(pdzio.kernel_to_csv(separated), n)
    want_points, want = _kernel_rows(pdzio.kernel_to_csv(stored), n)
    assert np.array_equal(got_points, want_points)
    _close(got, want)
    _close(matrix(separated).values, matrix(stored).values)


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("kind", ["separated", "array", "non-separable"])
def test_lp_omega_and_compactness_tail_read_kappa_in_row_blocks(monkeypatch, kind, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    monkeypatch.setattr(analysis, "apply", lambda sym, f: f)  # the probes are not under test
    expr = ("1/(3 + k_1**2 + sin(2*pi*x_1))" if kind == "non-separable" else
            "1.1*(1 + abs_k) + 0.8*exp(2*pi*i*x_1) + 0.3*k_{n}*exp(-2*pi*i*x_{n})")

    def copy():
        sampled, stored = _pair(expr, n, N)
        return stored if kind == "array" else sampled

    sym, ref = copy(), copy()
    assert (sym.separated() is not None) == (kind == "separated")
    magnitudes = np.abs(ref.kappa())
    rep = lp_bound_report(sym, 2.0, n_random=1)
    assert rep.values["omega_l1"] == float(magnitudes.max(axis=0).sum())
    for cut in (0, N / 2, N - 0.5):
        want = float(magnitudes.sum(axis=1)[box.norms > cut].max())
        assert compactness_tail(sym, cut) == want
    assert sym._kappa is None
    if rows is not None:  # the last cut leaves whole row blocks with no masked rows
        assert any(not (box.norms[r] > N - 0.5).any()
                   for r in symbols.row_blocks(box.size, box.size))


#: Separated expressions for the kernel band: three bands, one band over a
#: constant, and one whose factors cancel (one x-factor taken with
#: coefficients of sum 0), so that the bound keeps columns where kappa is
#: only rounding and those columns must be read.
BAND = {
    "three-bands": "1.1*(1 + abs_k) + 0.8*exp(2*pi*i*x_1) + 0.3*k_{n}*exp(-2*pi*i*x_{n})",
    "ties": "3 + exp(2*pi*i*x_1)",
    "cancelling": "(2 + abs_k)*cos(2*pi*x_{n}) - (1 + abs_k)*cos(2*pi*x_{n})"
                  " - cos(2*pi*x_{n}) + 1",
}


def _band_reads(monkeypatch):
    """The columns each band read, :meth:`SampledSymbol.kappa_blocks` given
    columns, asks for."""
    reads, kappa_blocks = [], SampledSymbol.kappa_blocks

    def recorded(sym, columns=None):
        if columns is not None:
            reads.append(np.asarray(columns))
        return kappa_blocks(sym, columns)
    monkeypatch.setattr(SampledSymbol, "kappa_blocks", recorded)
    return reads


def _without_band(monkeypatch):
    monkeypatch.setattr(SampledSymbol, "kappa_bound", lambda sym: None)


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("expr", BAND.values(), ids=BAND.keys())
def test_kernel_csv_reads_the_band_with_the_bytes_of_the_full_pass(monkeypatch, expr, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, box.size)
    sym = sample(_definition(expr, n), box, grid)
    assert sym.separated() is not None
    reads = _band_reads(monkeypatch)
    text = pdzio.kernel_to_csv(sym)
    columns = reads[-1]
    assert len(columns) < box.size / 4
    if expr == BAND["cancelling"]:  # the x-factor's two columns are read and write nothing
        axis = np.eye(n, dtype=int)[-1]
        assert set(box.index_of(np.array([axis, -axis]))) <= set(columns.tolist())
        written = {ln.rsplit(",", 2)[0].split(",", n)[n] for ln in text.splitlines()[1:]}
        assert written == {",".join(["0"] * n)}
    _without_band(monkeypatch)
    assert text == pdzio.kernel_to_csv(sym)
    assert sym._samples is None and sym._kappa is None


@pytest.mark.parametrize("rows,n,N", helpers.block_cases({None: [(1, 150), (2, 9)],
                                                          1: [(1, 8), (2, 8)],
                                                          2: [(1, 8), (2, 8)]}))
@pytest.mark.parametrize("mu", [0.5, -1.0])
@pytest.mark.parametrize("expr", BAND.values(), ids=BAND.keys())
def test_decay_fit_reads_the_band_with_the_values_of_the_full_pass(monkeypatch, expr, mu,
                                                                   rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, box.size)
    sym = sample(_definition(expr, n, mu), box, grid)
    reads = _band_reads(monkeypatch)
    got = [rep.values for rep in analysis.kernel_decay_fits(sym, [0, 1, 2, 3])]
    assert reads and all(len(columns) < box.size for columns in reads)
    _without_band(monkeypatch)
    assert got == [rep.values for rep in analysis.kernel_decay_fits(sym, [0, 1, 2, 3])]


@pytest.mark.parametrize("rows,n,N", helpers.block_cases({1: [(1, 8), (2, 8)], 2: [(1, 8), (2, 8)]}))
def test_separated_kernel_decay_fit_equals_the_dense_oracle(monkeypatch, rows, n, N):
    helpers.force_block_rows(monkeypatch, rows, (2 * N + 1) ** n)
    separated, stored = _pair("1.5 + 0.8*exp(2*pi*i*x_1)/(1 + k_1**2)", n, N, mu=0.5)
    for n_t in (1, 3):
        got, want = kernel_decay_fit(separated, n_t), kernel_decay_fit(stored, n_t)
        assert got.values["witness_k"] == want.values["witness_k"]
        assert got.values["witness_m"] == want.values["witness_m"]
        assert abs(got.values["constant"] - want.values["constant"]) <= (
            1e-12 * want.values["constant"])


@pytest.mark.parametrize("rows,n,N", helpers.block_cases({1: [(1, 6), (2, 3), (3, 2)],
                                             2: [(1, 6), (2, 3), (3, 2)]}))
@pytest.mark.parametrize("expr,route,oracle_route", [
    ("3 + exp(2*pi*i*x_1)", "exact-multiplier", "exact-multiplier"),
    ("2 + cos(2*pi*x_{n}) + 0*k_1*x_1", "exact-multiplier", "exact-multiplier"),
    ("2 + k_1**2 + exp(2*pi*i*x_1)", "krylov-gmres", "dense-lu"),
])
def test_separated_solve_route_and_solution_match_the_dense_oracle(
        monkeypatch, expr, route, oracle_route, rows, n, N):
    # the array-backed oracle has no separated form, so auto solves it by LU
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    separated, stored = _pair(expr, n, N, mu=2.0 if route == "krylov-gmres" else 0.0)
    g = helpers.random_sequence(box, np.random.default_rng(5))
    got, want = solve(separated, g, mu=2.0), solve(stored, g, mu=2.0)
    assert (got.method, want.method) == (route, oracle_route)
    if route == oracle_route:
        _close(got.solution.values, want.solution.values)
    else:
        scale = float(np.abs(want.solution.values).max())
        assert float(np.abs(got.solution.values - want.solution.values).max()) <= 1e-9 * scale
    assert got.residual_l2 <= 1e-10 * g.norm2()


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("expr", ["3 + exp(2*pi*i*x_1)",
                                  "2*i*sin(2*pi*x_1) + 1 - cos(2*pi*x_{n})/3"])
def test_lattice_free_apply_is_bit_identical_to_the_blocked_dense_apply(monkeypatch, expr,
                                                                         rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    definition = _definition(expr, n)
    assert len(definition.separated) == 1
    separated = sample(definition, box, grid)
    dense = sample(SymbolDefinition(definition.evaluator), box, grid)
    assert separated.separated() is not None and dense.separated() is None
    f = helpers.random_sequence(box, np.random.default_rng(1))
    assert apply(separated, f).values.tobytes() == apply(dense, f).values.tobytes()


def test_example3_builtin_is_one_lattice_free_term():
    for n in (1, 2, 3):
        definition = build_symbol({"name": "T", "kind": "builtin",
                                   "params": {"builtin": "example3", "a": 1.0}}, n)
        assert len(definition.separated) == 1
        box, grid = helpers.box_and_grid(n, 2)
        A, _ = sample(definition, box, grid).separated()
        assert (A == 1).all()


@pytest.mark.parametrize("expr", NON_SEPARABLE)
def test_non_separable_expressions_take_the_dense_path(expr):
    definition = _definition(expr, 1)
    assert definition.separated is None
    box, grid = helpers.box_and_grid(1, 6)
    sym = sample(definition, box, grid)
    assert sym.separated() is None
    f = helpers.random_sequence(box, np.random.default_rng(2))
    dense = sample(SymbolDefinition(definition.evaluator), box, grid)
    assert apply(sym, f).values.tobytes() == apply(dense, f).values.tobytes()


def test_expressions_over_the_rank_cap_take_the_dense_path():
    cap = config.SEPARATED_RANK_CAP
    at_cap = " + ".join(f"k_1**{t}*cos({t}*2*pi*x_1)" for t in range(1, cap + 1))
    assert len(_definition(at_cap, 1).separated) == cap
    assert _definition(at_cap + " + k_1*x_1", 1).separated is None
    power = next(p for p in range(1, 8) if 2 ** p > cap)
    assert len(_definition(f"(k_1 + x_1)**{power - 1}", 1).separated) == 2 ** (power - 1)
    assert _definition(f"(k_1 + x_1)**{power}", 1).separated is None
    assert _definition("(k_1 + x_1)**1000000000", 1).separated is None
    box, grid = helpers.box_and_grid(1, 4)
    assert sample(_definition(at_cap + " + k_1*x_1", 1), box, grid).separated() is None


@pytest.mark.parametrize("expr", [
    "exp(2*pi*i*x_1)/(k_1 - 1)",                 # A non-finite at k_1 = 1
    "(1 + k_1**2)/sin(2*pi*x_1)",                # B non-finite at x_1 = 0
    "(1e200*k_1)*(1e200*cos(2*pi*x_1)) + 1",     # A, B finite, their product not
])
def test_non_finite_factors_raise_the_dense_witness(monkeypatch, expr):
    definition = _definition(expr, 1)
    assert definition.separated is not None
    box = LatticeBox(1, 6)
    grid = box.matched_grid()
    with pytest.raises(NonFiniteValueError) as err:
        values = definition.evaluator(box.points[:, None, :], grid.nodes[None, :, :])
        SampledSymbol(box, grid, values)
    expected = (str(err.value), err.value.where)
    helpers.force_block_rows(monkeypatch, 1, grid.size)
    for use in (lambda s: apply(s, helpers.random_sequence(box, np.random.default_rng(0))),
                pdzio.kernel_to_csv, matrix, lambda s: s.samples):
        sym = SampledSymbol(box, grid, definition)  # nothing evaluated yet
        with pytest.raises(NonFiniteValueError) as err:
            use(sym)
        assert (str(err.value), err.value.where) == expected
        assert sym.separated() is None


def _factors_only(definition: SymbolDefinition) -> SymbolDefinition:
    """``definition`` with an evaluator that raises: its samples can come
    only from the separated form."""
    def evaluator(k, x):
        raise AssertionError("the fused evaluator was called")
    return dataclasses.replace(definition, evaluator=evaluator)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's outcome
        return type(exc)


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
@pytest.mark.parametrize("expr", SEPARABLE)
def test_separated_symbols_never_call_their_fused_evaluator(monkeypatch, expr, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    definition = _factors_only(_definition(expr, n))
    _, stored = _pair(expr, n, N)
    want = stored.samples
    scale = max(1.0, float(np.abs(want).max()))

    def fresh():  # nothing built or stored yet
        return SampledSymbol(box, grid, definition, params=definition.params)

    got = np.concatenate([block for _, block in fresh().blocks()])
    _close(got, want)
    A, _ = fresh().separated()
    if len(A) == 1 and (A == 1).all():  # one lattice-free term: bit for bit
        assert np.array_equal(got, want)
    assert np.array_equal(fresh().samples, got)
    # rounding grows with the summands, not with a sum that may cancel: the
    # trace of (k_1 e^{2 pi i x_n})^2 is a cancelling sum of size 1e-10
    summands = {hs_norm: hs_norm(stored), trace: float(np.abs(want).sum()) * grid.weight}
    for fn, size in summands.items():
        assert abs(fn(fresh()) - fn(stored)) <= 1e-12 * max(1.0, size)
    ell, want_ell = ellipticity_check(fresh(), 0.0), ellipticity_check(stored, 0.0)
    assert ell.ok == want_ell.ok and abs(ell.constant - want_ell.constant) <= 1e-12 * scale
    smallest, want_smallest = (_outcome(require_invertible, s, 0.0) for s in (fresh(), stored))
    if isinstance(want_smallest, type):
        assert smallest is want_smallest
    else:
        assert abs(smallest - want_smallest) <= 1e-12 * scale
    points, values = _kernel_rows(pdzio.symbol_to_csv(fresh()), n)
    want_points, want_values = _kernel_rows(pdzio.symbol_to_csv(stored), n)
    assert np.array_equal(points, want_points)
    _close(values, want_values)
    composed, want_composed = compose(fresh(), fresh(), 2), compose(stored, stored, 2)
    _close(composed.samples, want_composed.samples)


@pytest.mark.parametrize("rows,n,N", helpers.block_cases({1: [(1, 6), (2, 3)],
                                                          2: [(1, 6), (2, 3)]}))
@pytest.mark.parametrize("expr,route", [("3 + exp(2*pi*i*x_1)", "exact-multiplier"),
                                        ("2 + k_1**2 + exp(2*pi*i*x_1)", "krylov-gmres")])
def test_separated_solve_never_calls_the_fused_evaluator(monkeypatch, expr, route, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    definition = _factors_only(_definition(expr, n, mu=2.0))
    _, stored = _pair(expr, n, N, mu=2.0)
    g = helpers.random_sequence(box, np.random.default_rng(9))
    got = solve(SampledSymbol(box, grid, definition, params=definition.params), g, mu=2.0)
    assert got.method == route
    want = solve(stored, g, mu=2.0).solution.values
    assert float(np.abs(got.solution.values - want).max()) <= 1e-9 * float(np.abs(want).max())
    assert got.residual_l2 <= 1e-10 * g.norm2()


def test_separated_symbol_is_finite_where_its_fused_evaluator_overflows():
    # the fused product forms 1e400 * 1e-400; the factors are k_1^2 and (1 + x_1)^2
    definition = _definition("((1e200*k_1)*(1e200*(1+x_1)))*((1e-200*k_1)*(1e-200*(1+x_1)))", 1)
    box, grid = helpers.box_and_grid(1, 3)
    values = sample(definition, box, grid).samples
    want = box.points[:, :1] ** 2 * (1 + grid.nodes[None, :, 0]) ** 2
    assert np.isfinite(values).all()
    _close(values, want)


def test_separated_apply_beyond_physical_memory_is_the_weighted_shift():
    # n=2 N=511: the (K x X) samples would be 17.5 TB; apply reads the factors
    box = LatticeBox(2, 511)
    definition = _factors_only(_definition("1.5 + k_1**2 + exp(2*pi*i*x_1)", 2))
    sym = sample(definition, box, box.matched_grid())
    f = helpers.random_sequence(box, np.random.default_rng(3))
    want = (1.5 + box.points[:, 0] ** 2) * f.values + f.shifted((1, 0)).values
    _close(apply(sym, f).values, want)


def test_hs_norm_and_trace_stream_the_row_blocks():
    # n=2 N=16: 19 MB of samples, of which hs_norm and trace hold a block at a time
    box, grid = helpers.box_and_grid(2, 16)
    sym = sample(_factors_only(_definition("1.5 + k_1**2 + exp(2*pi*i*x_1)", 2)), box, grid)
    tracemalloc.start()
    try:
        got = hs_norm(sym), trace(sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * box.size * grid.size / 4
    assert sym._samples is None
    a = 1.5 + box.points[:, 0] ** 2  # the x-mean of sigma; |sigma|^2 has x-mean a^2 + 1
    want = np.sqrt(np.sum(a**2 + 1.0)), np.sum(a)
    assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))
