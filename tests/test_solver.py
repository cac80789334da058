import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdz import (ConfigError, DivergenceError, DomainMismatchError, LatticeSequence,
                 NonFiniteValueError, NotEllipticError, ResourceLimitError, SampledSymbol,
                 SingularSymbolError, SymbolClassParams, SymbolDefinition, SymbolExpansion,
                 WeightedNormParams, apply, invert_multiplier, kernel, kernel_apply,
                 matrix, parametrix, partial_sum, sample, solve, solve_dense,
                 solve_elliptic, solver, weighted_norm)

import helpers
import oracles


def _example3(n, N, a=1.0):
    box, grid = helpers.box_and_grid(n, N)
    sym = helpers.example3_symbol(box, grid, a)
    sym.params = SymbolClassParams(0.0)
    return box, grid, sym


def _growth_fixture(N, mu=1.0):
    """Order-mu growth version of the two-sided difference operator family:
    sqrt(1 + |k|^2)^mu (2i sin(2 pi x) - 1), elliptic of order mu."""
    box, grid = helpers.box_and_grid(1, N)
    w = np.sqrt(1.0 + box.points[:, 0].astype(float) ** 2) ** mu
    m = 2j * np.sin(2 * np.pi * grid.nodes[:, 0]) - 1.0
    return box, grid, SampledSymbol(box, grid, np.outer(w, m),
                                    params=SymbolClassParams(mu))


# ---------------------------------------------------------------------------
# exact multiplier inversion


def test_invert_multiplier_on_delta_data():
    box, grid, sym = _example3(1, 16)
    g = LatticeSequence.delta(box)
    report = invert_multiplier(sym, g)
    assert report.method == "exact-multiplier"
    residual = np.max(np.abs(apply(sym, report.solution).values - g.values))
    assert residual <= 1e-11
    # quadrature oracle for the solution values
    oracle = oracles.dft_inverse(1.0 / sym.samples[0], box, grid)
    np.testing.assert_allclose(report.solution.values, oracle, atol=1e-12)


def test_invert_multiplier_on_random_data():
    box, grid, sym = _example3(1, 16)
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = helpers.random_sequence(box, rng)
        report = invert_multiplier(sym, g)
        assert np.max(np.abs(apply(sym, report.solution).values - g.values)) <= 1e-10
        fresh = np.linalg.norm(g.values - apply(sym, report.solution).values)
        assert abs(report.residual_l2 - fresh) <= 1e-12


def test_invert_constant_symbol_divides():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.multiplier_symbol(box, grid, lambda x: np.full(x.shape[0], 2.0 - 1j))
    g = helpers.random_sequence(box, np.random.default_rng(1))
    report = invert_multiplier(sym, g)
    np.testing.assert_allclose(report.solution.values, g.values / (2.0 - 1j),
                               atol=1e-13)


def test_invert_multiplier_detects_grid_zero():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.forward_diff_symbol(box, grid)
    with pytest.raises(SingularSymbolError) as err:
        invert_multiplier(sym, LatticeSequence.delta(box))
    assert err.value.witness == (0.0,)


def test_invert_multiplier_redirects_lattice_dependent_input():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.weight_symbol(box, grid, 1.0)
    with pytest.raises(DomainMismatchError, match="solve_elliptic"):
        invert_multiplier(sym, LatticeSequence.delta(box))


def test_invert_multiplier_warns_near_zero():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.multiplier_symbol(
        box, grid, lambda x: np.exp(2j * np.pi * x[:, 0]) - 1.0 + 1e-7)
    report = invert_multiplier(sym, LatticeSequence.delta(box))
    assert report.warnings


def test_weighted_transfer_constant_stable_across_sizes():
    for s in (0.0, 2.0):
        ratios = []
        for N in (8, 16, 32):
            box, grid, sym = _example3(1, N)
            profile = (1.0 + np.abs(box.points[:, 0]).astype(float)) ** (-s - 1.0)
            g = LatticeSequence(box, profile.astype(complex))
            report = invert_multiplier(sym, g, s_values=(s,))
            num = weighted_norm(report.solution, WeightedNormParams(s))
            den = weighted_norm(g, WeightedNormParams(s))
            ratios.append(num / den)
        assert max(ratios) / min(ratios) <= 1.10, (s, ratios)


# ---------------------------------------------------------------------------
# parametrix-preconditioned GMRES


def _near_singular_fixture(N):
    """1 + k^2 + e^{2 pi i x}: elliptic of order 2, but 1 + e^{2 pi i x}
    vanishes at x = 1/2, so the k = 0 row is nearly singular."""
    box, grid = helpers.box_and_grid(1, N)
    k1 = box.points[:, 0].astype(float)
    return box, SampledSymbol(box, grid,
                              (1.0 + k1**2)[:, None]
                              + np.exp(2j * np.pi * grid.nodes[:, 0])[None, :],
                              params=SymbolClassParams(2.0))


def test_solve_elliptic_on_multiplier_converges_immediately():
    box, grid, sym = _example3(1, 8)
    g = helpers.random_sequence(box, np.random.default_rng(2))
    report = solve_elliptic(sym, 0.0, g, 2)
    assert report.method == "parametrix-iteration"
    assert report.iterations == 1
    direct = invert_multiplier(sym, g)
    np.testing.assert_allclose(report.solution.values, direct.solution.values,
                               atol=1e-10)


def test_solve_elliptic_matches_dense_lu():
    box, sym = _near_singular_fixture(16)
    g = LatticeSequence.delta(box)
    report = solve_elliptic(sym, 2.0, g, 2, max_iter=30, tol=1e-10)
    assert report.residual_l2 <= 1e-8
    assert report.iterations <= 30
    lu = np.linalg.solve(matrix(sym).values, g.values)
    assert np.max(np.abs(report.solution.values - lu)) <= 1e-7


def test_solve_elliptic_reports_divergence_with_history():
    # three GMRES steps leave the recomputed residual far above tol, and the
    # solver must report it with the estimates it took
    box, sym = _near_singular_fixture(256)
    g = LatticeSequence.delta(box)
    with pytest.raises(DivergenceError, match="parametrix residual") as err:
        solve_elliptic(sym, 2.0, g, 3, max_iter=3)
    history = err.value.history
    assert history[0] == g.norm2() and len(history) == 4
    assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("data", ["delta", "random"])
@pytest.mark.parametrize("N, order", [(256, 3), (64, 5)])
def test_solve_elliptic_meets_tol_where_the_full_parametrix_sum_loses_its_digits(N, order,
                                                                              data):
    # the higher terms grow where |sigma| is small (max|B| 2.6e10 at N = 256
    # order 3, 5.4e12 at N = 64 order 5, against 160 and 41 for B_0); the
    # full sum once left a residual of 0.3 and 8.2 here, and an order 5
    # residual once overflowed. Stopping each row at its smallest term
    # solves both without a numpy warning.
    box, sym = _near_singular_fixture(N)
    rng = np.random.default_rng(0)
    g = (LatticeSequence.delta(box) if data == "delta" else
         LatticeSequence(box, rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_elliptic(sym, 2.0, g, order, max_iter=60)
    assert report.iterations <= 10
    assert np.linalg.norm(g.values - apply(sym, report.solution).values) <= 1e-10 * g.norm2()
    lu = np.linalg.solve(matrix(sym).values, g.values)
    assert np.max(np.abs(report.solution.values - lu)) <= 1e-9


class _Built(Exception):
    """Raised in place of the GMRES run once its preconditioner is built."""


def _preconditioner(monkeypatch, sym, mu, order):
    """``(B, peak)``: the symbol whose Op(B) :func:`solve_elliptic` hands to
    GMRES as the preconditioner, and the tracemalloc peak of building it in
    units of sym's (K x X) samples, which exist before and are not counted."""
    seen = {}

    def built(sym, g, precond, *args):
        seen.update(peak=tracemalloc.get_traced_memory()[1], precond=precond)
        raise _Built

    monkeypatch.setattr(solver, "_solve_by_gmres", built)
    g = LatticeSequence.delta(sym.box)
    tracemalloc.start()
    try:
        with pytest.raises(_Built):
            solve_elliptic(sym, mu, g, order)
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(solver, "apply", lambda B, f: seen.update(B=B) or f)
    seen["precond"](g.values)
    return seen["B"], seen["peak"] / sym.samples.nbytes


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def test_the_preconditioner_build_holds_at_most_two_sample_arrays(monkeypatch):
    # the sum of the terms and the blocks in flight; a whole-array recursion
    # summed afterwards held 7.25 here
    assert _preconditioner(monkeypatch, helpers.elliptic_symbol(2, 24), 2.0, 4)[1] <= 2.0


def test_the_preconditioner_is_the_parametrix_sum_where_no_row_is_cut(monkeypatch):
    # (5 + e^{2 pi i k_1/M} + e^{2 pi i k_2/M})(1 + 0.3 e^{2 pi i x_1}): no
    # lattice difference vanishes, and on every row each term of the
    # parametrix is smaller than the one before
    box, grid = helpers.box_and_grid(2, 6)
    lattice = 5.0 + np.exp(2j * np.pi * box.points / box.M).sum(axis=1)
    sym = SampledSymbol(box, grid, np.outer(lattice, 1.0 + 0.3 * np.exp(
        2j * np.pi * grid.nodes[:, 0])), params=SymbolClassParams(0.0))
    expansion = parametrix(SymbolExpansion([sym], [0.0]), 0.0, 4)
    sizes = [np.abs(t.samples).max(axis=1) for t in expansion.terms]
    assert all((b < a).all() for a, b in zip(sizes, sizes[1:]))  # no row is cut
    B = _preconditioner(monkeypatch, sym, 0.0, 4)[0]
    assert np.array_equal(_bits(B.samples), _bits(partial_sum(expansion, 4).samples))


def test_the_preconditioner_stops_each_row_at_its_smallest_term(monkeypatch):
    # the rows where |sigma| is small are cut, the others keep every term
    box, sym = _near_singular_fixture(64)
    order = 5
    terms = [t.samples for t in parametrix(SymbolExpansion([sym], [2.0]), 2.0, order).terms]
    want, cut = terms[0].copy(), 0
    for k in range(box.size):
        for previous, term in zip(terms, terms[1:]):
            if not np.abs(term[k]).max() < np.abs(previous[k]).max():
                cut += 1
                break
            want[k] += term[k]
    assert 0 < cut < box.size
    B = _preconditioner(monkeypatch, sym, 2.0, order)[0]
    assert np.array_equal(_bits(B.samples), _bits(want))


def test_the_solver_sums_no_expansion():
    # solve_elliptic keeps the truncated sum of the parametrix pass, never
    # the expansion's terms
    tree = ast.parse(Path(solver.__file__).read_text())
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"partial_sum", "parametrix"}


def test_solve_elliptic_raises_at_max_iter_above_tolerance():
    # the convergent dense-LU fixture needs more than two GMRES steps
    box, sym = _near_singular_fixture(16)
    with pytest.raises(DivergenceError, match="above tol") as err:
        solve_elliptic(sym, 2.0, LatticeSequence.delta(box), 2, max_iter=2, tol=1e-10)
    assert len(err.value.history) == 3
    assert err.value.history[-1] > 1e-10


def test_solve_elliptic_converges_at_order_3_on_the_near_singular_fixture():
    # a Richardson iteration with this parametrix grows here; GMRES with it
    # as the preconditioner converges
    box, sym = _near_singular_fixture(16)
    g = LatticeSequence.delta(box)
    report = solve_elliptic(sym, 2.0, g, 3, max_iter=30, tol=1e-10)
    assert report.residual_l2 <= 1e-10 * g.norm2()
    lu = np.linalg.solve(matrix(sym).values, g.values)
    assert np.max(np.abs(report.solution.values - lu)) <= 1e-9


def test_parametrix_preconditioner_beats_the_mean_on_an_x_dependent_principal_part():
    # 2 + k^2 (1 + 0.9 cos 2 pi x): the grid mean of sigma misses the x
    # dependence of the principal part, the parametrix does not
    box, grid = helpers.box_and_grid(1, 256)
    k1 = box.points[:, 0].astype(float)
    sym = SampledSymbol(box, grid, 2.0 + np.outer(k1**2, 1.0 + 0.9 * np.cos(
        2 * np.pi * grid.nodes[:, 0])), params=SymbolClassParams(2.0))
    g = helpers.random_sequence(box, np.random.default_rng(7))
    iterative = solve(sym, g, "iterative", mu=2.0, order=2, max_iter=100)
    krylov = solve(sym, g, "krylov", mu=2.0, max_iter=100)
    assert iterative.iterations < krylov.iterations
    lu = np.linalg.solve(matrix(sym).values, g.values)
    assert np.max(np.abs(iterative.solution.values - lu)) <= 1e-9


def test_solve_elliptic_maps_a_singular_hessenberg_to_singular_symbol_error(monkeypatch):
    box, sym = _near_singular_fixture(8)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSymbolError, match="singular"):
        solve_elliptic(sym, 2.0, LatticeSequence.delta(box), 2)


def test_solve_elliptic_raises_on_a_non_finite_residual(monkeypatch):
    box, sym = _near_singular_fixture(16)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(np.shape(b), 1e200 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match="residual"):
            solve_elliptic(sym, 2.0, LatticeSequence.delta(box), 2)


def test_solve_elliptic_rejects_non_elliptic_symbol():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.forward_diff_symbol(box, grid)
    sym.params = SymbolClassParams(0.0)
    with pytest.raises(NotEllipticError):
        solve_elliptic(sym, 0.0, LatticeSequence.delta(box), 2)


def test_solve_elliptic_growth_fixture_weighted_transfer():
    # data with finite s = 0 weighted norm; solutions gain mu = 1 weights
    mu = 1.0
    ratios = []
    for N in (8, 16):
        box, grid, sym = _growth_fixture(N, mu)
        profile = (1.0 + np.abs(box.points[:, 0]).astype(float)) ** (-1.0)
        g = LatticeSequence(box, profile.astype(complex))
        report = solve_elliptic(sym, mu, g, 3, max_iter=60, tol=1e-11)
        assert report.residual_l2 <= 1e-9
        num = weighted_norm(report.solution, WeightedNormParams(mu))
        den = weighted_norm(g, WeightedNormParams(0.0))
        assert np.isfinite(num)
        ratios.append(num / den)
    assert ratios[1] <= 1.5 * ratios[0]


def test_solve_elliptic_iteration_count_non_increasing_in_expansion_order():
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    sym = SampledSymbol(box, grid,
                        (1.0 + k1**2)[:, None]
                        + 0.3 * np.exp(2j * np.pi * grid.nodes[:, 0])[None, :],
                        params=SymbolClassParams(2.0))
    g = helpers.random_sequence(box, np.random.default_rng(3))
    counts = [solve_elliptic(sym, 2.0, g, order, max_iter=50, tol=1e-10).iterations
              for order in (1, 2, 3)]
    assert counts[0] >= counts[1] >= counts[2]


def test_solve_reports_zero_data():
    box, grid, sym = _example3(1, 4)
    report = solve_elliptic(sym, 0.0, LatticeSequence.zeros(box), 2)
    assert report.residual_l2 == 0.0
    assert np.all(report.solution.values == 0.0)


def test_residual_recomputation_closure():
    box, grid, sym = _example3(1, 8)
    g = helpers.random_sequence(box, np.random.default_rng(4))
    report = solve_elliptic(sym, 0.0, g, 2)
    fresh = np.linalg.norm(g.values - apply(sym, report.solution).values)
    assert abs(report.residual_l2 - fresh) <= 1e-12
    for s, value in report.weighted_residuals.items():
        resid = LatticeSequence(box, g.values - apply(sym, report.solution).values)
        assert abs(value - weighted_norm(resid, WeightedNormParams(s))) <= 1e-12


# ---------------------------------------------------------------------------
# dense LU


def test_solve_dense_matches_lu_and_recomputes_its_residual():
    box, sym = _near_singular_fixture(16)
    g = helpers.random_sequence(box, np.random.default_rng(5))
    report = solve_dense(sym, 2.0, g, tol=1e-10, s_values=(0.0, 2.0))
    assert report.method == "dense-lu"
    assert report.iterations == 0
    lu = np.linalg.solve(matrix(sym).values, g.values)
    assert np.max(np.abs(report.solution.values - lu)) <= 1e-12
    resid = LatticeSequence(box, g.values - apply(sym, report.solution).values)
    assert report.residual_l2 == resid.norm2()
    assert report.residual_l2 <= 1e-10 * g.norm2()
    for s, value in report.weighted_residuals.items():
        assert value == weighted_norm(resid, WeightedNormParams(s))


def test_solve_dense_warns_near_zero():
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    sym = SampledSymbol(box, grid, (k1**2 + 1e-7)[:, None] * np.ones(grid.size)[None, :],
                        params=SymbolClassParams(2.0))
    # data away from the near-zero row k = 0, so the solution stays O(1)
    report = solve_dense(sym, 2.0, LatticeSequence.delta(box, at=(1,)))
    assert report.warnings and "ill-conditioned" in report.warnings[0]


def _bad_symbols():
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    not_elliptic = SampledSymbol(
        box, grid, (1.0 + k1**2)[:, None] * (np.exp(2j * np.pi * grid.nodes[:, 0]) - 1.0),
        params=SymbolClassParams(2.0))
    vanishing = SampledSymbol(
        box, grid, (k1**2)[:, None] * np.ones(grid.size)[None, :],
        params=SymbolClassParams(2.0))
    return [(not_elliptic, NotEllipticError), (vanishing, SingularSymbolError)]


@pytest.mark.parametrize("case", [0, 1], ids=["not-elliptic", "vanishing"])
def test_solve_dense_rejects_bad_symbols_as_refinement_does(case):
    sym, error = _bad_symbols()[case]
    g = LatticeSequence.delta(sym.box)
    with pytest.raises(error) as dense:
        solve_dense(sym, 2.0, g)
    with pytest.raises(error) as iterative:
        solve_elliptic(sym, 2.0, g, 2)
    assert dense.value.witness == iterative.value.witness


def test_solve_dense_maps_a_singular_matrix_to_singular_symbol_error(monkeypatch):
    box, sym = _near_singular_fixture(8)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSymbolError, match="singular"):
        solve_dense(sym, 2.0, LatticeSequence.delta(box))


def test_solve_dense_raises_divergence_above_tolerance():
    box, sym = _near_singular_fixture(16)
    with pytest.raises(DivergenceError, match="above tol") as err:
        solve_dense(sym, 2.0, LatticeSequence.delta(box), tol=1e-30)
    assert len(err.value.history) == 1
    assert err.value.history[0] > 1e-30


def test_solve_dense_raises_on_a_non_finite_residual(monkeypatch):
    box, sym = _near_singular_fixture(16)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, 1e200 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match="residual"):
            solve_dense(sym, 2.0, LatticeSequence.delta(box))


def test_solve_dense_rejects_data_on_another_box():
    box, sym = _near_singular_fixture(8)
    other = LatticeSequence.delta(helpers.box_and_grid(1, 4)[0])
    with pytest.raises(DomainMismatchError):
        solve_dense(sym, 2.0, other)


# ---------------------------------------------------------------------------
# route policy


@pytest.mark.parametrize("method", ["auto", "multiplier"])
def test_solve_multiplier_route_scans_the_rows_once(monkeypatch, method):
    # one pass checks k-constancy and feeds the division, one recomputes the
    # residual; one-row blocks keep the sampled symbol streamed (K = 17)
    helpers.force_block_rows(monkeypatch, 1, 17)
    box, grid = helpers.box_and_grid(1, 8)
    sym = sample(SymbolDefinition(lambda k, x: 3.0 + np.exp(2j * np.pi * x[..., 0])),
                 box, grid)
    passes = []
    blocks = SampledSymbol.blocks

    def counted(self):
        passes.append(self)
        return blocks(self)

    monkeypatch.setattr(SampledSymbol, "blocks", counted)
    g = helpers.random_sequence(box, np.random.default_rng(3))
    report = solve(sym, g, method)
    assert report.method == "exact-multiplier"
    assert len(passes) == 2
    np.testing.assert_allclose(apply(sym, report.solution).values, g.values, atol=1e-12)


def test_solve_routes_a_lattice_dependent_symbol_inside_the_cap_to_lu():
    box, sym = _near_singular_fixture(8)
    g = helpers.random_sequence(box, np.random.default_rng(4))
    report = solve(sym, g, mu=2.0)
    assert report.method == "dense-lu"
    lu = solve_dense(sym, 2.0, g)
    assert np.array_equal(report.solution.values, lu.solution.values)


def test_solve_named_routes_match_the_direct_calls():
    box, sym = _near_singular_fixture(8)
    g = helpers.random_sequence(box, np.random.default_rng(6))
    dense = solve(sym, g, "dense", mu=2.0, tol=1e-10, s_values=(0.0, 1.0))
    assert dense.method == "dense-lu" and set(dense.weighted_residuals) == {0.0, 1.0}
    iterative = solve(sym, g, "iterative", mu=2.0, order=2, max_iter=40)
    direct = solve_elliptic(sym, 2.0, g, 2, max_iter=40)
    assert iterative.method == "parametrix-iteration"
    assert np.array_equal(iterative.solution.values, direct.solution.values)
    assert np.max(np.abs(iterative.solution.values - dense.solution.values)) <= 1e-9
    with pytest.raises(DomainMismatchError, match="solve_elliptic"):
        solve(sym, g, "multiplier")
    with pytest.raises(ConfigError, match="unknown method 'lu'"):
        solve(sym, g, "lu")


def test_one_dense_cap_governs_every_dense_path(monkeypatch):
    monkeypatch.setattr("pdz.quantize.DENSE_CAP", 16)  # below K = 17
    box, sym = _near_singular_fixture(8)
    g = LatticeSequence.delta(box)
    assert solve(sym, g, mu=2.0, order=2, max_iter=40).method == "parametrix-iteration"
    with pytest.raises(ResourceLimitError, match="cap is 16"):
        matrix(sym)
    with pytest.raises(ResourceLimitError, match="cap is 16"):
        kernel_apply(kernel(sym), g)
    with pytest.raises(ResourceLimitError, match="cap is 16"):
        solve_dense(sym, 2.0, g)
