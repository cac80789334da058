import ast
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdz import (AmplitudeDefinition, DomainMismatchError, LatticeBox, LatticeSequence,
                 NotEllipticError, OperatorMatrix, ResourceLimitError, SampledSymbol,
                 SingularSymbolError, SymbolClassParams, SymbolExpansion, TorusFunction,
                 adjoint, amplitude_to_symbol, calculus, compose, constant_symbol, matrix,
                 order_fit, parametrix, partial_sum, periodic_taylor, solve_elliptic,
                 symbol_from_operator, symbols, transpose)

import helpers
import oracles


def _mult(box, grid, profile):
    return helpers.multiplier_symbol(box, grid, profile)


def _k_symbol(box, grid, values):
    return SampledSymbol(box, grid,
                         np.repeat(np.asarray(values, complex)[:, None],
                                   grid.size, axis=1))


# ---------------------------------------------------------------------------
# composition


def test_compose_lattice_constant_pair_is_pointwise_product():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(0)
    s = _mult(box, grid, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]))
    t = _mult(box, grid, lambda x: np.exp(2j * np.pi * x[:, 0]) + 0.25)
    c1 = compose(s, t, 1)
    np.testing.assert_allclose(c1.samples, s.samples * t.samples, atol=1e-13)
    product = matrix(s).values @ matrix(t).values
    assert np.max(np.abs(matrix(c1).values - product)) <= 1e-12


def test_compose_x_independent_left_factor_is_exact_at_order_one():
    box, grid = helpers.box_and_grid(1, 5)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    s = _k_symbol(box, grid, a)
    t = helpers.shift_symbol(box, grid)
    c1 = compose(s, t, 1)
    np.testing.assert_allclose(c1.samples, s.samples * t.samples, atol=1e-13)
    product = matrix(s).values @ matrix(t).values
    assert np.max(np.abs(matrix(c1).values - product)) <= 1e-12
    # action check: Op(s)Op(t) f = a(k) f(k+1)
    f = helpers.random_sequence(box, rng)
    np.testing.assert_allclose(product @ f.values, a * f.shifted([1]).values,
                               atol=1e-12)


def test_compose_shift_with_multiplier_exact_at_order_two():
    box, grid = helpers.box_and_grid(1, 6)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    s = helpers.shift_symbol(box, grid)
    t = _k_symbol(box, grid, a)
    c2 = compose(s, t, 2)
    expected = np.outer(np.roll(a, -1), np.exp(2j * np.pi * grid.nodes[:, 0])).reshape(
        box.size, grid.size)
    # note the composed symbol carries the shifted coefficient a(k+1)
    np.testing.assert_allclose(c2.samples, expected, atol=1e-12)
    product = matrix(s).values @ matrix(t).values
    assert np.max(np.abs(matrix(c2).values - product)) <= 1e-11


def _one_sided_family(box, grid, rng, degree=2):
    """sigma with only nonnegative x-frequencies and lattice-polynomial
    coefficients of strongly decreasing size; tau with polynomial lattice
    dependence.  The expansion terminates at order degree+1."""
    k1 = box.points[:, 0].astype(float)
    x1 = grid.nodes[:, 0]
    coeffs = [1.0 + k1**2, 0.3 * (1.0 + np.abs(k1)), 0.05 * np.ones(box.size)]
    samples = sum(c[:, None] * np.exp(2j * np.pi * d * x1)[None, :]
                  for d, c in enumerate(coeffs[:degree + 1]))
    sigma = SampledSymbol(box, grid, samples)
    tau = SampledSymbol(box, grid, np.outer(
        1.0 + k1**2, 2.0 + np.cos(2 * np.pi * x1) + 0.3 * np.sin(4 * np.pi * x1)))
    return sigma, tau


def test_compose_finite_family_reaches_exactness_at_predicted_order():
    box, grid = helpers.box_and_grid(1, 8)
    sigma, tau = _one_sided_family(box, grid, np.random.default_rng(3), degree=2)
    product = matrix(sigma).values @ matrix(tau).values
    defects = []
    for order in (1, 2, 3, 4):
        defects.append(np.max(np.abs(matrix(compose(sigma, tau, order)).values
                                     - product)))
    assert defects[2] <= 1e-10  # exact at order = degree + 1
    assert defects[3] <= 1e-10
    for earlier, later in zip(defects, defects[1:]):
        assert later <= max(earlier, 1e-10)  # non-increasing above the roundoff floor


def test_compose_requires_matching_domains():
    box, grid = helpers.box_and_grid(1, 4)
    other_box, other_grid = helpers.box_and_grid(1, 5)
    with pytest.raises(DomainMismatchError):
        compose(constant_symbol(box, grid), constant_symbol(other_box, other_grid), 1)
    with pytest.raises(DomainMismatchError):
        compose(constant_symbol(box, grid), constant_symbol(box, grid), 0)


# ---------------------------------------------------------------------------
# adjoint and transpose


def test_adjoint_of_real_multiplier_is_itself():
    box, grid = helpers.box_and_grid(1, 4)
    s = _mult(box, grid, lambda x: 2.0 + np.cos(2 * np.pi * x[:, 0]))
    adj = adjoint(s, 1)
    np.testing.assert_allclose(adj.samples, s.samples, atol=1e-12)
    m = matrix(adj).values
    np.testing.assert_allclose(m, np.conj(m).T, atol=1e-12)


def test_adjoint_of_shift_is_inverse_shift():
    box, grid = helpers.box_and_grid(1, 4)
    adj = adjoint(helpers.shift_symbol(box, grid), 1)
    np.testing.assert_allclose(adj.samples,
                               np.broadcast_to(np.exp(-2j * np.pi * grid.nodes[:, 0]),
                                               adj.samples.shape), atol=1e-13)
    oracle = np.conj(matrix(helpers.shift_symbol(box, grid)).values).T
    assert np.max(np.abs(matrix(adj).values - oracle)) <= 1e-12


def test_adjoint_exact_on_one_sided_family():
    # conjugation flips x-frequencies, so the terminating family here has
    # nonpositive frequencies: sigma = w(k) e^{-2 pi i x}
    box, grid = helpers.box_and_grid(1, 6)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    s = SampledSymbol(box, grid, np.outer(w, np.exp(-2j * np.pi * grid.nodes[:, 0])))
    oracle = np.conj(matrix(s).values).T
    assert np.max(np.abs(matrix(adjoint(s, 1)).values - oracle)) > 1e-3
    assert np.max(np.abs(matrix(adjoint(s, 2)).values - oracle)) <= 1e-10
    assert np.max(np.abs(matrix(adjoint(s, 3)).values - oracle)) <= 1e-10
    # the exact adjoint symbol is conj(w(k+1)) e^{2 pi i x}
    expected = np.outer(np.conj(np.roll(w, -1)), np.exp(2j * np.pi * grid.nodes[:, 0]))
    np.testing.assert_allclose(adjoint(s, 2).samples, expected, atol=1e-12)


def test_transpose_of_multiplier_reflects_frequency():
    box, grid = helpers.box_and_grid(1, 4)
    s = _mult(box, grid, lambda x: 1.5 + np.exp(2j * np.pi * x[:, 0]))
    tr = transpose(s, 1)
    reflected = 1.5 + np.exp(-2j * np.pi * grid.nodes[:, 0])
    np.testing.assert_allclose(tr.samples,
                               np.broadcast_to(reflected, tr.samples.shape), atol=1e-12)
    assert np.max(np.abs(matrix(tr).values - matrix(s).values.T)) <= 1e-12


def test_transpose_of_shift():
    box, grid = helpers.box_and_grid(1, 3)
    tr = transpose(helpers.shift_symbol(box, grid), 1)
    np.testing.assert_allclose(
        tr.samples,
        np.broadcast_to(np.exp(-2j * np.pi * grid.nodes[:, 0]), tr.samples.shape),
        atol=1e-13)


def test_transpose_exact_on_one_sided_family():
    box, grid = helpers.box_and_grid(1, 6)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    s = SampledSymbol(box, grid, np.outer(w, np.exp(-2j * np.pi * grid.nodes[:, 0])))
    oracle = matrix(s).values.T
    assert np.max(np.abs(matrix(transpose(s, 2)).values - oracle)) <= 1e-10


def test_transpose_duality_bracket():
    box, grid = helpers.box_and_grid(1, 5)
    rng = np.random.default_rng(6)
    s = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    g = helpers.random_sequence(box, rng)
    T = matrix(s).values
    Tt = T.T  # exact transpose oracle
    lhs = np.sum((Tt @ f.values) * g.values)
    rhs = np.sum(f.values * (T @ g.values))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_adjoint_residual_order_decreases_for_smooth_symbols():
    box, grid = helpers.box_and_grid(1, 16)
    k1 = box.points[:, 0].astype(float)
    s = SampledSymbol(box, grid, np.outer(
        1.0 / (1.0 + np.abs(k1)), 2.0 + np.cos(2 * np.pi * grid.nodes[:, 0])))
    true_adjoint = symbol_from_operator(
        OperatorMatrix(box, np.conj(matrix(s).values).T))
    orders = []
    for order in (1, 2, 3):
        resid = SampledSymbol(box, grid, true_adjoint.samples - adjoint(s, order).samples)
        orders.append(order_fit(resid))
    assert orders[1] < orders[0] and orders[2] < orders[1]


def _rounding_floor(n, N, order):
    """eps max_{|alpha| = order-1} prod_i N^alpha_i / alpha!: the relative
    rounding a term of the series takes from its D^(alpha) multiplier."""
    return np.finfo(float).eps * max(N ** (order - 1) / symbols.multi_factorial(alpha)
                                     for alpha in symbols.multi_indices_of_degree(n, order - 1))


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# N of the box whose grid axes (2N + 1 points) are the longest on the
# circulant route; at N + 1 they take the FFT route
_SHORT_AXIS_N = symbols.CIRCULANT_AXIS_MAX // 2


@pytest.mark.parametrize("n, N, order, j", [(1, 40, 5, 0), (2, 6, 4, 0), (2, 6, 4, 1),
                                            (3, 4, 3, 0), (3, 4, 3, 2), (1, 2048, 3, 0),
                                            (2, _SHORT_AXIS_N, 3, 1), (2, _SHORT_AXIS_N + 1, 3, 1)])
def test_weighted_shifts_match_their_closed_form_truncations(n, N, order, j):
    # the series of a(k) e^{-+2 pi i x_j} does not end, and its truncations
    # have closed forms at any K: (1, 2048) is K = 4097, above the dense cap
    box, grid = helpers.box_and_grid(n, N)
    a = np.sqrt(1.0 + (box.points.astype(float) ** 2).sum(axis=1))
    tau = SampledSymbol(box, grid, np.outer(
        1.0 / a, 2.0 + np.cos(2 * np.pi * grid.nodes).sum(axis=1)))
    bound = 20 * _rounding_floor(n, N, order)
    wave = np.exp(2j * np.pi * grid.nodes[:, j])
    got = compose(SampledSymbol(box, grid, np.outer(a, np.conj(wave))), tau, order).samples
    assert _relative_error(got, oracles.shift_compose(a, tau.samples, box, grid, j,
                                                      order)) <= bound
    del tau, got  # (K x X) arrays of 268 MB at K = 4097
    sigma = SampledSymbol(box, grid, np.outer(a, wave))
    want = oracles.shift_dual(a, box, grid, j, order)
    for op in (adjoint, transpose):
        assert _relative_error(op(sigma, order).samples, want) <= bound


# ---------------------------------------------------------------------------
# expansions and partial sums


def test_expansion_orders_must_strictly_decrease():
    box, grid = helpers.box_and_grid(1, 3)
    term = constant_symbol(box, grid)
    with pytest.raises(DomainMismatchError):
        SymbolExpansion([term, term], [0.0, 0.0])


def test_partial_sum_bounds_and_values():
    box, grid = helpers.box_and_grid(1, 4)
    t1 = constant_symbol(box, grid, 1.0)
    t2 = constant_symbol(box, grid, 0.25)
    exp = SymbolExpansion([t1, t2], [0.0, -1.0])
    np.testing.assert_allclose(partial_sum(exp, 1).samples, 1.0)
    np.testing.assert_allclose(partial_sum(exp, 2).samples, 1.25)
    with pytest.raises(DomainMismatchError):
        partial_sum(exp, 3)


def test_partial_sum_tail_order_decreases():
    box, grid = helpers.box_and_grid(1, 16)
    w = 1.0 + box.norms
    terms = [helpers.weight_symbol(box, grid, -float(j)) for j in range(4)]
    exp = SymbolExpansion(terms, [-float(j) for j in range(4)])
    total = sum(t.samples for t in terms)
    fits = []
    for j in (1, 2, 3):
        tail = SampledSymbol(box, grid, total - partial_sum(exp, j).samples)
        fits.append(order_fit(tail))
    assert fits[0] > fits[1] > fits[2]


# ---------------------------------------------------------------------------
# parametrix


def test_parametrix_of_lattice_constant_symbol_is_exact_inverse():
    box, grid = helpers.box_and_grid(1, 8)
    s = helpers.example3_symbol(box, grid, a=3.0)
    s.params = SymbolClassParams(0.0)
    exp = parametrix(SymbolExpansion([s], [0.0]), 0.0, 4)
    np.testing.assert_allclose(exp.terms[0].samples, 1.0 / s.samples, atol=1e-14)
    for term in exp.terms[1:]:
        assert np.max(np.abs(term.samples)) <= 1e-13
    B = matrix(partial_sum(exp, 4)).values
    A = matrix(s).values
    assert np.max(np.abs(B @ A - np.eye(box.size))) <= 1e-11
    assert np.max(np.abs(A @ B - np.eye(box.size))) <= 1e-11


def test_parametrix_of_nonzero_constant():
    box, grid = helpers.box_and_grid(1, 4)
    s = constant_symbol(box, grid, 2.0 - 1.0j)
    exp = parametrix(SymbolExpansion([s], [0.0]), 0.0, 2)
    np.testing.assert_allclose(exp.terms[0].samples, 1.0 / (2.0 - 1.0j), atol=1e-14)
    np.testing.assert_allclose(exp.terms[1].samples, 0.0, atol=1e-14)


def test_parametrix_residual_order_falls_per_added_term():
    box, grid = helpers.box_and_grid(1, 16)
    k1 = box.points[:, 0].astype(float)
    s = SampledSymbol(box, grid,
                      (1.0 + k1**2)[:, None]
                      + np.exp(2j * np.pi * grid.nodes[:, 0])[None, :],
                      params=SymbolClassParams(2.0))
    exp = parametrix(SymbolExpansion([s], [2.0]), 2.0, 4)
    fits = []
    for m in (1, 2, 3):
        approx_inverse = partial_sum(exp, m)
        resid = SampledSymbol(box, grid,
                              1.0 - compose(approx_inverse, s, m + 5).samples)
        fits.append(order_fit(resid))
    assert fits[0] - fits[1] >= 0.7
    assert fits[1] - fits[2] >= 0.7


def test_parametrix_rejects_non_elliptic_symbol_with_witness():
    box, grid = helpers.box_and_grid(1, 8)
    s = helpers.forward_diff_symbol(box, grid)
    s.params = SymbolClassParams(0.0)
    with pytest.raises(NotEllipticError) as err:
        parametrix(SymbolExpansion([s], [0.0]), 0.0, 2)
    witness_k, witness_x = err.value.witness
    assert witness_x == (0.0,)


def test_parametrix_rejects_symbol_vanishing_inside_cutoff():
    # |k|^2 is elliptic of order 2 away from zero but vanishes at k = 0
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    s = _k_symbol(box, grid, k1**2)
    s.params = SymbolClassParams(2.0)
    with pytest.raises(SingularSymbolError) as err:
        parametrix(SymbolExpansion([s], [2.0]), 2.0, 2)
    assert err.value.witness[0] == (0,)


def test_parametrix_left_and_right_error_norms_shrink():
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    s = SampledSymbol(box, grid,
                      (6.0 + k1**2)[:, None]
                      + np.exp(2j * np.pi * grid.nodes[:, 0])[None, :],
                      params=SymbolClassParams(2.0))
    A = matrix(s).values
    eye = np.eye(box.size)
    exp = parametrix(SymbolExpansion([s], [2.0]), 2.0, 4)
    left, right = [], []
    for m in (1, 2, 3):
        B = matrix(partial_sum(exp, m)).values
        left.append(np.linalg.norm(eye - B @ A, 2))
        right.append(np.linalg.norm(eye - A @ B, 2))
    assert left[0] > left[1] > left[2]
    assert right[0] > right[1] > right[2]


def test_parametrix_accepts_multi_term_input():
    box, grid = helpers.box_and_grid(1, 8)
    k1 = box.points[:, 0].astype(float)
    lead = _k_symbol(box, grid, 1.0 + k1**2)
    lead.params = SymbolClassParams(2.0)
    lower = helpers.shift_symbol(box, grid)
    exp = parametrix(SymbolExpansion([lead, lower], [2.0, 0.0]), 2.0, 3)
    np.testing.assert_allclose(exp.terms[0].samples, 1.0 / lead.samples, atol=1e-13)
    assert len(exp.terms) == 3


def test_a_lower_term_of_the_symbol_reaches_the_parametrix_through_b0():
    # B_m carries B_0 . A_m (j = 0, gamma = 0, l = m): without it A_1 never
    # enters the expansion and the residual stays at its order-1 size
    box, grid = helpers.box_and_grid(1, 20)
    k1 = np.abs(box.points[:, 0].astype(float))
    lead = SampledSymbol(box, grid, np.outer(2.0 + k1**2, 1.0 + 0.3 * np.cos(
        2 * np.pi * grid.nodes[:, 0])), params=SymbolClassParams(2.0))
    lower = _k_symbol(box, grid, 1.0 + 1.5 * k1)
    A = matrix(lead).values + matrix(lower).values
    far = box.norms >= 10
    residuals = []
    for order in (1, 2):
        exp = parametrix(SymbolExpansion([lead, lower], [2.0, 1.0]), 2.0, order)
        B = matrix(partial_sum(exp, order)).values
        residuals.append(np.abs((B @ A - np.eye(box.size))[far]).max())
    assert residuals[1] < 0.5 * residuals[0]


def _assert_compose_mixed_frequencies_exact(n):
    # per-axis degree 1 in nonnegative frequencies on the first two axes:
    # terminates at order 3
    box, grid = helpers.box_and_grid(n, 2)
    rng = np.random.default_rng(7)
    k = box.points.astype(float)
    phase = np.exp(2j * np.pi * (grid.nodes[:, 0] + grid.nodes[:, 1]))
    sigma = SampledSymbol(box, grid, np.outer(1.0 + (k**2).sum(axis=1), phase))
    tau = helpers.random_symbol(box, grid, rng)
    product = matrix(sigma).values @ matrix(tau).values
    defect_2 = np.max(np.abs(matrix(compose(sigma, tau, 2)).values - product))
    defect_3 = np.max(np.abs(matrix(compose(sigma, tau, 3)).values - product))
    assert defect_2 > 1e-6
    assert defect_3 <= 1e-10


def test_compose_two_dimensional_mixed_frequencies_exact():
    _assert_compose_mixed_frequencies_exact(2)


def test_compose_three_dimensional_mixed_frequencies_exact():
    _assert_compose_mixed_frequencies_exact(3)


def _assert_adjoint_and_transpose_one_sided_exact(n):
    box, grid = helpers.box_and_grid(n, 2)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    phase = np.exp(-2j * np.pi * (grid.nodes[:, 0] + grid.nodes[:, 1]))
    s = SampledSymbol(box, grid, np.outer(w, phase))
    oracle = np.conj(matrix(s).values).T
    assert np.max(np.abs(matrix(adjoint(s, 3)).values - oracle)) <= 1e-10
    assert np.max(np.abs(matrix(transpose(s, 3)).values - matrix(s).values.T)) <= 1e-10


def test_adjoint_two_dimensional_one_sided_family():
    _assert_adjoint_and_transpose_one_sided_exact(2)


def test_adjoint_three_dimensional_one_sided_family():
    _assert_adjoint_and_transpose_one_sided_exact(3)


def test_parametrix_of_lattice_only_elliptic_symbol_is_exact():
    # x-independent symbols terminate from the derivative side: the inverse
    # weight is already the whole expansion
    box, grid = helpers.box_and_grid(1, 8)
    s = helpers.weight_symbol(box, grid, 2.0)
    exp = parametrix(SymbolExpansion([s], [2.0]), 2.0, 3)
    np.testing.assert_allclose(exp.terms[0].samples, 1.0 / s.samples, atol=1e-14)
    for term in exp.terms[1:]:
        assert np.max(np.abs(term.samples)) <= 1e-13
    B = matrix(partial_sum(exp, 3)).values
    assert np.max(np.abs(B @ matrix(s).values - np.eye(box.size))) <= 1e-11


@pytest.mark.parametrize("order", [0, 13])
def test_every_expansion_takes_orders_one_through_the_cap(order):
    box, grid = helpers.box_and_grid(1, 2)
    s = constant_symbol(box, grid, 2.0)
    amp = AmplitudeDefinition(lambda k, l, x: 1.0 + 0.0 * x[..., 0])
    expansions = [
        lambda: compose(s, s, order),
        lambda: adjoint(s, order),
        lambda: transpose(s, order),
        lambda: parametrix(SymbolExpansion([s], [0.0]), 0.0, order),
        lambda: amplitude_to_symbol(amp, box, grid, order),
        lambda: periodic_taylor(TorusFunction.ones(grid), order),
    ]
    messages = set()
    for expansion in expansions:
        with pytest.raises(DomainMismatchError) as err:
            expansion()
        messages.add(str(err.value))
    assert messages == {f"expansion order must lie in [1, 12], got {order}"}


# ---------------------------------------------------------------------------
# row-blocked passes: bit-identical to the serial expansions, on any thread
# count, with every thread joined


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _calculus_inputs(box, grid, rng):
    K, X = box.size, grid.size
    dense = lambda: rng.standard_normal((K, X)) + 1j * rng.standard_normal((K, X))
    sigma, tau = SampledSymbol(box, grid, dense()), SampledSymbol(box, grid, dense())
    leading = helpers.elliptic_symbol(box.n, box.N)
    lower = SampledSymbol(box, grid, 0.1 * dense() * (1.0 + box.norms)[:, None])
    return sigma, tau, [leading, lower]


@pytest.fixture(params=[1, 4], ids=["1-cpu", "4-cpus"])
def cpus(request, monkeypatch):
    """Pretend the process may run on this many CPUs."""
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.mark.parametrize("rows, n, N", helpers.block_cases(
    {1: [(1, 30), (2, 4), (3, 2)], 7: [(1, 30), (2, 4), (3, 2)],
     None: [(1, 160), (2, 8), (3, 3)],
     3: [(3, 2)]})  # one leading slice, 25 rows, is nine row blocks
    # the export's size: its last block is under numpy's 256 KiB for eliding a temporary
    + [pytest.param(None, 2, 12, id="default-blocks-n2-N12")])
def test_calculus_is_bit_identical_to_the_serial_expansions(monkeypatch, cpus, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    assert len(list(symbols.row_blocks(box.size, grid.size))) > 1
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(10 * n + N))
    threads = threading.active_count()
    order = 4  # 1/alpha! up to 1/6: a division that is not a power of two
    cases = [
        (compose(sigma, tau, order).samples, oracles.serial_compose(sigma, tau, order)),
        (adjoint(sigma, order).samples, oracles.serial_adjoint(sigma, order)),
        (transpose(sigma, order).samples, oracles.serial_transpose(sigma, order)),
        ([b.samples for b in parametrix(SymbolExpansion(a_terms), 2.0, order).terms],
         oracles.serial_parametrix(a_terms, order)),
    ]
    assert threading.active_count() == threads
    for got, want in cases:
        assert np.array_equal(_bits(got), _bits(want))


def _fail_third(fn):
    """``fn``, raising instead on its third call from any thread."""
    calls, lock = [], threading.Lock()

    def wrapped(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise ArithmeticError("third block")
        return fn(*args, **kwargs)
    return wrapped


def _calculus_runs(box, grid, rng):
    """Each blocked calculus operation, by name, on inputs drawn from ``rng``."""
    sigma, tau, a_terms = _calculus_inputs(box, grid, rng)
    amp = AmplitudeDefinition(
        lambda k, l, x: np.exp(2j * np.pi * x[..., 0]) * (1.0 + l[..., 0]**2)
        + k[..., -1] * np.cos(2 * np.pi * x[..., -1]))
    return {"compose": lambda: compose(sigma, tau, 3), "adjoint": lambda: adjoint(sigma, 3),
            "transpose": lambda: transpose(sigma, 3),
            "parametrix": lambda: parametrix(SymbolExpansion(a_terms), 2.0, 3),
            "amplitude_to_symbol": lambda: amplitude_to_symbol(amp, box, grid, 3),
            "solve_elliptic": lambda: solve_elliptic(a_terms[0], 2.0,
                                                     LatticeSequence.delta(box), 3)}


CALCULUS_OPS = ["compose", "adjoint", "transpose", "parametrix", "amplitude_to_symbol",
                "solve_elliptic"]


@pytest.mark.parametrize("op", CALCULUS_OPS)
def test_an_exception_in_one_row_block_reaches_the_caller(monkeypatch, cpus, op):
    box, grid = helpers.box_and_grid(2, 4)
    helpers.force_block_rows(monkeypatch, 7, grid.size)
    run = _calculus_runs(box, grid, np.random.default_rng(5))[op]
    assert grid.M <= symbols.CIRCULANT_AXIS_MAX
    if op in ("adjoint", "transpose", "amplitude_to_symbol"):  # one ifftn per block
        monkeypatch.setattr(np.fft, "ifftn", _fail_third(np.fft.ifftn))
    else:  # one circulant product per block and derivative
        monkeypatch.setattr(np, "matmul", _fail_third(np.matmul))
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="third block"):
        run()
    assert threading.active_count() == threads


def test_a_one_block_input_starts_no_thread(monkeypatch, cpus):
    box, grid = helpers.box_and_grid(2, 4)
    assert len(list(symbols.row_blocks(box.size, grid.size))) == 1

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-block pass started a thread")

    monkeypatch.setattr(symbols.threading, "Thread", no_thread)
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(6))
    assert np.array_equal(_bits(compose(sigma, tau, 3).samples),
                          _bits(oracles.serial_compose(sigma, tau, 3)))
    assert np.array_equal(_bits(adjoint(sigma, 3).samples),
                          _bits(oracles.serial_adjoint(sigma, 3)))
    assert np.array_equal(_bits(transpose(sigma, 3).samples),
                          _bits(oracles.serial_transpose(sigma, 3)))
    parametrix(SymbolExpansion(a_terms), 2.0, 3)


@pytest.mark.parametrize("n, N", [(1, 12), (2, 4), (3, 2)])
def test_calculus_agrees_with_the_n_axis_expansions(n, N):
    # the one-axis derivative trees against every D^(alpha) taken as one
    # n-axis inverse transform of one n-axis spectrum
    box, grid = helpers.box_and_grid(n, N)
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(40 + n))
    order = 4
    cases = [(compose(sigma, tau, order).samples, oracles.serial_compose_fftn(sigma, tau, order))]
    cases += zip([b.samples for b in parametrix(SymbolExpansion(a_terms), 2.0, order).terms],
                 oracles.serial_parametrix_fftn(a_terms, order))
    for got, want in cases:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _counted(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _refused(*args, **kwargs):
    raise AssertionError("an n-axis transform was taken")


def _one_slice_blocks(monkeypatch, box, grid):
    """One CPU, one leading-axis slice per row block; the number of blocks."""
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0})
    helpers.force_block_rows(monkeypatch, box.size // box.M, grid.size)
    blocks = len(list(symbols.row_blocks(box.M, box.size // box.M * grid.size)))
    assert blocks == box.M
    return blocks


def test_the_derivative_trees_take_one_axis_transforms(monkeypatch):
    # n=3, order 3, per row block on the FFT route: compose takes 6 forward
    # and 9 inverse one-axis transforms (one per |alpha| = 1, 2), the
    # parametrix 6 + 9 for B_0 and 3 + 3 for B_1; no n-axis transform is taken
    monkeypatch.setattr(symbols, "CIRCULANT_AXIS_MAX", 0)
    box, grid = helpers.box_and_grid(3, 2)
    blocks = _one_slice_blocks(monkeypatch, box, grid)
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(7))
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        monkeypatch.setattr(np.fft, name, _counted(calls, name, getattr(np.fft, name)))
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, _refused)
    for run, forward, inverse in [(lambda: compose(sigma, tau, 3), 6, 9),
                                  (lambda: parametrix(SymbolExpansion(a_terms), 2.0, 3), 9, 12)]:
        calls.update(fft=0, ifft=0)
        run()
        assert calls == {"fft": forward * blocks, "ifft": inverse * blocks}


def test_the_derivative_trees_take_one_circulant_product_per_node(monkeypatch):
    # the same on the circulant route: one stacked product per node, 9 per
    # block for compose and 9 + 3 for the parametrix; the one-axis inverse
    # FFTs are the two operators' first columns, built once per call
    box, grid = helpers.box_and_grid(3, 2)
    monkeypatch.setattr(symbols, "CIRCULANT_AXIS_MAX", grid.M)
    blocks = _one_slice_blocks(monkeypatch, box, grid)
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(7))
    calls = {"fft": 0, "ifft": 0, "matmul": 0}
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, _counted(calls, name, getattr(np.fft, name)))
    monkeypatch.setattr(np, "matmul", _counted(calls, "matmul", np.matmul))
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, _refused)
    for run, nodes in [(lambda: compose(sigma, tau, 3), 9),
                       (lambda: parametrix(SymbolExpansion(a_terms), 2.0, 3), 12)]:
        calls.update(fft=0, ifft=0, matmul=0)
        run()
        assert calls == {"fft": 0, "ifft": 2, "matmul": nodes * blocks}


def _check_pool_per_pass(monkeypatch, bound, module, names):
    """n=3 N=4 on one CPU, grid axes of at most ``bound`` points circulant:
    every call of the ``module`` functions ``names`` in compose and the
    parametrix writes with out=, into buffers the pass reuses from block to
    block, so one block of all nine leading slices, blocks of three and
    one-slice blocks, the default here, take the same number of buffers."""
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(symbols, "CIRCULANT_AXIS_MAX", bound)
    box, grid = helpers.box_and_grid(3, 4)
    sigma, tau, a_terms = _calculus_inputs(box, grid, np.random.default_rng(8))
    width = box.size // box.M * grid.size
    assert len(list(symbols.row_blocks(box.M, width))) == box.M
    buffers, outs = set(), []

    def recorded(fn):
        def wrapped(*args, **kwargs):
            out = kwargs.get("out")
            outs.append(out is not None)
            while isinstance(getattr(out, "base", None), np.ndarray):
                out = out.base
            buffers.add(None if out is None else out.__array_interface__["data"][0])
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    counts = {}
    for rows in (box.M, 3, 1):
        helpers.force_block_rows(monkeypatch, rows, width)
        blocks = len(list(symbols.row_blocks(box.M, width)))
        for name, run in [("compose", lambda: compose(sigma, tau, 3)),
                          ("parametrix", lambda: parametrix(SymbolExpansion(a_terms), 2.0, 3))]:
            buffers.clear()
            outs.clear()
            run()
            assert outs and all(outs), name
            assert not hasattr(symbols._worker, "pool")  # the pool died with the pass
            counts.setdefault(name, {})[blocks] = len(buffers)
    for name, by_blocks in counts.items():
        assert sorted(by_blocks) == [1, 3, 9], name
        assert len(set(by_blocks.values())) == 1, (name, by_blocks)


def test_the_derivative_trees_transform_into_a_scratch_pool_per_pass(monkeypatch):
    # the one-axis transforms of the FFT route
    _check_pool_per_pass(monkeypatch, 0, np.fft, ("fft", "ifft"))


def test_the_circulant_trees_multiply_into_a_scratch_pool_per_pass(monkeypatch):
    # the stacked products of the circulant route
    _check_pool_per_pass(monkeypatch, 9, np, ("matmul",))


@pytest.mark.parametrize("op", CALCULUS_OPS)
def test_no_pass_starts_inside_a_block(monkeypatch, op):
    """No block of any pass enters each_row_block, on this thread or
    another, and two CPUs never see more than one extra thread."""
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0, 1})
    box, grid = helpers.box_and_grid(2, 4)
    helpers.force_block_rows(monkeypatch, 7, grid.size)
    run = _calculus_runs(box, grid, np.random.default_rng(24))[op]
    whole_pass, running, passes, extra = symbols.each_row_block, [], [], []

    def guarded(fn, rows, width):
        assert not running, "a pass started inside a block"
        passes.append(rows)

        def marked(block):
            running.append(block)
            try:
                fn(block)
            finally:
                running.remove(block)
        whole_pass(marked, rows, width)

    for module in (symbols, calculus):
        monkeypatch.setattr(module, "each_row_block", guarded)
    baseline = threading.active_count()

    class Counted(threading.Thread):
        def start(self):
            extra.append(threading.active_count() - baseline + 1)
            super().start()

    monkeypatch.setattr(symbols.threading, "Thread", Counted)
    run()
    assert passes and extra and max(extra) <= 1


def _dense_peak(op, order=3):
    """tracemalloc peak of ``op`` at n=2 N=24 on dense random symbols, in
    units of one (K x X) samples array (92 MB)."""
    box, grid = helpers.box_and_grid(2, 24)
    rng = np.random.default_rng(30)
    sigma, tau = (helpers.random_symbol(box, grid, rng) for _ in range(2))
    tracemalloc.start()
    try:
        op(sigma, tau, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sigma.samples.nbytes


def test_compose_holds_at_most_two_sample_arrays():
    # the product and the blocks in flight, each block's derivative tree among them
    assert _dense_peak(compose) <= 2.0


@pytest.mark.parametrize("op", [adjoint, transpose], ids=["adjoint", "transpose"])
def test_the_dual_expansions_hold_at_most_three_sample_arrays(op):
    # the conjugated or reflected samples and their spectrum; then the
    # spectrum, the result and the blocks in flight
    assert _dense_peak(lambda sigma, tau, order: op(sigma, order)) <= 3.0


def test_transpose_holds_no_more_than_adjoint(monkeypatch):
    # the reflection is one gather of the samples, as the conjugate is one
    # pass; on one CPU the blocks in flight are the same for both, and the
    # second run of each is read, the first having filled numpy's caches
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0})
    peaks = {op: [_dense_peak(lambda sigma, tau, order: op(sigma, order)) for _ in range(2)][1]
             for op in (adjoint, transpose)}
    assert peaks[transpose] <= peaks[adjoint]


def test_parametrix_holds_its_terms_and_little_more():
    # one (order x K x X) stack of the terms, and the blocks in flight
    leading, order = helpers.elliptic_symbol(2, 24), 4
    tracemalloc.start()
    try:
        parametrix(SymbolExpansion([leading], [2.0]), 2.0, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (order + 1) * leading.samples.nbytes


def test_each_row_block_visits_every_block_once_on_more_threads_than_cores(monkeypatch):
    """A stress run: eight threads, frequent switches, 300 one-row blocks; a
    block handed out twice or never (a lost update of the shared queue)
    shows in the counts."""
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: set(range(8)))
    helpers.force_block_rows(monkeypatch, 1, 4)
    counts, idents = np.zeros(300, dtype=int), set()

    def visit(rows):
        idents.add(threading.get_ident())
        counts[rows] += 1

    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        symbols.each_row_block(visit, len(counts), 4)
    finally:
        sys.setswitchinterval(interval)
    assert (counts == 1).all()
    assert len(idents) <= 8
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# amplitude reduction: the series summed on the stencil l = k + {0..order-1}^n


def _stencil_amplitudes(box, grid, order, rng):
    """A generic amplitude, an independent random value at each (k, l, x), as
    ``(everywhere, on_stencil, asked)``: ``on_stencil`` is the same amplitude
    raising for any l outside k + {0..order-1}^n (wrapped), and ``asked``
    collects the number of (k, l) pairs of each of its calls."""
    K, X = box.size, grid.size
    table = rng.standard_normal((K, K, X)) + 1j * rng.standard_normal((K, K, X))
    place = grid.M ** np.arange(grid.n)[::-1]

    def everywhere(k, l, x):
        return table[box.index_of(k), box.index_of(l), np.rint(x * grid.M).astype(int) @ place]

    asked = []

    def on_stencil(k, l, x):
        if not ((l - k) % box.M < order).all():
            raise AssertionError("amplitude evaluated off the stencil")
        asked.append(int(np.prod(np.broadcast_shapes(k.shape[:-1], l.shape[:-1]))))
        return everywhere(k, l, x)
    return AmplitudeDefinition(everywhere), AmplitudeDefinition(on_stencil), asked


@pytest.mark.parametrize("rows", [1, 5, None], ids=["1-row-blocks", "5-row-blocks",
                                                      "default-blocks"])
@pytest.mark.parametrize("n, N, order", [(1, 4, 3), (1, 1, 5), (2, 2, 2), (2, 3, 3), (3, 1, 2)])
def test_amplitude_reduction_is_bit_identical_to_the_tensor_reduction(monkeypatch, rows, n,
                                                                      N, order):
    # (1, 1, 5) has order > M = 3: the stencil wraps around the box
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    everywhere, on_stencil, asked = _stencil_amplitudes(
        box, grid, order, np.random.default_rng(100 * n + 10 * N + order))
    got = amplitude_to_symbol(on_stencil, box, grid, order).samples
    assert sum(asked) == box.size * order**n
    want = oracles.serial_amplitude_reduction(everywhere, box, grid, order)
    assert np.array_equal(_bits(got), _bits(want))


def test_amplitude_reduction_holds_at_most_one_and_a_half_sample_arrays(monkeypatch):
    # the (K x X) result and one block's stencil values, spectrum and terms:
    # the stencil, 9 sample arrays here, is never built whole.  One CPU, so
    # that the peak does not grow with the blocks in flight.
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0})
    box, grid, order = *helpers.box_and_grid(2, 16), 3
    amp = AmplitudeDefinition(
        lambda k, l, x: np.exp(2j * np.pi * (x[..., 0] + 2 * x[..., 1])) * (1.0 + l[..., 0]**2)
        + k[..., 1] * np.cos(2 * np.pi * x[..., 0]))
    tracemalloc.start()
    try:
        amplitude_to_symbol(amp, box, grid, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * box.size * grid.size


def test_amplitude_output_beyond_physical_memory_is_refused_before_evaluating():
    box = LatticeBox(2, 511)  # a (K x X) result of 17 TB

    def never(k, l, x):
        raise AssertionError("amplitude evaluated before the size check")

    with pytest.raises(ResourceLimitError, match="amplitude reduction.*physical memory"):
        amplitude_to_symbol(AmplitudeDefinition(never), box, box.matched_grid(), 2)


def test_the_x_multipliers_have_one_builder():
    # every D^(alpha) multiplier, of the one-axis operators and of the series
    # summed in the x-spectrum alike, comes from symbols.axis_multipliers,
    # which alone reads the FFT frequencies and alone calls the factors
    frequencies, factors = set(), set()
    for path in Path(calculus.__file__).parent.glob("*.py"):
        for scope, node in helpers.scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None)
                if name == "_fft_frequencies":
                    frequencies.add((path.name, scope))
                if name in ("falling_factor", "partial_factor", "_power"):
                    factors.add((path.name, scope))
    assert frequencies == {("symbols.py", "axis_multipliers")}
    assert factors == set()


@pytest.mark.parametrize("n, N", [(1, 3), (2, 2), (3, 1)])
def test_the_x_multipliers_are_grid_shaped(n, N):
    grid = helpers.box_and_grid(n, N)[1]
    for factor in (symbols.falling_factor, symbols.partial_factor):
        for axis, steps in enumerate(symbols.axis_multipliers(grid, 3, factor)):
            for a, multiplier in enumerate(steps, 1):
                assert multiplier.shape == grid.shape and multiplier.flags.c_contiguous
                beta = tuple(a if i == axis else 0 for i in range(n))
                if factor is symbols.falling_factor:
                    assert np.array_equal(multiplier, oracles.falling_multiplier(grid, beta))


def test_the_x_derivative_has_one_home():
    # every D^beta, D^(beta) and d^alpha/dx^alpha is a product of the one-axis
    # operators of symbols.axis_operators, taken in symbols.py: the circulant
    # products in one helper, the one-axis transforms in the FFT route's
    # helpers; the only other one-axis transforms are those of apply's dense
    # path, and no other code multiplies by np.matmul
    found = {}
    for path in Path(calculus.__file__).parent.glob("*.py"):
        for scope, node in helpers.scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.fft.fft",
                                                                         "np.fft.ifft",
                                                                         "np.matmul"):
                found.setdefault(ast.unparse(node.func), set()).add((path.name, scope))
    assert found == {
        "np.fft.fft": {("symbols.py", "_spectral_children"), ("symbols.py", "_axis_derivative")},
        "np.fft.ifft": {("symbols.py", "axis_operators"), ("symbols.py", "_spectral_children"),
                        ("symbols.py", "_axis_derivative"), ("quantize.py", "apply")},
        "np.matmul": {("symbols.py", "_circulant_product")}}


def test_the_lattice_difference_has_one_home():
    # every Delta^alpha is symbols.lattice_difference; np.roll is left to the
    # cyclic translate of a sequence
    rolls, homes = set(), []
    for path in Path(calculus.__file__).parent.glob("*.py"):
        for scope, node in helpers.scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "roll":
                rolls.add((path.name, scope))
            if isinstance(node, ast.FunctionDef) and "lattice_difference" in node.name:
                homes.append((path.name, node.name))
    assert rolls == {("grids.py", "LatticeSequence.shifted")}
    assert homes == [("symbols.py", "lattice_difference")]


# ---------------------------------------------------------------------------
# lattice differences of a block of leading-axis slices, with halo slices


def _blocked_differences(values, order, blocks, axes=None):
    """``(alpha, rows, got, want)`` for each alpha with |alpha| < order and
    each block: Delta^alpha of the block's slices alone against the rows of
    the whole difference by rolls."""
    n = len(range(values.ndim - 1) if axes is None else axes)
    for alpha in symbols.multi_indices_below(n, order):
        want = oracles.lattice_difference(values, alpha, axes)
        for rows in blocks:
            yield alpha, rows, symbols.lattice_difference(values, alpha, axes, rows=rows), \
                want[rows]


@pytest.mark.parametrize("n, N", [(1, 4), (2, 2), (3, 1), (1, 1)])
def test_a_blocked_difference_is_bit_identical_to_the_whole_one(n, N):
    # (1, 1): M = 3, and |alpha| up to 5 needs a halo longer than the box
    box, grid = helpers.box_and_grid(n, N)
    rng = np.random.default_rng(n + 10 * N)
    values = (rng.standard_normal(box.shape + (grid.size,))
              + 1j * rng.standard_normal(box.shape + (grid.size,)))
    one_slice = [slice(i, i + 1) for i in range(box.M)]
    two_slices = [slice(i, min(i + 2, box.M)) for i in range(0, box.M, 2)]
    for alpha, rows, got, want in _blocked_differences(values, 6, one_slice + two_slices):
        assert got.shape == want.shape, (alpha, rows)
        assert np.array_equal(_bits(got), _bits(want)), (alpha, rows)
    sym = SampledSymbol(box, grid, values.reshape(box.size, grid.size))
    for alpha in symbols.multi_indices_below(n, 6):  # the whole leading axis
        want = oracles.lattice_difference(values, alpha)
        assert np.array_equal(_bits(symbols.lattice_difference(values, alpha)), _bits(want))
        assert np.array_equal(_bits(symbols.forward_difference(sym, alpha).samples),
                              _bits(want.reshape(box.size, grid.size))), alpha


@pytest.mark.parametrize("n, N, order", [(1, 2, 5), (2, 1, 3), (3, 1, 2)])
def test_a_blocked_difference_on_the_stencil_axes_needs_no_halo(n, N, order):
    # the amplitude's layout (K, order, ..., order, X): the blocks run over k,
    # the differences over the stencil axes 1..n
    box, grid = helpers.box_and_grid(n, N)
    rng = np.random.default_rng(7 * n + order)
    shape = (box.size,) + (order,) * n + (grid.size,)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks = [slice(i, min(i + 2, box.size)) for i in range(0, box.size, 2)]
    for alpha, rows, got, want in _blocked_differences(values, 6, blocks, range(1, n + 1)):
        assert np.array_equal(_bits(got), _bits(want)), (alpha, rows)


def test_a_blocked_difference_takes_the_leading_axis_first():
    # a block reads its halo slices in its first difference, so a leading
    # axis that comes later in the axes is refused, not read without halo
    values = np.arange(3 * 3 * 2, dtype=complex).reshape(3, 3, 2)
    with pytest.raises(DomainMismatchError, match="leading axis first"):
        symbols.lattice_difference(values, (1, 1), axes=(1, 0), rows=slice(0, 1))
    whole = oracles.lattice_difference(values, (1, 1), (0, 1))
    assert np.array_equal(symbols.lattice_difference(values, (1, 1), (0, 1), rows=slice(2, 3)),
                          whole[2:3])
