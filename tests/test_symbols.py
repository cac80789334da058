import numpy as np
import pytest

import ast
import tracemalloc
from pathlib import Path

import pdz
from pdz import (DomainMismatchError, LatticeBox, NonFiniteValueError, ResourceLimitError,
                 SampledSymbol, SymbolClassParams, SymbolDefinition, TorusFunction,
                 character_matrix, constant_symbol, kernel,
                 ellipticity_check, forward_difference, generalized_difference,
                 order_fit, periodic_taylor, sample, seminorm_estimate, x_derivative)
from pdz.symbols import (falling_derivative, multi_factorial, multi_indices_below,
                         partial_x_derivative, x_reflect)

import helpers
import oracles


# ---------------------------------------------------------------------------
# sampling


def test_sample_constant_definition():
    box, grid = helpers.box_and_grid(1, 3)
    sym = sample(SymbolDefinition(lambda k, x: np.ones(
        np.broadcast_shapes(k.shape[:-1], x.shape[:-1]))), box, grid)
    np.testing.assert_allclose(sym.samples, 1.0)


def test_sample_first_difference_symbol_rows_constant_in_k():
    box, grid = helpers.box_and_grid(2, 2)
    sym = sample(SymbolDefinition(
        lambda k, x: np.exp(2j * np.pi * x[..., 0]) - 1.0 + 0.0 * k[..., 0]), box, grid)
    expected = np.exp(2j * np.pi * grid.nodes[:, 0]) - 1.0
    for row in sym.samples:
        np.testing.assert_allclose(row, expected, atol=1e-15)


def test_sample_example3_matches_closed_form():
    box, grid = helpers.box_and_grid(1, 4)
    a = 3.0
    sym = sample(SymbolDefinition(
        lambda k, x: 2j * np.sin(2 * np.pi * x[..., 0]) + a + 0.0 * k[..., 0]), box, grid)
    np.testing.assert_allclose(
        sym.samples[0], 2j * np.sin(2 * np.pi * grid.nodes[:, 0]) + a, atol=1e-15)


def test_sample_rejects_nonfinite_with_location():
    box, grid = helpers.box_and_grid(1, 2)

    def bad(k, x):
        out = np.ones(np.broadcast_shapes(k.shape[:-1], x.shape[:-1]), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return out / (k[..., 0] - 1)  # infinite at k = 1

    with pytest.raises(NonFiniteValueError) as err:
        sample(SymbolDefinition(bad), box, grid).samples
    assert err.value.where[0] == (1,)


def test_constructors_reject_samples_of_the_wrong_size():
    from pdz.quantize import ToroidalSymbol
    box, grid = helpers.box_and_grid(1, 2)
    with pytest.raises(DomainMismatchError, match=r"9 entries, box x grid has 5 x 5"):
        SampledSymbol(box, grid, np.ones(9))
    with pytest.raises(DomainMismatchError, match=r"9 entries, grid x box has 5 x 5"):
        ToroidalSymbol(grid, box, np.ones(9))


def _plain(point):
    k, x = point
    return ([type(v) for v in k], [type(v) for v in x])


def test_witnesses_are_plain_python_numbers():
    from pdz.errors import SingularSymbolError
    from pdz.symbols import require_invertible
    box, grid = helpers.box_and_grid(1, 4)
    vals = np.ones((box.size, grid.size), dtype=complex)
    vals[box.index_of(np.array([-1])), 2] = np.nan
    with pytest.raises(NonFiniteValueError) as err:
        SampledSymbol(box, grid, vals)
    assert "k=(-1,), x=(0.2222222222222222,)" in str(err.value)
    assert err.value.where == ((-1,), (2 / 9,)) and _plain(err.value.where) == ([int], [float])
    vals[box.index_of(np.array([-1])), 2] = 0.0
    with pytest.raises(SingularSymbolError) as err:
        require_invertible(SampledSymbol(box, grid, vals), 0.0)
    assert "k=(-1,), x=(0.2222222222222222,)" in str(err.value)
    assert _plain(err.value.witness) == ([int], [float])
    rep = ellipticity_check(SampledSymbol(box, grid, vals), 0.0)
    assert _plain((rep.witness_k, rep.witness_x)) == ([int], [float])


def _k_and_x_dependent(k, x):
    kf = np.asarray(k, dtype=float)
    return ((1.0 + np.sqrt((kf**2).sum(axis=-1))) * np.exp(2j * np.pi * x[..., 0])
            + kf[..., -1] * np.cos(2 * np.pi * x[..., -1]))


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("n,N", [(1, 6), (2, 3), (3, 2)])
def test_blocked_sample_matches_one_evaluator_call(monkeypatch, n, N, rows):
    # K = M^n is odd, so two-row blocks leave a one-row remainder
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    full = _k_and_x_dependent(box.points[:, None, :], grid.nodes[None, :, :])
    sym = sample(SymbolDefinition(_k_and_x_dependent), box, grid)
    assert np.array_equal(sym.samples, full)


#: 1023^2 points: (K x X) samples and (K x K) kappa of 17.5 TB each, more
#: than any test machine holds.
_BEYOND_MEMORY = LatticeBox(2, 511)


def _never(k, x):
    raise AssertionError("evaluator called before the size check")


def _refused_under_one_mib(build) -> None:
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="physical memory"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_refuses_samples_beyond_physical_memory():
    # sample() only constructs; the first read of the samples is refused
    box, grid = _BEYOND_MEMORY, _BEYOND_MEMORY.matched_grid()
    _refused_under_one_mib(lambda: sample(SymbolDefinition(_never), box, grid).samples)
    _refused_under_one_mib(lambda: SampledSymbol(box, grid, SymbolDefinition(_never)).samples)


@pytest.mark.parametrize("build", [lambda sym: sym.kappa(), kernel], ids=["kappa", "kernel"])
def test_kappa_beyond_physical_memory_is_refused_before_allocating(build):
    box = _BEYOND_MEMORY
    sym = sample(SymbolDefinition(_never), box, box.matched_grid())
    _refused_under_one_mib(lambda: build(sym))


def test_character_matrix_beyond_physical_memory_is_refused_before_allocating():
    box = _BEYOND_MEMORY
    _refused_under_one_mib(lambda: character_matrix(box, box.matched_grid()))


def test_physical_memory_is_read_in_one_place():
    src = Path(pdz.__file__).parent
    assert sum(f.read_text().count("SC_PHYS_PAGES") for f in src.glob("*.py")) == 1


def test_memory_is_checked_where_a_full_array_is_built():
    # the samples and kappa of a symbol, the character matrix and the
    # amplitude reduction's (K x X) result, its stencil evaluated per row
    # block; the phase of a general-phase operator is read per row block,
    # so no phase array is checked
    found = set()
    for path in Path(pdz.__file__).parent.glob("*.py"):
        for scope, node in helpers.scoped(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "require_memory"):
                found.add((path.name, scope))
    assert found == {("symbols.py", "SampledSymbol.gathered"),
                     ("symbols.py", "SampledSymbol.kappa"),
                     ("grids.py", "character_matrix"),
                     ("calculus.py", "amplitude_to_symbol")}


# ---------------------------------------------------------------------------
# lattice differences


def test_zero_difference_is_identity():
    box, grid = helpers.box_and_grid(2, 2)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(0))
    out = forward_difference(sym, (0, 0))
    np.testing.assert_array_equal(out.samples, sym.samples)


def test_first_difference_of_linear_profile():
    box, grid = helpers.box_and_grid(1, 5)
    k1 = box.points[:, 0].astype(complex)
    sym = SampledSymbol(box, grid, np.repeat(k1[:, None], grid.size, axis=1))
    out = forward_difference(sym, (1,))
    interior = np.abs(box.points[:, 0]) <= box.N - 1
    np.testing.assert_allclose(out.samples[interior], 1.0, atol=1e-15)


def test_second_difference_of_square_profile():
    box, grid = helpers.box_and_grid(1, 6)
    k1 = box.points[:, 0].astype(float)
    sym = SampledSymbol(box, grid, np.repeat((k1**2 + 0j)[:, None], grid.size, axis=1))
    out = forward_difference(sym, (2,))
    # direct double-difference oracle on the interior
    direct = (k1 + 2.0) ** 2 - 2.0 * (k1 + 1.0) ** 2 + k1**2
    interior = np.abs(k1) <= box.N - 2
    np.testing.assert_allclose(out.samples[interior, 0], direct[interior], atol=1e-13)
    np.testing.assert_allclose(out.samples[interior], 2.0, atol=1e-13)


def test_differences_commute_across_axes():
    box, grid = helpers.box_and_grid(2, 3)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(1))
    a = forward_difference(forward_difference(sym, (1, 0)), (0, 1))
    b = forward_difference(forward_difference(sym, (0, 1)), (1, 0))
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-13)


def test_leibniz_identity_for_first_difference():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(2)
    s, t = helpers.random_symbol(box, grid, rng), helpers.random_symbol(box, grid, rng)
    prod = SampledSymbol(box, grid, s.samples * t.samples)
    lhs = forward_difference(prod, (1,)).samples
    shifted_s = np.roll(s.samples.reshape(box.shape + (grid.size,)), -1, axis=0)
    rhs = (forward_difference(s, (1,)).samples * t.samples
           + shifted_s.reshape(box.size, grid.size) * forward_difference(t, (1,)).samples)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_generalized_difference_with_constant_weight_is_identity():
    box, grid = helpers.box_and_grid(1, 4)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(3))
    out = generalized_difference(sym, TorusFunction.ones(grid))
    np.testing.assert_allclose(out.samples, sym.samples, atol=1e-13)


@pytest.mark.parametrize("n,axis", [(1, 0), (2, 0), (2, 1)])
def test_generalized_difference_reproduces_first_difference(n, axis):
    box, grid = helpers.box_and_grid(n, 3)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(4))
    q = TorusFunction(grid, np.exp(2j * np.pi * grid.nodes[:, axis]) - 1.0)
    alpha = tuple(1 if i == axis else 0 for i in range(n))
    lhs = generalized_difference(sym, q).samples
    rhs = forward_difference(sym, alpha).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_generalized_difference_with_character_is_pure_shift():
    box, grid = helpers.box_and_grid(1, 4)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(5))
    q = TorusFunction(grid, np.exp(2j * np.pi * grid.nodes[:, 0]))
    out = generalized_difference(sym, q).samples
    shifted = np.roll(sym.samples.reshape(box.shape + (grid.size,)), -1, axis=0)
    np.testing.assert_allclose(out, shifted.reshape(box.size, grid.size), atol=1e-13)


# ---------------------------------------------------------------------------
# torus derivatives


def test_character_is_derivative_eigenfunction():
    box, grid = helpers.box_and_grid(1, 4)
    sym = helpers.shift_symbol(box, grid)
    out = x_derivative(sym, (1,))
    np.testing.assert_allclose(out.samples, sym.samples, atol=1e-13)


def test_derivative_of_constant_vanishes():
    box, grid = helpers.box_and_grid(2, 2)
    sym = constant_symbol(box, grid, 2.5 - 1j)
    for beta in [(1, 0), (0, 1), (2, 1)]:
        np.testing.assert_allclose(x_derivative(sym, beta).samples, 0.0, atol=1e-13)


def test_second_derivative_against_stencil_oracle():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.multiplier_symbol(box, grid,
                                    lambda x: np.exp(2j * np.pi * 3 * x[:, 0]))
    out = x_derivative(sym, (2,))
    fn = lambda t: np.exp(2j * np.pi * 3 * t)
    stencil = oracles.second_derivative_stencil(fn, grid.nodes[:, 0])
    expected = stencil / (2j * np.pi) ** 2
    assert np.max(np.abs(out.samples[0] - expected)) <= 1e-6
    np.testing.assert_allclose(out.samples, 9.0 * sym.samples, atol=1e-12)


def test_falling_derivative_order_one_equals_plain_derivative():
    box, grid = helpers.box_and_grid(1, 5)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(6))
    np.testing.assert_allclose(falling_derivative(sym, (1,)).samples,
                               x_derivative(sym, (1,)).samples, atol=1e-13)


@pytest.mark.parametrize("d,ell", [(0, 1), (0, 2), (1, 2), (2, 3)])
def test_falling_derivative_annihilates_low_degree_characters(d, ell):
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.multiplier_symbol(box, grid,
                                    lambda x: np.exp(2j * np.pi * d * x[:, 0]))
    out = falling_derivative(sym, (ell,))
    assert np.max(np.abs(out.samples)) <= 1e-12


def test_falling_derivative_multiplier_value():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.multiplier_symbol(box, grid,
                                    lambda x: np.exp(2j * np.pi * 2 * x[:, 0]))
    out = falling_derivative(sym, (2,))
    np.testing.assert_allclose(out.samples, 2.0 * sym.samples, atol=1e-12)


def test_falling_derivative_multiplier_beyond_int64_range():
    # (-64)(-65) ... (-75) is about 1e22: the multiplier must not wrap
    box, grid = helpers.box_and_grid(1, 64)
    sym = helpers.multiplier_symbol(box, grid,
                                    lambda x: np.exp(-2j * np.pi * 64 * x[:, 0]))
    want = oracles.falling_factorial(np.array(-64.0), 12)
    out = falling_derivative(sym, (12,))
    assert np.max(np.abs(out.samples - want * sym.samples)) <= 1e-10 * abs(want)


def test_falling_derivative_annihilation_of_one_sided_polynomials():
    # per-axis degree < 2 with only nonnegative frequencies
    box, grid = helpers.box_and_grid(1, 5)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sym = helpers.multiplier_symbol(
        box, grid, lambda x: c[0] + c[1] * np.exp(2j * np.pi * x[:, 0]))
    assert np.max(np.abs(falling_derivative(sym, (2,)).samples)) <= 1e-12


@pytest.mark.parametrize("n, N, betas", [
    (1, 6, [(0,), (1,), (3,)]),
    (2, 3, [(0, 0), (2, 0), (0, 1), (2, 1)]),
    (3, 2, [(0, 0, 0), (1, 0, 2), (0, 2, 0), (1, 1, 1)])])
def test_x_derivatives_agree_with_the_n_axis_round_trip(n, N, betas):
    box, grid = helpers.box_and_grid(n, N)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(60 + n))
    for derivative, factor in [(x_derivative, lambda l, b: l ** b),
                               (falling_derivative, oracles.falling_factorial),
                               (partial_x_derivative, lambda l, b: (2j * np.pi * l) ** b)]:
        for beta in betas:
            got = derivative(sym, beta).samples
            want = oracles.x_derivative(sym, beta, factor)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(derivative(sym, (0,) * n).samples, sym.samples)


def _recorded_calls(monkeypatch):
    """The names of the numpy FFT and matmul calls made from here on, in order."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    monkeypatch.setattr(np, "matmul", counted("matmul", np.matmul))
    return calls


def _single_derivative_calls(monkeypatch, bound):
    """The FFT and matmul calls of falling_derivative at beta = (2, 0, 1) and
    at beta = 0 on one row block, grid axes of at most ``bound`` points
    circulant: nothing is applied along an axis with beta_i = 0."""
    monkeypatch.setattr(pdz.symbols, "CIRCULANT_AXIS_MAX", bound)
    box, grid = helpers.box_and_grid(3, 2)
    assert len(list(pdz.symbols.row_blocks(box.size, grid.size))) == 1
    sym = helpers.random_symbol(box, grid, np.random.default_rng(8))
    calls = _recorded_calls(monkeypatch)
    taken = []
    for beta in [(2, 0, 1), (0, 0, 0)]:
        calls.clear()
        falling_derivative(sym, beta)
        taken.append(list(calls))
    return taken


def test_a_single_derivative_transforms_only_the_axes_it_differentiates(monkeypatch):
    # one FFT and one inverse FFT along each axis with beta_i > 0
    assert _single_derivative_calls(monkeypatch, 0) == [["fft", "ifft"] * 2, []]


def test_a_single_derivative_multiplies_only_along_the_axes_it_differentiates(monkeypatch):
    # the two operators' first columns, then one circulant product per axis
    assert _single_derivative_calls(monkeypatch, 5) == [["ifft"] * 2 + ["matmul"] * 2, []]


FACTORS = {"power": pdz.symbols._power, "falling": pdz.symbols.falling_factor,
           "partial": pdz.symbols.partial_factor}


@pytest.mark.parametrize("lines", ["default", "one"], ids=["default-products", "one-line-products"])
@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n, N", [(1, 6), (2, 3), (3, 2)])
def test_the_circulant_and_fft_routes_agree(monkeypatch, n, N, factor, lines):
    # every node of the derivative tree up to high = 7, and a single mixed
    # derivative, taken by circulant products and by FFT, multiplier and
    # inverse FFT; the products stacked as they come, or one line of the
    # axis each, as on axes too long for the products to stay serial
    if lines == "one":
        monkeypatch.setattr(pdz.symbols, "_SERIAL_PRODUCT", 1)
    box, grid = helpers.box_and_grid(n, N)
    values = helpers.random_symbol(box, grid, np.random.default_rng(70 + n)).samples[:5]
    sym = helpers.random_symbol(box, grid, np.random.default_rng(80 + n))
    beta = (3, 1, 2)[:n]
    taken = {}
    for route, bound in [("circulant", grid.M), ("fft", grid.M - 1)]:
        monkeypatch.setattr(pdz.symbols, "CIRCULANT_AXIS_MAX", bound)
        operators = pdz.symbols.axis_operators(grid, 7, FACTORS[factor])
        nodes = {alpha: node.copy() for alpha, node in
                 pdz.symbols.x_derivatives(values, grid, 7, operators)}
        taken[route] = nodes, pdz.symbols._x_derivative(sym, beta, FACTORS[factor]).samples
    (circulant, single), (fft, want_single) = taken["circulant"], taken["fft"]
    assert sorted(circulant) == sorted(fft) == sorted(multi_indices_below(n, 8))
    for alpha, want in fft.items():
        assert np.abs(circulant[alpha] - want).max() <= 1e-13 * np.abs(want).max(), alpha
    assert np.abs(single - want_single).max() <= 1e-13 * np.abs(want_single).max()


@pytest.mark.parametrize("bound", [None, 5 ** 3, 1], ids=["default", "m-lines", "one-line"])
def test_a_circulant_tree_on_a_block_is_bit_identical_to_the_whole_one(monkeypatch, bound):
    # each product of a stacked circulant product takes a number of lines set
    # by M, n and the axis alone, so a block's nodes are those rows of the
    # whole array's, however many lines one product takes
    if bound is not None:
        monkeypatch.setattr(pdz.symbols, "_SERIAL_PRODUCT", bound)
    box, grid = helpers.box_and_grid(3, 2)
    values = helpers.random_symbol(box, grid, np.random.default_rng(9)).samples
    operators = pdz.symbols.axis_operators(grid, 3, pdz.symbols.falling_factor)
    whole = {alpha: node.copy()
             for alpha, node in pdz.symbols.x_derivatives(values, grid, 3, operators)}
    for alpha, node in pdz.symbols.x_derivatives(values[7:19], grid, 3, operators):
        assert np.array_equal(node, whole[alpha][7:19]), alpha


# ---------------------------------------------------------------------------
# seminorms, orders, ellipticity


def test_seminorm_of_first_difference_symbol():
    box, grid = helpers.box_and_grid(1, 16)
    sym = helpers.forward_diff_symbol(box, grid)
    got = seminorm_estimate(sym, (0,), (0,), SymbolClassParams(0.0))
    # max over the grid of |e^{2 pi i x} - 1|; the grid max tends to 2
    assert got == pytest.approx(2.0, abs=0.01)
    assert got <= 2.0


def test_seminorm_vanishes_for_lattice_constant_rows():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.forward_diff_symbol(box, grid)
    assert seminorm_estimate(sym, (1,), (0,), SymbolClassParams(0.0)) <= 1e-14


def test_seminorm_of_weight_is_one():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.weight_symbol(box, grid, 1.0)
    got = seminorm_estimate(sym, (0,), (0,), SymbolClassParams(1.0))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_seminorm_reads_a_definition_without_keeping_its_samples():
    # the differences and derivatives of a definition-backed symbol read its
    # rows into their own array; the symbol keeps streaming
    box, grid = helpers.box_and_grid(2, 8)
    params = SymbolClassParams(2.0)
    definition = SymbolDefinition(
        lambda k, x: (1.0 + (k**2).sum(axis=-1)) * (2.0 + np.exp(2j * np.pi * x[..., 0])),
        params=params)
    sym = sample(definition, box, grid)
    stored = sample(definition, box, grid)
    stored.samples
    for alpha, beta in [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((2, 1), (0, 2))]:
        assert (seminorm_estimate(sym, alpha, beta, params)
                == seminorm_estimate(stored, alpha, beta, params))
        assert np.array_equal(forward_difference(sym, alpha).samples,
                              forward_difference(stored, alpha).samples)
        assert np.array_equal(falling_derivative(sym, beta).samples,
                              falling_derivative(stored, beta).samples)
    assert sym._samples is None


def test_seminorm_monotone_and_stable_under_refinement():
    params = SymbolClassParams(2.0)
    histories = {(0, 0): [], (1, 0): [], (1, 1): [], (2, 0): []}
    for N in (4, 8, 16):
        box, grid = helpers.box_and_grid(1, N)
        k1 = box.points[:, 0].astype(float)
        sym = SampledSymbol(
            box, grid,
            np.outer(1.0 + k1**2, 2.0 + np.cos(2 * np.pi * grid.nodes[:, 0])),
            params=params)
        for (a, b) in histories:
            histories[(a, b)].append(
                seminorm_estimate(sym, (a,), (b,), params, interior=(a >= 2)))
    for key, hist in histories.items():
        assert hist[0] <= hist[1] + 1e-12 and hist[1] <= hist[2] + 1e-12, (key, hist)
        assert hist[2] <= 4.0 * max(hist[0], 1e-12), (key, hist)  # bounded, not blowing up


@pytest.mark.parametrize("s,expected,tol", [(2.0, 2.0, 0.1), (0.0, 0.0, 0.05),
                                            (-1.0, -1.0, 0.1)])
def test_order_fit_on_pure_weights(s, expected, tol):
    box, grid = helpers.box_and_grid(1, 16)
    sym = helpers.weight_symbol(box, grid, s)
    assert abs(order_fit(sym) - expected) <= tol


def test_order_fit_requires_large_box():
    box, grid = helpers.box_and_grid(1, 3)
    with pytest.raises(DomainMismatchError):
        order_fit(constant_symbol(box, grid))


def test_order_fit_rejects_zero_symbol():
    box, grid = helpers.box_and_grid(1, 8)
    with pytest.raises(DomainMismatchError):
        order_fit(constant_symbol(box, grid, 0.0))


def test_order_fit_skips_zero_shells():
    box, grid = helpers.box_and_grid(1, 8)
    vals = np.zeros((box.size, grid.size), dtype=complex)
    mask = np.abs(box.points[:, 0]) >= 1  # zero out the innermost shell
    vals[mask] = (1.0 + box.norms[mask])[:, None] ** 2
    assert abs(order_fit(SampledSymbol(box, grid, vals)) - 2.0) <= 0.1


def test_ellipticity_of_example3():
    box, grid = helpers.box_and_grid(1, 8)
    rep = ellipticity_check(helpers.example3_symbol(box, grid, a=3.0), 0.0)
    assert rep.ok
    assert rep.constant == pytest.approx(3.0, rel=1e-12)


def test_first_difference_symbol_is_not_elliptic():
    box, grid = helpers.box_and_grid(1, 8)
    rep = ellipticity_check(helpers.forward_diff_symbol(box, grid), 0.0)
    assert not rep.ok
    assert rep.constant == pytest.approx(0.0, abs=1e-14)
    assert rep.witness_x == (0.0,)


def test_ellipticity_of_quadratic_weight():
    box, grid = helpers.box_and_grid(1, 8)
    rep = ellipticity_check(helpers.weight_symbol(box, grid, 2.0), 2.0)
    assert rep.ok
    assert rep.constant == pytest.approx(1.0, rel=1e-12)


def test_ellipticity_cutoff_must_stay_inside_box():
    box, grid = helpers.box_and_grid(1, 4)
    with pytest.raises(DomainMismatchError):
        ellipticity_check(constant_symbol(box, grid), 0.0, m_cut=4)


# ---------------------------------------------------------------------------
# periodic Taylor expansion


def test_taylor_of_constant():
    grid = helpers.box_and_grid(1, 4)[1]
    pt = periodic_taylor(TorusFunction(grid, np.full(grid.size, 2.5 + 1j)), 3)
    assert pt.coefficients[(0,)] == pytest.approx(2.5 + 1j)
    assert all(abs(c) <= 1e-13 for a, c in pt.coefficients.items() if a != (0,))
    assert all(np.max(np.abs(r)) <= 1e-13 for r in pt.remainders.values())


def test_taylor_of_difference_character():
    grid = helpers.box_and_grid(1, 8)[1]
    h = TorusFunction(grid, np.exp(2j * np.pi * grid.nodes[:, 0]) - 1.0)
    pt = periodic_taylor(h, 2)
    assert abs(pt.coefficients[(0,)]) <= 1e-13
    assert pt.coefficients[(1,)] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pt.remainders[(2,)])) <= 1e-12
    assert np.max(np.abs(pt.reconstruct() - h.values)) <= 1e-10


@pytest.mark.parametrize("n,M,order", [(1, 9, 3), (2, 9, 2), (2, 9, 3)])
def test_taylor_reconstruction_of_random_trig_polynomial(n, M, order):
    grid = helpers.box_and_grid(n, (M - 1) // 2)[1]
    rng = np.random.default_rng(10 * n + order)
    vals = np.zeros(grid.size, dtype=complex)
    for _ in range(5):
        freq = rng.integers(-2, 3, size=n)
        coef = rng.standard_normal() + 1j * rng.standard_normal()
        vals += coef * np.exp(2j * np.pi * (grid.nodes @ freq.astype(float)))
    h = TorusFunction(grid, vals)
    pt = periodic_taylor(h, order)
    assert np.max(np.abs(pt.reconstruct() - h.values)) <= 1e-10


def test_taylor_coefficients_match_spectral_oracle():
    grid = helpers.box_and_grid(2, 4)[1]
    rng = np.random.default_rng(11)
    vals = np.zeros(grid.size, dtype=complex)
    for _ in range(4):
        freq = rng.integers(-2, 3, size=2)
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
            2j * np.pi * (grid.nodes @ freq.astype(float)))
    h = TorusFunction(grid, vals)
    pt = periodic_taylor(h, 3)
    for alpha, got in pt.coefficients.items():
        want = oracles.falling_coefficient_at_zero(h.values, grid, alpha)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), alpha


def test_taylor_order_validation():
    grid = helpers.box_and_grid(1, 3)[1]
    with pytest.raises(DomainMismatchError):
        periodic_taylor(TorusFunction.ones(grid), 0)


# ---------------------------------------------------------------------------
# multi-index plumbing


def test_multi_index_enumeration_and_factorials():
    idx = multi_indices_below(2, 3)
    assert idx[0] == (0, 0)
    assert set(idx) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}
    assert multi_factorial((3, 2)) == 12
    assert multi_factorial((0, 0)) == 1


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("n,N", [(1, 6), (2, 3), (3, 2)])
def test_blocked_kappa_matches_full_transform(monkeypatch, n, N, rows):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, box.size)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(30 + n))
    axes = tuple(range(1, n + 1))
    full = np.fft.ifftn(sym.samples.reshape((box.size,) + grid.shape), axes=axes)
    full = np.fft.fftshift(full, axes=axes).reshape(box.size, box.size)
    assert np.array_equal(sym.kappa(), full)


def test_symbol_class_params_validation():
    SymbolClassParams(1.0, rho=1.0, delta=0.0).validate_for_calculus()
    with pytest.raises(DomainMismatchError):
        SymbolClassParams(1.0, rho=0.5, delta=0.5).validate_for_calculus()
    with pytest.raises(DomainMismatchError):
        SymbolClassParams(1.0, rho=1.5, delta=0.0).validate_for_calculus()


def test_mixed_axis_falling_derivative():
    box, grid = helpers.box_and_grid(2, 3)
    phase = np.exp(2j * np.pi * (2 * grid.nodes[:, 0] + grid.nodes[:, 1]))
    sym = SampledSymbol(box, grid,
                        np.broadcast_to(phase, (box.size, grid.size)).copy())
    # multipliers: 2*(2-1) = 2 on axis one, 1 on axis two
    out = falling_derivative(sym, (2, 1))
    np.testing.assert_allclose(out.samples, 2.0 * sym.samples, atol=1e-12)
    assert np.max(np.abs(falling_derivative(sym, (3, 0)).samples)) <= 1e-11


def test_taylor_reconstruction_exact_for_rough_grid_functions():
    # the expansion is an on-grid identity: no smoothness of h is needed for
    # reconstruction (only the coefficient values use the interpolant)
    grid = helpers.box_and_grid(1, 6)[1]
    rng = np.random.default_rng(19)
    h = TorusFunction(grid, rng.standard_normal(grid.size)
                      + 1j * rng.standard_normal(grid.size))
    pt = periodic_taylor(h, 3)
    assert np.max(np.abs(pt.reconstruct() - h.values)) <= 1e-10


def test_generalized_difference_with_squared_weight_is_second_difference():
    box, grid = helpers.box_and_grid(1, 5)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(21))
    q = TorusFunction(grid, (np.exp(2j * np.pi * grid.nodes[:, 0]) - 1.0) ** 2)
    lhs = generalized_difference(sym, q).samples
    rhs = forward_difference(sym, (2,)).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_transforms_declare_no_class_they_were_not_given():
    # D^(beta) raises the order by delta|beta| and Delta^alpha lowers it by
    # rho|alpha|, so the input's declared class does not carry over
    box, grid = helpers.box_and_grid(1, 3)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(6))
    sym = sym.with_samples(sym.samples, params=SymbolClassParams(2.0, rho=1.0, delta=0.5))
    q = TorusFunction(grid, np.exp(2j * np.pi * grid.nodes[:, 0]) - 1.0)
    for out in (forward_difference(sym, (1,)), generalized_difference(sym, q),
                x_derivative(sym, (1,)), falling_derivative(sym, (1,)),
                partial_x_derivative(sym, (1,))):
        assert out.params is None
    assert x_reflect(sym).params == sym.params  # sigma(k, -x) stays in the class
