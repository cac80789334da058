import numpy as np
import pytest

from pdz import (DomainMismatchError, LatticeBox, LatticeSequence, SampledSymbol,
                 SymbolDefinition, WeightedNormParams, apply,
                 compactness_tail, constant_symbol, hs_norm, kernel,
                 kernel_decay_fit, lp_bound_report, lp_bound_reports, lp_norm, matrix,
                 mikhlin_uniformity, operator_norm_power, schatten_report,
                 schatten_reports, trace, weighted_norm)

import helpers


# ---------------------------------------------------------------------------
# Hilbert-Schmidt norm and trace


def test_hs_norm_of_single_site_symbol():
    box, grid = helpers.box_and_grid(1, 4)
    vals = np.zeros((box.size, grid.size), dtype=complex)
    vals[box.index_of(np.array([0]))] = 1.0
    assert hs_norm(SampledSymbol(box, grid, vals)) == pytest.approx(1.0, rel=1e-12)


def test_hs_norm_of_identity_symbol():
    box, grid = helpers.box_and_grid(2, 2)
    assert hs_norm(constant_symbol(box, grid)) == pytest.approx(
        np.sqrt(box.size), rel=1e-12)


def test_hs_norm_equals_frobenius_and_row_transform_energy():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(0))
    frob = np.linalg.norm(matrix(sym).values)
    assert abs(hs_norm(sym) - frob) <= 1e-10 * frob
    energy = np.sqrt(np.sum(np.abs(sym.kappa()) ** 2))
    assert abs(hs_norm(sym) - energy) <= 1e-10 * frob


def test_trace_of_identity_symbol():
    box, grid = helpers.box_and_grid(1, 5)
    assert trace(constant_symbol(box, grid)) == pytest.approx(box.size, rel=1e-13)


def test_trace_of_shift_symbol_vanishes():
    box, grid = helpers.box_and_grid(1, 5)
    assert abs(trace(helpers.shift_symbol(box, grid))) <= 1e-12


def test_trace_of_first_difference_symbol():
    # the operator is (shift - identity): zero diagonal from the shift part,
    # -1 per lattice point from the identity part
    box, grid = helpers.box_and_grid(1, 5)
    sym = helpers.forward_diff_symbol(box, grid)
    got = trace(sym)
    assert got == pytest.approx(-box.size, rel=1e-12)
    assert got == pytest.approx(np.trace(matrix(sym).values), abs=1e-11)


def test_trace_of_lattice_multiplier_and_eigenvalue_sum():
    box, grid = helpers.box_and_grid(1, 6)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    sym = SampledSymbol(box, grid, np.repeat(w[:, None], grid.size, axis=1))
    assert trace(sym) == pytest.approx(np.sum(w), abs=1e-11)
    sym2 = helpers.random_symbol(box, grid, rng)
    eig_sum = np.sum(np.linalg.eigvals(matrix(sym2).values))
    assert abs(trace(sym2) - np.trace(matrix(sym2).values)) <= 1e-11
    assert abs(trace(sym2) - eig_sum) <= 1e-8


# ---------------------------------------------------------------------------
# Schatten diagnostics


def test_schatten_p2_is_hs_equality():
    box, grid = helpers.box_and_grid(1, 5)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(2))
    rep = schatten_report(sym, 2.0)
    s2 = rep.values["schatten_quasi_norm"]
    b2 = rep.values["symbol_side_bound"]
    assert abs(s2 - b2) <= 1e-10 * max(1.0, b2)
    assert abs(s2 - hs_norm(sym)) <= 1e-10 * max(1.0, b2)
    assert rep.all_ok


def test_schatten_rank_one_equality_at_p1():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(3)
    vals = np.zeros((box.size, grid.size), dtype=complex)
    vals[box.index_of(np.array([0]))] = (rng.standard_normal(grid.size)
                                         + 1j * rng.standard_normal(grid.size))
    sym = SampledSymbol(box, grid, vals)
    rep = schatten_report(sym, 1.0)
    # rank one: the only singular value is the row L2 norm
    row_l2 = np.sqrt(np.sum(np.abs(vals[box.index_of(np.array([0]))]) ** 2) * grid.weight)
    assert rep.values["schatten_quasi_norm"] == pytest.approx(row_l2, rel=1e-10)
    assert rep.values["symbol_side_bound"] == pytest.approx(row_l2, rel=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_schatten_bound_is_one_sided(p):
    box, grid = helpers.box_and_grid(1, 5)
    rng = np.random.default_rng(int(10 * p))
    for _ in range(5):
        rep = schatten_report(helpers.random_symbol(box, grid, rng), p)
        assert rep.all_ok, rep.render()


def test_schatten_reports_match_per_p_evaluation():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(7))
    p_values = [0.5, 1.0, 2.0, 3.0]
    reports = schatten_reports(sym, p_values)
    singular = np.linalg.svd(matrix(sym).values, compute_uv=False)
    assert [rep.name for rep in reports] == [f"schatten_p={p:g}" for p in p_values]
    for p, rep in zip(p_values, reports):
        assert rep.render() == schatten_report(sym, p).render()
        assert rep.values["schatten_quasi_norm"] == float(np.sum(singular**p) ** (1.0 / p))


def test_schatten_rejects_nonpositive_exponent():
    box, grid = helpers.box_and_grid(1, 3)
    with pytest.raises(DomainMismatchError):
        schatten_report(constant_symbol(box, grid), 0.0)


def test_schatten_at_infinity_is_the_largest_singular_value():
    """Op(2) = 2 I: every singular value is 2, so S_inf = 2, and p' = 1 makes
    B_inf the sum of the rows' L^1 norms, 2 per row."""
    box = LatticeBox(1, 3)
    rep = schatten_report(constant_symbol(box, box.matched_grid(), 2.0), np.inf)
    assert rep.values["schatten_quasi_norm"] == pytest.approx(2.0, rel=1e-12)
    assert rep.values["symbol_side_bound"] == pytest.approx(2.0 * box.size, rel=1e-12)
    assert rep.all_ok, rep.render()


def test_schatten_at_infinity_is_one_sided_on_random_symbols():
    box, grid = helpers.box_and_grid(1, 5)
    rng = np.random.default_rng(11)
    for _ in range(5):
        sym = helpers.random_symbol(box, grid, rng)
        rep = schatten_report(sym, np.inf)
        singular = np.linalg.svd(matrix(sym).values, compute_uv=False)
        assert rep.values["schatten_quasi_norm"] == float(singular.max())
        assert rep.all_ok, rep.render()


def test_schatten_rejects_nan_exponent():
    box = LatticeBox(1, 3)
    with pytest.raises(DomainMismatchError):
        schatten_report(constant_symbol(box, box.matched_grid(), 2.0), float("nan"))


# ---------------------------------------------------------------------------
# kernel decay


def test_kernel_decay_constants_stable_for_smooth_symbols():
    fixtures = {
        "poisson": lambda x: 1.0 / (2.0 + np.cos(2 * np.pi * x[:, 0])),
        "gauss": lambda x: np.exp(np.cos(2 * np.pi * x[:, 0])),
        "two_band": lambda x: 2.0 + np.cos(2 * np.pi * x[:, 0])
                    + 0.5 * np.sin(4 * np.pi * x[:, 0]),
    }
    for name, profile in fixtures.items():
        constants = {}
        for N in (8, 16):
            box, grid = helpers.box_and_grid(1, N)
            sym = helpers.multiplier_symbol(box, grid, profile)
            for n_t in (1, 2, 3):
                constants.setdefault(n_t, []).append(
                    kernel_decay_fit(sym, n_t).values["constant"])
        for n_t, (c8, c16) in constants.items():
            ratio = c16 / c8
            assert 0.5 <= ratio <= 2.0, (name, n_t, c8, c16)


def test_kernel_of_trig_polynomial_is_banded():
    box, grid = helpers.box_and_grid(1, 8)
    sym = helpers.multiplier_symbol(
        box, grid, lambda x: np.cos(2 * np.pi * x[:, 0]) + 0.5)
    km = np.abs(kernel(sym).summation_matrix())
    diff = np.abs(box.wrap(box.points[:, None, :] - box.points[None, :, :]))[:, :, 0]
    assert np.max(km[diff > 1]) <= 1e-13
    rep = kernel_decay_fit(sym, 3)
    assert np.isfinite(rep.values["constant"])


def test_kernel_decay_blows_up_for_rough_symbols():
    # random per-node values have no smoothness in x: the witnessed constant
    # must grow under refinement (negative control)
    constants = []
    for N in (8, 16):
        box, grid = helpers.box_and_grid(1, N)
        rng = np.random.default_rng(99)  # same roughness recipe at each size
        sym = SampledSymbol(box, grid, rng.standard_normal((box.size, grid.size)) + 0j)
        constants.append(kernel_decay_fit(sym, 3).values["constant"])
    assert constants[1] >= 4.0 * constants[0]


def test_kernel_decay_preconditions():
    box, grid = helpers.box_and_grid(1, 4)
    with pytest.raises(DomainMismatchError):
        kernel_decay_fit(constant_symbol(box, grid), 1)
    box, grid = helpers.box_and_grid(1, 8)
    with pytest.raises(DomainMismatchError):
        kernel_decay_fit(constant_symbol(box, grid), 4)


# ---------------------------------------------------------------------------
# lp bounds and compactness


def test_lp_bound_for_first_difference_symbol():
    box, grid = helpers.box_and_grid(1, 8)
    rep = lp_bound_report(helpers.forward_diff_symbol(box, grid), 2.0)
    assert rep.values["omega_l1"] == pytest.approx(2.0, rel=1e-10)
    assert rep.values["empirical_norm"] <= 2.0 + 1e-10
    assert rep.all_ok


def test_lp_bound_for_identity():
    box, grid = helpers.box_and_grid(1, 6)
    rep = lp_bound_report(constant_symbol(box, grid), 1.0)
    assert rep.values["omega_l1"] == pytest.approx(1.0, rel=1e-10)
    assert rep.values["empirical_norm"] == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_lp_bound_holds_on_smooth_random_symbols(p):
    box, grid = helpers.box_and_grid(1, 6)
    rng = np.random.default_rng(int(p))
    for _ in range(3):
        # random smooth symbol: few low x-frequencies, bounded lattice profile
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = 1.0 + 0.5 * np.cos(np.pi * box.points[:, 0] / (box.N + 1))
        profile = (c[0] + c[1] * np.exp(2j * np.pi * grid.nodes[:, 0])
                   + c[2] * np.exp(-2j * np.pi * grid.nodes[:, 0]))
        sym = SampledSymbol(box, grid, np.outer(w, profile))
        rep = lp_bound_report(sym, p)
        assert rep.all_ok, rep.render()


def _lp_reference(sym, p, n_random=20, seed=0):
    """The per-p evaluation: every probe applied again for this p."""
    from pdz import analysis
    best, tag = 0.0, "none"
    for idx, f in enumerate(analysis._probe_sequences(sym.box, n_random, seed)):
        ratio = lp_norm(apply(sym, f), p) / lp_norm(f, p)
        if ratio > best:
            best, tag = ratio, f"probe {idx}"
    bound = float(np.abs(sym.kappa()).max(axis=0).sum())
    return best, tag, bound


def _decaying_symbol(N):
    box, grid = helpers.box_and_grid(1, N)
    k1 = box.points[:, 0].astype(float)
    return SampledSymbol(box, grid, 1.5 + (0.7 / (1.0 + k1**2))[:, None]
                         * np.exp(2j * np.pi * grid.nodes[:, 0])[None, :])


def test_lp_bound_reports_equal_per_p_evaluation():
    sym = _decaying_symbol(12)
    p_values = [1.0, 2.0, 3.5]
    reports = lp_bound_reports(sym, p_values, n_random=5, seed=3)
    assert [r.render() for r in reports] == [
        lp_bound_report(sym, p, n_random=5, seed=3).render() for p in p_values]
    for rep, p in zip(reports, p_values):
        best, tag, bound = _lp_reference(sym, p, n_random=5, seed=3)
        assert rep.name == f"lp_bound_p={p:g}"
        assert rep.values["empirical_norm"] == best
        assert rep.values["omega_l1"] == bound
        assert f"from {tag}," in rep.render()


def test_lp_bound_reports_apply_each_probe_once(monkeypatch):
    from pdz import analysis
    calls = []

    def counted(sym, f):
        calls.append(1)
        return f  # the count is what matters here

    monkeypatch.setattr(analysis, "apply", counted)
    sym = _decaying_symbol(256)  # K = 513: 128 sites and 2 * 20 random probes
    assert len(lp_bound_reports(sym, [1.0, 2.0])) == 2
    assert len(calls) == 168


def test_empty_p_values_do_no_work(monkeypatch):
    from pdz import analysis

    def unreachable(*args, **kwargs):
        raise AssertionError("no work for an empty p_values")

    monkeypatch.setattr(np.linalg, "svd", unreachable)
    monkeypatch.setattr(analysis, "apply", unreachable)
    sym = _decaying_symbol(8)
    assert schatten_reports(sym, []) == []
    assert lp_bound_reports(sym, []) == []


def test_lp_bound_reports_reject_p_below_one():
    with pytest.raises(DomainMismatchError):
        lp_bound_reports(_decaying_symbol(4), [2.0, 0.5])


def test_compactness_tail_slope_for_decaying_symbol():
    box, grid = helpers.box_and_grid(1, 16)
    sym = helpers.separable_symbol(
        box, grid,
        lambda pts: 1.0 / (1.0 + np.sqrt((pts.astype(float) ** 2).sum(axis=1))),
        lambda nodes: 1.0 / (2.0 + np.cos(2 * np.pi * nodes[:, 0])))
    cuts = np.array([2.0, 4.0, 8.0])
    tails = np.array([compactness_tail(sym, c) for c in cuts])
    assert np.all(np.diff(tails) < 0)
    slope = np.polyfit(np.log(1.0 + cuts), np.log(tails), 1)[0]
    assert abs(slope - (-1.0)) <= 0.2


def test_compactness_tail_of_compactly_supported_symbol():
    box, grid = helpers.box_and_grid(1, 8)
    vals = np.zeros((box.size, grid.size), dtype=complex)
    inner = np.abs(box.points[:, 0]) <= 3
    vals[inner] = np.random.default_rng(4).standard_normal((int(inner.sum()), grid.size))
    assert compactness_tail(SampledSymbol(box, grid, vals), 4) == 0.0


def test_compactness_tail_of_identity_does_not_vanish():
    box, grid = helpers.box_and_grid(1, 8)
    for cut in (2, 4, 6):
        assert compactness_tail(constant_symbol(box, grid), cut) == pytest.approx(
            1.0, rel=1e-10)


def test_compactness_tail_requires_cut_inside_box():
    box, grid = helpers.box_and_grid(1, 4)
    with pytest.raises(DomainMismatchError):
        compactness_tail(constant_symbol(box, grid), 4)


# ---------------------------------------------------------------------------
# weighted norms


def test_weighted_norm_reduces_to_lp():
    box, _ = helpers.box_and_grid(1, 5)
    f = helpers.random_sequence(box, np.random.default_rng(5))
    assert weighted_norm(f, WeightedNormParams(0.0, 2.0)) == pytest.approx(
        lp_norm(f, 2.0), rel=1e-13)


def test_weighted_norm_of_deltas():
    box, _ = helpers.box_and_grid(1, 5)
    assert weighted_norm(LatticeSequence.delta(box), WeightedNormParams(3.0)) == 1.0
    f = LatticeSequence.delta(box, [3])
    assert weighted_norm(f, WeightedNormParams(2.0, 2.0)) == pytest.approx(16.0)


def test_weighted_norm_validates_exponent():
    with pytest.raises(DomainMismatchError):
        WeightedNormParams(0.0, 0.5)


def test_weighted_boundedness_constant_stable_for_zero_type_symbols():
    # sigma in the (rho, delta) = (0, 0) family of order mu = 1:
    # Op(sigma) maps s-weighted data to (s - mu)-weighted data uniformly in N
    mu = 1.0
    for s in (-2.0, 0.0, 2.0):
        constants = []
        for N in (8, 16):
            box, grid = helpers.box_and_grid(1, N)
            sym = helpers.separable_symbol(
                box, grid,
                lambda pts: (1.0 + np.sqrt((pts.astype(float) ** 2).sum(axis=1))) ** mu,
                lambda nodes: 2.0 + np.cos(2 * np.pi * nodes[:, 0]))
            rng = np.random.default_rng(N)
            best = 0.0
            for _ in range(10):
                f = helpers.random_sequence(box, rng)
                num = weighted_norm(apply(sym, f), WeightedNormParams(s - mu))
                den = weighted_norm(f, WeightedNormParams(s))
                best = max(best, num / den)
            constants.append(best)
        assert constants[1] <= 2.0 * constants[0], (s, constants)


# ---------------------------------------------------------------------------
# uniform l2 bounds across box sizes


def test_mikhlin_identity():
    rep = mikhlin_uniformity(SymbolDefinition(
        lambda k, x: np.ones(np.broadcast_shapes(k.shape[:-1], x.shape[:-1]))),
        1, [4, 8])
    for value in rep.values["norms"]:
        assert value == pytest.approx(1.0, abs=1e-7)


def test_mikhlin_parity_fixture_uniformly_bounded():
    definition = SymbolDefinition(
        lambda k, x: np.exp(2j * np.pi * x[..., 0] * (np.abs(k[..., 0]) % 2)))
    rep = mikhlin_uniformity(definition, 1, [4, 8, 16])
    norms = rep.values["norms"]
    assert max(norms) <= 1.05 * min(norms)
    assert max(norms) == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_mikhlin_negative_control_grows_like_weight():
    definition = SymbolDefinition(
        lambda k, x: (1.0 + np.abs(k[..., 0].astype(float))) ** 0.5
        + 0.0 * x[..., 0])
    rep = mikhlin_uniformity(definition, 1, [4, 8, 16])
    for N, value in zip((4, 8, 16), rep.values["norms"]):
        assert value == pytest.approx(np.sqrt(1.0 + N), rel=0.2)


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    got = operator_norm_power(mat, tol=1e-10)
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert got == pytest.approx(want, rel=1e-6)


def test_trace_equals_sum_of_central_kernel_column():
    box, grid = helpers.box_and_grid(1, 5)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(7))
    central = kernel(sym).kappa[:, box.index_of(np.zeros(1, dtype=int))]
    assert abs(trace(sym) - np.sum(central)) <= 1e-12


def test_report_rendering_carries_flag_witnesses():
    box, grid = helpers.box_and_grid(1, 5)
    rep = lp_bound_report(constant_symbol(box, grid), 2.0)
    text = rep.render()
    assert "omega_l1" in text and "pass" in text
    assert all(flag.witness for flag in rep.flags)


# ---------------------------------------------------------------------------
# the l^inf end of the lp scale


@pytest.mark.parametrize("values", [(3, 0, 0, 0, 0, 0, 0.5), (0.5, 0, 0, 0, 0, 0, 0.25)])
def test_lp_and_weighted_norms_at_infinity_are_the_max(values):
    box, _ = helpers.box_and_grid(1, 3)
    f = LatticeSequence(box, np.array(values, dtype=complex))
    assert lp_norm(f, np.inf) == max(values)
    assert weighted_norm(f, WeightedNormParams(0.0, np.inf)) == max(values)
    weighted = float(((1.0 + box.norms) * np.abs(f.values)).max())
    assert weighted_norm(f, WeightedNormParams(1.0, np.inf)) == weighted


def test_lp_bound_report_at_infinity_sees_the_operator_norm():
    box, grid = helpers.box_and_grid(1, 3)
    rep = lp_bound_report(constant_symbol(box, grid, 2.0), np.inf)
    assert rep.values["empirical_norm"] == pytest.approx(2.0, rel=1e-12)
    assert rep.values["omega_l1"] == pytest.approx(2.0, rel=1e-12)
    assert rep.all_ok


def test_norms_and_lp_bounds_refuse_a_nan_exponent():
    box, grid = helpers.box_and_grid(1, 3)
    with pytest.raises(DomainMismatchError):
        lp_norm(LatticeSequence.delta(box), np.nan)
    with pytest.raises(DomainMismatchError):
        WeightedNormParams(0.0, np.nan)
    with pytest.raises(DomainMismatchError):
        lp_bound_reports(constant_symbol(box, grid), [2.0, np.nan])
