import tracemalloc

import numpy as np
import pytest

from pdz import (AmplitudeDefinition, DomainMismatchError, LatticeBox,
                 LatticeSequence, NonFiniteValueError, OperatorMatrix, PhaseFunction,
                 ResourceLimitError, SymbolDefinition, TorusFunction, amplitude_to_symbol, apply,
                 apply_amplitude, apply_fso, apply_toroidal, constant_symbol,
                 fso_boundedness_check, kernel, kernel_apply, link_defect, matrix, sample,
                 sample_toroidal, symbol_from_operator, symbols, toroidal_from_lattice)
from pdz.symbols import multi_indices_of_degree, partial_x_derivative

import helpers
import oracles


# ---------------------------------------------------------------------------
# the three operator realizations


def test_constant_symbol_acts_as_identity():
    box, grid = helpers.box_and_grid(1, 4)
    f = helpers.random_sequence(box, np.random.default_rng(0))
    np.testing.assert_allclose(apply(constant_symbol(box, grid), f).values,
                               f.values, atol=1e-13)


@pytest.mark.parametrize("n,axis", [(1, 0), (2, 1)])
def test_first_difference_symbol_action(n, axis):
    box, grid = helpers.box_and_grid(n, 3)
    f = helpers.random_sequence(box, np.random.default_rng(1))
    sym = helpers.forward_diff_symbol(box, grid, axis)
    v = np.zeros(n, dtype=int)
    v[axis] = 1
    expected = f.shifted(v).values - f.values
    np.testing.assert_allclose(apply(sym, f).values, expected, atol=1e-13)


@pytest.mark.parametrize("n,N", [(1, 2), (1, 4), (1, 8), (2, 2), (2, 4)])
def test_three_path_equivalence(n, N):
    box, grid = helpers.box_and_grid(n, N)
    rng = np.random.default_rng(17 * N + n)
    for _ in range(5):
        sym = helpers.random_symbol(box, grid, rng)
        f = helpers.random_sequence(box, rng)
        scale = np.max(np.abs(f.values))
        fft_path = apply(sym, f).values
        kernel_path = kernel_apply(kernel(sym), f).values
        matrix_path = matrix(sym).matvec(f).values
        direct = oracles.quantize_direct(sym.samples, f.values, box, grid)
        assert np.max(np.abs(fft_path - kernel_path)) <= 1e-11 * scale
        assert np.max(np.abs(fft_path - matrix_path)) <= 1e-11 * scale
        assert np.max(np.abs(fft_path - direct)) <= 1e-11 * scale


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("n,N", [(1, 6), (2, 3), (3, 2)])
def test_blocked_apply_matches_full_inverse_transform(monkeypatch, n, N, rows):
    # reference: inverse-transform every weighted row over all grid axes, then
    # read each row at its own frequency k mod M
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    rng = np.random.default_rng(40 + n)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    fhat = np.fft.fftn(box.to_fft_layout(f.values)).ravel()
    axes = tuple(range(1, n + 1))
    full = np.fft.ifftn((sym.samples * fhat).reshape((box.size,) + grid.shape), axes=axes)
    diagonal = full.reshape(box.size, grid.size)[np.arange(box.size), box.fft_indices]
    assert np.array_equal(apply(sym, f).values, diagonal)


def test_apply_rejects_mismatched_box():
    box, grid = helpers.box_and_grid(1, 4)
    other = LatticeBox(1, 5)
    with pytest.raises(DomainMismatchError):
        apply(constant_symbol(box, grid), LatticeSequence.delta(other))


# ---------------------------------------------------------------------------
# kernels and matrices


def test_kernel_of_identity_symbol():
    box, grid = helpers.box_and_grid(1, 3)
    ker = kernel(constant_symbol(box, grid))
    expected = np.zeros((box.size, box.size))
    expected[:, box.index_of(np.zeros(1, dtype=int))] = 1.0
    np.testing.assert_allclose(ker.kappa, expected, atol=1e-14)


def test_kernel_of_first_difference_symbol():
    box, grid = helpers.box_and_grid(1, 3)
    ker = kernel(helpers.forward_diff_symbol(box, grid))
    zero = box.index_of(np.array([0]))
    minus = box.index_of(np.array([-1]))
    for i in range(box.size):
        row = ker.kappa[i]
        assert row[minus] == pytest.approx(1.0, abs=1e-13)
        assert row[zero] == pytest.approx(-1.0, abs=1e-13)
        others = np.delete(row, [zero, minus])
        assert np.max(np.abs(others)) <= 1e-13


def test_kappa_and_kernel_arrays_are_read_only():
    box, grid = helpers.box_and_grid(2, 2)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(8))
    with pytest.raises(ValueError):
        sym.kappa()[0, 0] = 0.0
    with pytest.raises(ValueError):
        kernel(sym).kappa[0, 0] = 0.0


def test_kernel_diagonal_is_quadrature_mean():
    box, grid = helpers.box_and_grid(2, 2)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(2))
    ker = kernel(sym)
    for i in [0, 5, box.size - 1]:
        k = box.points[i]
        mean = grid.quadrature(sym.samples[i])
        assert ker.at(k, k) == pytest.approx(mean, abs=1e-13)


def test_matrix_of_identity_and_shift():
    box, grid = helpers.box_and_grid(1, 3)
    np.testing.assert_allclose(matrix(constant_symbol(box, grid)).values,
                               np.eye(box.size), atol=1e-13)
    shift = matrix(helpers.shift_symbol(box, grid)).values
    # permutation sending f to f(. + 1), cyclically
    perm = np.zeros((box.size, box.size))
    for i in range(box.size):
        perm[i, (i + 1) % box.size] = 1.0
    np.testing.assert_allclose(shift, perm, atol=1e-13)


def test_matrix_respects_dense_cap(monkeypatch):
    monkeypatch.setattr("pdz.quantize.DENSE_CAP", 64)
    box = LatticeBox(1, 40)
    grid = box.matched_grid()
    with pytest.raises(ResourceLimitError):
        matrix(constant_symbol(box, grid))


def test_box_point_cap(monkeypatch):
    monkeypatch.setattr("pdz.grids.POINT_CAP", 1000)
    with pytest.raises(ResourceLimitError):
        LatticeBox(2, 40)


# ---------------------------------------------------------------------------
# symbol extraction


def test_symbol_of_identity_matrix():
    box, grid = helpers.box_and_grid(1, 3)
    sym = symbol_from_operator(OperatorMatrix(box, np.eye(box.size)))
    np.testing.assert_allclose(sym.samples, 1.0, atol=1e-13)


def test_symbol_of_cyclic_shift_matrix():
    box, grid = helpers.box_and_grid(1, 3)
    perm = np.zeros((box.size, box.size))
    for i in range(box.size):
        perm[i, (i + 1) % box.size] = 1.0
    sym = symbol_from_operator(OperatorMatrix(box, perm))
    # direct evaluation: row k of the operator applied to a character
    expected = np.exp(2j * np.pi * grid.nodes[:, 0])
    for row in sym.samples:
        np.testing.assert_allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 4), (2, 2)])
def test_symbol_matrix_round_trip(n, N):
    box, grid = helpers.box_and_grid(n, N)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(3))
    rec = symbol_from_operator(matrix(sym))
    assert np.max(np.abs(rec.samples - sym.samples)) <= 1e-11


# ---------------------------------------------------------------------------
# amplitudes


def _lookup_symbol_amplitude(sym, box, grid, variable):
    """Amplitude evaluating stored samples of sigma at (k or l, x)."""
    def evaluator(k, l, x):
        source = k if variable == "k" else l
        ki = source[..., 0] + box.N
        xi = np.rint(x[..., 0] * grid.M).astype(int) % grid.M
        vals = sym.samples[ki, xi]
        return np.conj(vals) if variable == "l" else vals
    return AmplitudeDefinition(evaluator)


def test_amplitude_reduces_to_symbol_application():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(4)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    amp = _lookup_symbol_amplitude(sym, box, grid, "k")
    np.testing.assert_allclose(apply_amplitude(amp, f).values,
                               apply(sym, f).values, atol=1e-12)


def test_amplitude_in_second_variable_is_adjoint():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(5)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    amp = _lookup_symbol_amplitude(sym, box, grid, "l")
    oracle = np.conj(matrix(sym).values).T @ f.values
    np.testing.assert_allclose(apply_amplitude(amp, f).values, oracle, atol=1e-12)


def test_constant_amplitude_is_identity():
    box, _ = helpers.box_and_grid(1, 4)
    f = helpers.random_sequence(box, np.random.default_rng(6))
    amp = AmplitudeDefinition(lambda k, l, x: np.ones(
        np.broadcast_shapes(k.shape[:-1], l.shape[:-1], x.shape[:-1])))
    np.testing.assert_allclose(apply_amplitude(amp, f).values, f.values, atol=1e-12)


def test_amplitude_to_symbol_is_exact_for_k_only_amplitudes():
    box, grid = helpers.box_and_grid(1, 4)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(7))
    amp = _lookup_symbol_amplitude(sym, box, grid, "k")
    reduced = amplitude_to_symbol(amp, box, grid, 3)
    np.testing.assert_allclose(reduced.samples, sym.samples, atol=1e-12)


def test_amplitude_to_symbol_constant():
    box, grid = helpers.box_and_grid(1, 3)
    amp = AmplitudeDefinition(lambda k, l, x: np.ones(
        np.broadcast_shapes(k.shape[:-1], l.shape[:-1], x.shape[:-1])))
    np.testing.assert_allclose(amplitude_to_symbol(amp, box, grid, 2).samples,
                               1.0, atol=1e-13)


def _character_amplitude(box, grid, d):
    """``(amp, expected)`` for a(k, l, x) = b(k) e^{2 pi i l.y} e^{2 pi i d.x},
    y a grid node and d >= 0: the alpha-sum is the binomial expansion of
    e^{2 pi i d.y}, so the reduced symbol is ``expected``, b(k) e^{2 pi i (k+d).y}
    e^{2 pi i d.x}, once order > |d|, and the alpha = d terms are still
    missing at order |d|."""
    rng = np.random.default_rng(17)
    b = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    y = np.arange(1, box.n + 1) / grid.M
    d = np.asarray(d, dtype=float)

    def evaluator(k, l, x):
        return b[box.index_of(k)] * np.exp(2j * np.pi * (l @ y + x @ d))

    expected = np.outer(b * np.exp(2j * np.pi * (box.points + d) @ y),
                        np.exp(2j * np.pi * grid.nodes @ d))
    return AmplitudeDefinition(evaluator), expected


@pytest.mark.parametrize("n, N, d", [(1, 4, (2,)), (2, 2, (1, 1))], ids=["n1", "n2"])
def test_amplitude_to_symbol_reduces_l_dependent_characters(n, N, d):
    box, grid = helpers.box_and_grid(n, N)
    amp, expected = _character_amplitude(box, grid, d)
    reduced = amplitude_to_symbol(amp, box, grid, sum(d) + 1)
    np.testing.assert_allclose(reduced.samples, expected, atol=1e-12)
    amp_matrix = oracles.operator_matrix_by_columns(
        lambda v: apply_amplitude(amp, LatticeSequence(box, v)).values, box)
    assert np.max(np.abs(matrix(reduced).values - amp_matrix)) <= 1e-11
    short = amplitude_to_symbol(amp, box, grid, sum(d))
    assert np.max(np.abs(short.samples - expected)) > 1e-3


def test_amplitude_to_symbol_reduces_without_the_k_l_x_tensor(monkeypatch):
    # K = 289: the (K x K x X) tensor would be 24.1M entries, 386 MB; the
    # stencil l = k + {0, 1, 2}^2 is 9 K x X entries.  One CPU, so that the
    # peak does not grow with the row blocks transformed side by side.
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: {0})
    box, grid = helpers.box_and_grid(2, 8)
    amp, expected = _character_amplitude(box, grid, (1, 1))
    tracemalloc.start()
    try:
        reduced = amplitude_to_symbol(amp, box, grid, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(reduced.samples, expected, atol=1e-12)
    assert peak < 16 * box.size**2 * grid.size / 4


def test_amplitude_reduction_matches_operator_once_order_suffices():
    # a(k, l, x) = w(l) e^{2 pi i x}: the second-variable dependence is linear
    # in the character degree, so order 2 reproduces the operator exactly
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)

    def evaluator(k, l, x):
        return w[l[..., 0] + box.N] * np.exp(2j * np.pi * x[..., 0])

    amp = AmplitudeDefinition(evaluator)
    amp_matrix = oracles.operator_matrix_by_columns(
        lambda v: apply_amplitude(amp, LatticeSequence(box, v)).values, box)
    below = matrix(amplitude_to_symbol(amp, box, grid, 1)).values
    exact = matrix(amplitude_to_symbol(amp, box, grid, 2)).values
    beyond = matrix(amplitude_to_symbol(amp, box, grid, 4)).values
    assert np.max(np.abs(below - amp_matrix)) > 1e-3
    assert np.max(np.abs(exact - amp_matrix)) <= 1e-11
    assert np.max(np.abs(beyond - amp_matrix)) <= 1e-11


# ---------------------------------------------------------------------------
# operators with general phase


def _linear_phase(scale=1.0, matrix_factor=1):
    def evaluator(k, x):
        return 2 * np.pi * scale * np.sum(matrix_factor * k * x, axis=-1)
    return evaluator


def test_fso_with_standard_phase_reduces_to_apply():
    box, grid = helpers.box_and_grid(1, 4)
    rng = np.random.default_rng(9)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    phase = PhaseFunction(_linear_phase())
    assert np.max(np.abs(apply_fso(phase, sym, f).values
                         - apply(sym, f).values)) <= 1e-12


def test_fso_shifted_phase_translates():
    box, grid = helpers.box_and_grid(1, 4)
    f = helpers.random_sequence(box, np.random.default_rng(10))
    phase = PhaseFunction(lambda k, x: 2 * np.pi * np.sum((k + 1.0) * x, axis=-1))
    out = apply_fso(phase, constant_symbol(box, grid), f)
    np.testing.assert_allclose(out.values, f.shifted([1]).values, atol=1e-12)


def test_fso_integer_matrix_phase_against_direct_summation():
    box, grid = helpers.box_and_grid(2, 2)
    rng = np.random.default_rng(11)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    B = np.array([[1, 1], [0, 1]])

    def evaluator(k, x):
        return 2 * np.pi * np.sum((k @ B.T) * x, axis=-1)

    out = apply_fso(PhaseFunction(evaluator), sym, f)
    fhat = oracles.dft_forward(f.values, box, grid)
    phases = np.exp(1j * evaluator(box.points[:, None, :], grid.nodes[None, :, :]))
    direct = (phases * sym.samples * fhat[None, :]).sum(axis=1) * grid.weight
    np.testing.assert_allclose(out.values, direct, atol=1e-12)


def test_fso_rejects_nonperiodic_phase():
    box, grid = helpers.box_and_grid(1, 3)
    f = LatticeSequence.delta(box)
    bad = PhaseFunction(lambda k, x: np.sum(x, axis=-1))
    with pytest.raises(DomainMismatchError, match=r"phase is not 1-periodic on the grid "
                                                  r"\(defect 9\.589e-01\)"):
        apply_fso(bad, constant_symbol(box, grid), f)


def test_fso_boundedness_witnesses_standard_phase():
    box, grid = helpers.box_and_grid(1, 4)
    rep = fso_boundedness_check(PhaseFunction(_linear_phase()),
                                constant_symbol(box, grid))
    assert rep.values["phase_gradient_separation"] == pytest.approx(2 * np.pi, rel=1e-6)
    assert rep.values["sigma_derivative_sup"] == pytest.approx(1.0, abs=1e-8)


def test_fso_boundedness_with_oscillating_phase_part():
    box, grid = helpers.box_and_grid(1, 6)
    sym = helpers.multiplier_symbol(box, grid, lambda x: 2.0 + np.cos(2 * np.pi * x[:, 0]))

    def evaluator(k, x):
        return 2 * np.pi * np.sum(k * x, axis=-1) + np.sin(2 * np.pi * x[..., 0])

    rep = fso_boundedness_check(PhaseFunction(evaluator), sym)
    assert np.isfinite(rep.values["sigma_derivative_sup"])
    assert np.isfinite(rep.values["phase_difference_derivative_sup"])
    # the lattice difference of the phase is 2 pi x, whose first derivative is 2 pi
    assert rep.values["phase_difference_derivative_sup"] >= 2 * np.pi - 1e-6


def test_fso_boundedness_matches_per_alpha_references():
    # one derivative per multi-index from scratch: a fresh spectral round trip
    # for sigma, the full gradient chain in axis order for the phase difference
    box, grid = helpers.box_and_grid(2, 3)
    n = box.n
    sym = helpers.random_symbol(box, grid, np.random.default_rng(50))

    def evaluator(k, x):
        return (2 * np.pi * np.sum(k * x, axis=-1)
                + (1.0 + k[..., 0] ** 2) * np.sin(2 * np.pi * x[..., 0])
                * np.cos(2 * np.pi * x[..., 1]))

    alphas = [a for total in range(2 * n + 2) for a in multi_indices_of_degree(n, total)]
    sigma_ref = max(float(np.abs(partial_x_derivative(sym, a).samples).max()) for a in alphas)
    phi = evaluator(box.points[:, None, :], grid.nodes[None, :, :]).reshape(box.shape + grid.shape)
    interior = np.abs(box.points).max(axis=1) <= box.N - 1
    phase_ref = 0.0
    for j in range(n):
        diff = oracles.lattice_difference(phi, (1,), (j,))
        diff = diff.reshape((box.size,) + grid.shape)[interior]
        for alpha in alphas:
            work = diff
            for axis, a in enumerate(alpha):
                for _ in range(a):
                    work = np.gradient(work, 1.0 / grid.M, axis=1 + axis, edge_order=2)
            phase_ref = max(phase_ref, float(np.abs(work).max()))
    rep = fso_boundedness_check(PhaseFunction(evaluator), sym)
    assert rep.values["sigma_derivative_sup"] == sigma_ref
    assert rep.values["phase_difference_derivative_sup"] == phase_ref


def test_fso_boundedness_holds_at_most_one_and_three_quarter_sample_arrays():
    # the gradient separation of 256 probe points, taken one probe at a
    # time into one (256 x X) buffer: never the (256, 256, X, n) array of all
    # pairs (about 300 sample arrays here) nor one probe's (256, X, n)
    # differences; the sigma-derivatives and the phase differences walk one
    # row block at a time, never a whole-array spectrum or phase
    box, grid = helpers.box_and_grid(2, 12)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(51))
    tracemalloc.start()
    try:
        rep = fso_boundedness_check(PhaseFunction(_linear_phase()), sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.values["separation_pairs_subsampled_to"] == 256
    assert rep.values["phase_gradient_separation"] == pytest.approx(2 * np.pi, rel=1e-6)
    assert peak <= 1.75 * sym.samples.nbytes


def test_a_complex_phase_is_refused_not_truncated():
    box, grid = helpers.box_and_grid(2, 3)
    rng = np.random.default_rng(54)
    sym = helpers.random_symbol(box, grid, rng)
    phase = PhaseFunction(lambda k, x: _linear_phase()(k, x) + 5j)
    with pytest.raises(DomainMismatchError, match="phase must be real"):
        apply_fso(phase, sym, helpers.random_sequence(box, rng))
    with pytest.raises(DomainMismatchError, match="phase must be real"):
        fso_boundedness_check(phase, sym)
    # a complex dtype with no imaginary part is the real phase
    real = PhaseFunction(lambda k, x: _linear_phase()(k, x) + 0j)
    f = helpers.random_sequence(box, rng)
    assert np.array_equal(apply_fso(real, sym, f).values,
                          apply_fso(PhaseFunction(_linear_phase()), sym, f).values)


def test_a_non_finite_phase_is_refused_with_its_first_witness():
    # a NaN phase once read as bounded: fso_boundedness_check's running max
    # dropped it, and apply_fso named no (k, x)
    box, grid = helpers.box_and_grid(1, 3)
    rng = np.random.default_rng(55)
    sym = helpers.random_symbol(box, grid, rng)
    phase = PhaseFunction(lambda k, x: np.where(k[..., 0] == 1, np.nan,
                                                _linear_phase()(k, x)))
    for run in (lambda: apply_fso(phase, sym, helpers.random_sequence(box, rng)),
                lambda: fso_boundedness_check(phase, sym)):
        with pytest.raises(NonFiniteValueError,
                           match=r"phase non-finite at k=\(1,\), x=\(0.0,\)") as err:
            run()
        assert err.value.where == ((1,), (0.0,))


def test_apply_fso_holds_at_most_one_sample_array_beyond_the_symbol():
    # the phase, its shifted copies and their product with sigma are formed
    # one row block at a time; a symbol that keeps its definition is
    # evaluated block by block and does not build its samples
    box, grid = helpers.box_and_grid(2, 12)
    rng = np.random.default_rng(52)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    streamed = sample(SymbolDefinition(lambda k, x: 1.0 + k[..., 0] ** 2
                                       + np.exp(2j * np.pi * x[..., 1])), box, grid)
    for symbol in (sym, streamed):
        tracemalloc.start()
        try:
            apply_fso(PhaseFunction(_linear_phase()), symbol, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sym.samples.nbytes
    assert streamed._samples is None


def test_the_phase_is_evaluated_per_row_block():
    box, grid = helpers.box_and_grid(2, 12)
    rng = np.random.default_rng(53)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    calls = []

    def recorded(k, x):
        calls.append(k.reshape(-1, box.n))
        return _linear_phase()(k, x)

    apply_fso(PhaseFunction(recorded), sym, f)
    assert calls and max(len(k) for k in calls) < box.size
    # every row, unshifted and shifted along each axis
    assert sum(len(k) for k in calls) == (1 + box.n) * box.size
    calls.clear()
    fso_boundedness_check(PhaseFunction(recorded), sym)
    assert calls and max(len(k) for k in calls) < box.size


# ---------------------------------------------------------------------------
# torus-side quantization and the link


def test_toroidal_identity():
    box, grid = helpers.box_and_grid(1, 4)
    tau = sample_toroidal(lambda x, k: np.ones(
        np.broadcast_shapes(x.shape[:-1], k.shape[:-1])), grid, box)
    v = TorusFunction(grid, np.random.default_rng(12).standard_normal(grid.size) + 0j)
    np.testing.assert_allclose(apply_toroidal(tau, v).values, v.values, atol=1e-12)


def test_toroidal_character_multiplication():
    box, grid = helpers.box_and_grid(1, 4)
    tau = sample_toroidal(lambda x, k: np.exp(2j * np.pi * x[..., 0]), grid, box)
    v = TorusFunction(grid, np.random.default_rng(13).standard_normal(grid.size) + 0j)
    out = apply_toroidal(tau, v)
    np.testing.assert_allclose(out.values,
                               np.exp(2j * np.pi * grid.nodes[:, 0]) * v.values,
                               atol=1e-12)


def test_toroidal_multiplier_is_diagonal_on_characters():
    box, grid = helpers.box_and_grid(1, 3)
    w = 1.0 / (1.0 + box.points[:, 0].astype(float) ** 2)

    def evaluator(x, k):
        return w[k[..., 0] + box.N] * np.ones(x[..., 0].shape)

    tau = sample_toroidal(evaluator, grid, box)
    for freq in (-2, 0, 1):
        v = TorusFunction(grid, np.exp(2j * np.pi * freq * grid.nodes[:, 0]))
        out = apply_toroidal(tau, v)
        np.testing.assert_allclose(out.values,
                                   w[freq + box.N] * v.values, atol=1e-12)


def test_link_defect_identity_symbol():
    box, grid = helpers.box_and_grid(1, 3)
    assert link_defect(constant_symbol(box, grid)) <= 1e-13


def test_link_defect_difference_symbol():
    box, grid = helpers.box_and_grid(1, 4)
    assert link_defect(helpers.forward_diff_symbol(box, grid)) <= 1e-11


@pytest.mark.parametrize("n,N", [(1, 4), (2, 3)])
def test_link_defect_random_symbols(n, N):
    box, grid = helpers.box_and_grid(n, N)
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        assert link_defect(helpers.random_symbol(box, grid, rng)) <= 1e-10


def test_toroidal_from_lattice_swaps_and_conjugates():
    box, grid = helpers.box_and_grid(1, 2)
    sym = helpers.random_symbol(box, grid, np.random.default_rng(14))
    tau = toroidal_from_lattice(sym)
    for i, k in enumerate(box.points):
        for j in range(grid.size):
            assert tau.samples[j, i] == pytest.approx(
                np.conj(sym.samples[box.index_of(-k), j]))


def test_amplitude_reduction_two_dimensional():
    box, grid = helpers.box_and_grid(2, 2)
    rng = np.random.default_rng(15)
    w = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)

    def evaluator(k, l, x):
        li = (l[..., 0] + box.N) * box.M + (l[..., 1] + box.N)
        return w[li] * np.exp(2j * np.pi * x[..., 1])

    amp = AmplitudeDefinition(evaluator)
    amp_matrix = oracles.operator_matrix_by_columns(
        lambda v: apply_amplitude(amp, LatticeSequence(box, v)).values, box)
    reduced = matrix(amplitude_to_symbol(amp, box, grid, 2)).values
    assert np.max(np.abs(reduced - amp_matrix)) <= 1e-11


def test_toroidal_identity_two_dimensional():
    box, grid = helpers.box_and_grid(2, 2)
    tau = sample_toroidal(lambda x, k: np.ones(
        np.broadcast_shapes(x.shape[:-1], k.shape[:-1])), grid, box)
    v = TorusFunction(grid, np.random.default_rng(16).standard_normal(grid.size)
                      + 1j * np.random.default_rng(17).standard_normal(grid.size))
    np.testing.assert_allclose(apply_toroidal(tau, v).values, v.values, atol=1e-12)


def test_kappa_cache_is_thread_safe():
    import concurrent.futures

    box, grid = helpers.box_and_grid(2, 3)
    rng = np.random.default_rng(18)
    sym = helpers.random_symbol(box, grid, rng)
    f = helpers.random_sequence(box, rng)
    expected = apply(sym, f).values

    def work(_):
        kappa = sym.kappa()
        return kappa.copy(), apply(sym, f).values

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    for kappa, out in results:
        np.testing.assert_array_equal(kappa, results[0][0])
        np.testing.assert_allclose(out, expected, atol=1e-13)


def test_lattice_only_symbols_act_diagonally():
    box, grid = helpers.box_and_grid(1, 6)
    f = helpers.random_sequence(box, np.random.default_rng(20))
    sym = helpers.weight_symbol(box, grid, 1.5)
    expected = (1.0 + box.norms) ** 1.5 * f.values
    np.testing.assert_allclose(apply(sym, f).values, expected, atol=1e-11)
