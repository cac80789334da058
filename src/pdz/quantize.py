"""Quantization of symbols into operators on lattice sequences.

The central map sends sigma(k, x) to the operator

    (Op sigma) f(k) = (1/M^n) sum_j e^{2 pi i k.x_j} sigma(k, x_j) F(x_j),

with F the forward transform of f.  Three independent realizations are
provided (FFT application, kernel summation, dense matrix) so each can serve
as an oracle for the others, plus amplitude operators, operators with a
general phase, the dual quantization on the torus, and the conjugation
identity tying the two quantizations together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, NonFiniteValueError, ResourceLimitError
from .grids import (DEFAULT_DENSE_CAP, LatticeBox, LatticeSequence, TorusFunction,
                    TorusGrid, character_matrix, require_matched)
from .report import DiagnosticsReport
from .symbols import (AmplitudeDefinition, SampledSymbol, falling_multiplier,
                      from_x_spectrum, lattice_difference, multi_factorial,
                      multi_indices_below, partial_multiplier, row_blocks, x_spectrum)


def _require_dense(box: LatticeBox, dense_cap: int, what: str) -> None:
    if box.size > dense_cap:
        raise ResourceLimitError(
            f"{what} needs {box.size}^2 dense entries; cap is {dense_cap}^2"
        )


def _difference_table(box: LatticeBox) -> np.ndarray:
    """table[i, j] = box index of points[i] - points[j], wrapped cyclically;
    built one axis (lexicographic digit (p_i - p_j + N) mod M) at a time, so
    that beside it, which each dense op builds anew, one (K x K) temporary lives."""
    table = np.zeros((box.size, box.size), dtype=np.intp)
    for c in box.points.T:
        table *= box.M
        table += (c[:, None] - c + box.N) % box.M
    return table


# ---------------------------------------------------------------------------
# the three operator realizations


def apply(sym: SampledSymbol, f: LatticeSequence) -> LatticeSequence:
    """Apply Op(sigma) to f: FFT of f first, then each output entry is the
    weighted inverse transform of its own symbol row, evaluated at k mod M.

    Per row block, the grid axes are inverse-transformed last axis first (the
    order of ``np.fft.ifftn``), and after each axis only the row's own
    frequency along it is kept, so the result equals the full ``ifftn``
    bit for bit at about 1/n of its FFT work.
    """
    if f.box != sym.box:
        raise DomainMismatchError("sequence and symbol live on different boxes")
    box, grid = sym.box, sym.grid
    fhat = np.fft.fftn(box.to_fft_layout(f.values)).ravel()
    own = box.points % box.M  # row k's frequency k mod M along each axis
    out = np.empty(box.size, dtype=complex)
    for rows in row_blocks(box.size, grid.size):
        block = sym.samples[rows] * fhat
        held = np.arange(len(block))
        for axis in reversed(range(grid.n)):
            block = np.fft.ifft(block.reshape(len(held), -1, grid.M), axis=-1)
            block = block[held, :, own[rows, axis]]
        out[rows] = block[:, 0]
    return LatticeSequence(box, out)


@dataclass
class Kernel:
    """Row transform pair: kappa(k, l) and the summation kernel K(k, m) = kappa(k, k-m)."""

    box: LatticeBox
    kappa: np.ndarray  # (box.size, box.size), l in box order

    def at(self, k, m) -> complex:
        k = np.asarray(k, dtype=int)
        m = np.asarray(m, dtype=int)
        return complex(self.kappa[self.box.index_of(k), self.box.index_of(k - m)])

    def summation_matrix(self, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        _require_dense(self.box, dense_cap, "kernel matrix")
        table = _difference_table(self.box)
        return self.kappa[np.arange(self.box.size)[:, None], table]


def kernel(sym: SampledSymbol) -> Kernel:
    """kappa(k, l) = (1/M^n) sum_j e^{2 pi i l.x_j} sigma(k, x_j)."""
    return Kernel(sym.box, sym.kappa())


def kernel_apply(ker: Kernel, f: LatticeSequence,
                 dense_cap: int = DEFAULT_DENSE_CAP) -> LatticeSequence:
    """Direct kernel summation (Op sigma) f(k) = sum_l kappa(k, l) f(k - l)."""
    if f.box != ker.box:
        raise DomainMismatchError("sequence and kernel live on different boxes")
    _require_dense(ker.box, dense_cap, "kernel summation")
    table = _difference_table(ker.box)
    return LatticeSequence(ker.box, (ker.kappa * f.values[table]).sum(axis=1))


@dataclass
class OperatorMatrix:
    """Dense truncated realization of an operator on the box."""

    box: LatticeBox
    values: np.ndarray  # (box.size, box.size)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.box.size, self.box.size):
            raise DomainMismatchError(
                f"matrix shape {self.values.shape} does not match box size {self.box.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValueError("operator matrix contains non-finite entries")

    def matvec(self, f: LatticeSequence) -> LatticeSequence:
        if f.box != self.box:
            raise DomainMismatchError("sequence and matrix live on different boxes")
        return LatticeSequence(self.box, self.values @ f.values)


def matrix(sym: SampledSymbol, dense_cap: int = DEFAULT_DENSE_CAP) -> OperatorMatrix:
    """Dense matrix[k, m] = K(k, m); matvec agrees with :func:`apply`."""
    _require_dense(sym.box, dense_cap, "operator matrix")
    return OperatorMatrix(sym.box, kernel(sym).summation_matrix(dense_cap))


def symbol_from_operator(op: OperatorMatrix, grid: TorusGrid | None = None) -> SampledSymbol:
    """Recover the symbol of a dense operator:
    sigma(k, x) = e^{-2 pi i k.x} sum_m matrix[k, m] e^{2 pi i m.x}."""
    box = op.box
    if grid is None:
        grid = box.matched_grid()
    require_matched(box, grid)
    axes = tuple(range(1, box.n + 1))
    shaped = box.to_fft_layout(op.values.reshape((box.size,) + box.shape))
    B = np.fft.ifftn(shaped, axes=axes) * box.size
    E = character_matrix(box, grid)
    return SampledSymbol(box, grid, np.conj(E) * B.reshape(box.size, grid.size))


# ---------------------------------------------------------------------------
# amplitude operators

#: Cap on box.size^2 * grid.size for materializing (k, l, x) tensors.
AMPLITUDE_TENSOR_CAP = 1 << 24


def apply_amplitude(amp: AmplitudeDefinition, f: LatticeSequence) -> LatticeSequence:
    """Apply the amplitude operator

        A f(k) = sum_m (1/M^n) sum_j e^{2 pi i (k-m).x_j} a(k, m, x_j) f(m),

    evaluating the amplitude lazily one k-row at a time.
    """
    box = f.box
    grid = box.matched_grid()
    E = character_matrix(box, grid)
    axes = tuple(range(1, grid.n + 1))
    l_pts = box.points[:, None, :]
    x_pts = grid.nodes[None, :, :]
    out = np.empty(box.size, dtype=complex)
    for i in range(box.size):
        k_pt = box.points[i].reshape(1, 1, box.n)
        a_vals = np.asarray(amp.evaluator(k_pt, l_pts, x_pts), dtype=complex)
        a_vals = np.broadcast_to(a_vals, (box.size, grid.size))
        g = a_vals * E[i][None, :]
        spec = np.fft.fftn(g.reshape((box.size,) + grid.shape), axes=axes) * grid.weight
        row = spec.reshape(box.size, grid.size)[np.arange(box.size), box.fft_indices]
        out[i] = row @ f.values
    return LatticeSequence(box, out)


def amplitude_to_symbol(amp: AmplitudeDefinition, box: LatticeBox, grid: TorusGrid,
                        order: int) -> SampledSymbol:
    """Reduce an amplitude to a symbol by the finite expansion

        sum_{|alpha| < order} (1/alpha!) Delta^alpha_l D^(alpha)_x a(k, l, x) |_{l=k}.

    For amplitudes independent of l the alpha = 0 term alone is exact.
    """
    require_matched(box, grid)
    if order < 1:
        raise DomainMismatchError(f"expansion order must be >= 1, got {order}")
    if box.size**2 * grid.size > AMPLITUDE_TENSOR_CAP:
        raise ResourceLimitError(
            f"amplitude tensor {box.size}^2 x {grid.size} exceeds the cap"
        )
    k_pts = box.points[:, None, None, :]
    l_pts = box.points[None, :, None, :]
    x_pts = grid.nodes[None, None, :, :]
    tensor = np.asarray(amp.evaluator(k_pts, l_pts, x_pts), dtype=complex)
    tensor = np.broadcast_to(tensor, (box.size, box.size, grid.size))

    # Delta^alpha_l and the falling-factorial multiplier both commute with the
    # x-transform, so every term is summed on the diagonal l = k of one spectrum
    K = box.size
    spec = x_spectrum(tensor, grid).reshape((K,) + box.shape + grid.shape)
    diag = np.arange(K)
    acc = np.zeros((K,) + grid.shape, dtype=complex)
    for alpha in multi_indices_below(box.n, order):
        work = lattice_difference(spec, alpha, range(1, 1 + box.n))
        acc += work.reshape((K, K) + grid.shape)[diag, diag] * (
            falling_multiplier(grid, alpha) / multi_factorial(alpha))
    return SampledSymbol(box, grid, from_x_spectrum(acc, grid))


# ---------------------------------------------------------------------------
# operators with a general phase


@dataclass
class PhaseFunction:
    """Real phase phi(k, x); x -> e^{i phi(k, x)} must be 1-periodic per axis.

    ``evaluator(k, x)`` broadcasts like a symbol evaluator and returns real
    values; periodicity is witnessed on the grid rather than assumed.
    """

    evaluator: object
    n: int

    def samples(self, box: LatticeBox, grid: TorusGrid) -> np.ndarray:
        vals = np.asarray(self.evaluator(box.points[:, None, :], grid.nodes[None, :, :]))
        return np.broadcast_to(vals.astype(float), (box.size, grid.size))

    def periodicity_defect(self, box: LatticeBox, grid: TorusGrid) -> float:
        """max over axes and nodes of |e^{i phi(k, x)} - e^{i phi(k, x + e_axis)}|."""
        base = np.exp(1j * self.samples(box, grid))
        worst = 0.0
        for axis in range(grid.n):
            shift = np.zeros(grid.n)
            shift[axis] = 1.0
            moved = np.asarray(self.evaluator(
                box.points[:, None, :], grid.nodes[None, :, :] + shift))
            moved = np.broadcast_to(moved.astype(float), (box.size, grid.size))
            worst = max(worst, float(np.max(np.abs(base - np.exp(1j * moved)))))
        return worst


def apply_fso(phase: PhaseFunction, sym: SampledSymbol, f: LatticeSequence,
              periodicity_tol: float = 1e-10) -> LatticeSequence:
    """Apply the operator with general phase,

        T f(k) = (1/M^n) sum_j e^{i phi(k, x_j)} sigma(k, x_j) F(x_j);

    with phi(k, x) = 2 pi k.x this coincides with :func:`apply`.
    """
    box, grid = sym.box, sym.grid
    if f.box != box:
        raise DomainMismatchError("sequence and symbol live on different boxes")
    defect = phase.periodicity_defect(box, grid)
    if defect > periodicity_tol:
        raise DomainMismatchError(
            f"phase is not 1-periodic on the grid (defect {defect:.3e})"
        )
    fhat = np.fft.fftn(box.to_fft_layout(f.values)).ravel()
    phases = np.exp(1j * phase.samples(box, grid))
    out = (phases * sym.samples) @ fhat * grid.weight
    return LatticeSequence(box, out)


def _grid_gradient(values: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    """d/dx_axis by divided differences on rows of shape (K,) + grid.shape.

    One-sided at the wrap seam (the phase itself need not be periodic), so
    exact for phases affine in x and a reasonable witness otherwise.
    """
    return np.gradient(values, 1.0 / grid.M, axis=1 + axis, edge_order=2)


def _gradient_chain_sup(values: np.ndarray, grid: TorusGrid, budget: int,
                        first_axis: int = 0) -> float:
    """max |d^alpha values| over |alpha| <= budget, alpha zero below
    ``first_axis``, each derivative taken axis by axis in increasing order by
    :func:`_grid_gradient`; every alpha extends its prefix by one gradient."""
    out = float(np.abs(values).max())
    if budget:
        for axis in range(first_axis, grid.n):
            out = max(out, _gradient_chain_sup(_grid_gradient(values, grid, axis), grid,
                                               budget - 1, axis))
    return out


def fso_boundedness_check(phase: PhaseFunction, sym: SampledSymbol,
                          pair_sample: int = 256, seed: int = 0) -> DiagnosticsReport:
    """Witness the constants entering the boundedness hypotheses for operators
    with a general phase: sup |d^alpha_x sigma| for |alpha| <= 2n+1, sup of
    |d^alpha_x Delta^beta_k phi| for |beta| = 1, and the phase-gradient
    separation min_{k != l, x} |grad_x phi(k,x) - grad_x phi(l,x)| / |k-l|.

    Constants are reported, never asserted.
    """
    box, grid = sym.box, sym.grid
    n = grid.n
    rep = DiagnosticsReport("fso_boundedness")

    spec = x_spectrum(sym.samples, grid)
    sigma_max = 0.0
    for alpha in multi_indices_below(n, 2 * n + 2):
        deriv = from_x_spectrum(spec, grid, partial_multiplier(grid, alpha))
        sigma_max = max(sigma_max, float(np.abs(deriv).max()))
    rep.add_value("sigma_derivative_sup", sigma_max)

    phi = phase.samples(box, grid).reshape((box.size,) + grid.shape)
    interior = np.abs(box.points).max(axis=1) <= box.N - 1
    phase_max = 0.0
    for j in range(n):
        diff = lattice_difference(phi.reshape(box.shape + grid.shape), (1,), (j,))
        diff = diff.reshape((box.size,) + grid.shape)
        diff = diff[interior] if interior.any() else diff
        phase_max = max(phase_max, _gradient_chain_sup(diff, grid, 2 * n + 1))
    rep.add_value("phase_difference_derivative_sup", phase_max)

    grads = np.stack([_grid_gradient(phi, grid, axis) for axis in range(n)], axis=-1)
    grads = grads.reshape(box.size, grid.size, n)
    idx = np.arange(box.size)
    if box.size > pair_sample:
        idx = np.random.default_rng(seed).choice(box.size, size=pair_sample, replace=False)
        rep.add_value("separation_pairs_subsampled_to", int(pair_sample))
    pts = box.points[idx].astype(float)
    sub = grads[idx]
    kdist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    gdist = np.linalg.norm(sub[:, None, :, :] - sub[None, :, :, :], axis=-1).min(axis=-1)
    mask = kdist > 0
    ratios = gdist[mask] / kdist[mask]
    rep.add_value("phase_gradient_separation", float(ratios.min()) if ratios.size else float("inf"))
    return rep


# ---------------------------------------------------------------------------
# dual quantization on the torus and the conjugation link


@dataclass
class ToroidalSymbol:
    """Samples tau(x, k) for the quantization acting on grid functions."""

    grid: TorusGrid
    box: LatticeBox
    samples: np.ndarray  # (grid.size, box.size)

    def __post_init__(self):
        require_matched(self.box, self.grid)
        self.samples = np.asarray(self.samples, dtype=complex).reshape(
            self.grid.size, self.box.size)


def sample_toroidal(evaluator, grid: TorusGrid, box: LatticeBox) -> ToroidalSymbol:
    """Evaluate tau(x, k) on grid nodes and box points."""
    vals = np.asarray(evaluator(grid.nodes[:, None, :], box.points[None, :, :]), dtype=complex)
    return ToroidalSymbol(grid, box, np.broadcast_to(vals, (grid.size, box.size)).copy())


def toroidal_from_lattice(sym: SampledSymbol) -> ToroidalSymbol:
    """tau(x, k) = conj(sigma(-k, x)), the dual-side symbol of the link identity."""
    reflected = sym.samples[sym.box.index_of(-sym.box.points)]
    return ToroidalSymbol(sym.grid, sym.box, np.conj(reflected).T.copy())


def apply_toroidal(tau: ToroidalSymbol, v: TorusFunction) -> TorusFunction:
    """Op on the torus side: out(x) = sum_k e^{2 pi i x.k} tau(x, k) w(k) with
    w(k) the quadrature transform of v."""
    box, grid = tau.box, tau.grid
    if v.grid != grid:
        raise DomainMismatchError("function and symbol live on different grids")
    w_fft = np.fft.fftn(v.values.reshape(grid.shape)) * grid.weight
    w_box = box.from_fft_layout(w_fft).ravel()
    rows = tau.samples * w_box[None, :]
    axes = tuple(range(1, box.n + 1))
    shaped = box.to_fft_layout(rows.reshape((grid.size,) + box.shape))
    P = np.fft.ifftn(shaped, axes=axes) * box.size
    out = P.reshape(grid.size, grid.size)[np.arange(grid.size), np.arange(grid.size)]
    return TorusFunction(grid, out)


def toroidal_matrix(tau: ToroidalSymbol, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense node-basis matrix of the torus-side operator."""
    _require_dense(tau.box, dense_cap, "toroidal matrix")
    E = character_matrix(tau.box, tau.grid)  # e^{2 pi i k.x}, (K, X)
    P1 = E.T * tau.samples
    P2 = np.conj(E) * tau.grid.weight
    return P1 @ P2


def link_defect(sym: SampledSymbol, dense_cap: int = DEFAULT_DENSE_CAP) -> float:
    """Max-abs difference between matrix(sigma) and the conjugated torus-side
    operator F^{-1} Op_T(tau)^* F with tau(x, k) = conj(sigma(-k, x)).

    The identity is exact on the cyclic model; the defect is roundoff-level.
    """
    box, grid = sym.box, sym.grid
    _require_dense(box, dense_cap, "link check")
    E = character_matrix(box, grid)
    F = np.conj(E).T            # lattice -> grid transform matrix
    Finv = E * grid.weight      # grid -> lattice, quadrature weighted
    T = toroidal_matrix(toroidal_from_lattice(sym), dense_cap)
    # adjoint w.r.t. the uniform-weight inner product equals the conjugate
    # transpose because the quadrature weights are constant
    composite = Finv @ np.conj(T).T @ F
    return float(np.max(np.abs(composite - matrix(sym, dense_cap).values)))
