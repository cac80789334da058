"""Quantization of symbols into operators on lattice sequences.

The central map sends sigma(k, x) to the operator

    (Op sigma) f(k) = (1/M^n) sum_j e^{2 pi i k.x_j} sigma(k, x_j) F(x_j),

with F the forward transform of f.  On the dense path, which reads the
(K x X) samples row block by row block, three independent realizations are
provided (FFT application, kernel summation, dense matrix) so each can serve
as an oracle for the others.  A symbol given as a finite sum
sum_t a_t(k) b_t(x) (:meth:`SampledSymbol.separated`) is applied and
transformed through its T factors instead; array-backed symbols keep the
dense path, the oracle for that one.  The (k, m) difference table serves
the dense realizations alone; the decay fit and the kernel CSV read
kappa(k, l), l = k - m, as it comes.  Also here: amplitude operators
(their reduction to symbols is a calculus expansion, in :mod:`pdz.calculus`),
operators with a general phase, the dual quantization on the torus, and the
conjugation identity tying the two quantizations together.  A general phase
is evaluated like a symbol, on the row blocks each pass reads.  The
x-derivatives of the general-phase witnesses come from
:func:`pdz.symbols.x_derivatives`; the one-axis transforms taken here are
those of :func:`apply`'s dense path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, ResourceLimitError
from .grids import (LatticeBox, LatticeSequence, TorusFunction, TorusGrid,
                    character_matrix, require_finite, require_matched)
from .report import DiagnosticsReport
from .symbols import (AmplitudeDefinition, SampledSymbol, axis_operators, lattice_difference,
                      partial_factor, row_blocks, x_derivatives)


#: Cap on M^n for dense (M^n)^2 objects, read at each call (and by ``solve``).
DENSE_CAP = 4096


def _require_dense(box: LatticeBox, what: str) -> None:
    if box.size > DENSE_CAP:
        raise ResourceLimitError(
            f"{what} needs {box.size}^2 dense entries; cap is {DENSE_CAP}^2"
        )


def _difference_table(box: LatticeBox, rows: slice) -> np.ndarray:
    """table[i, j] = box index of points[rows][i] - points[j], wrapped
    cyclically: the ``rows`` slice of the (K x K) difference table, built one
    axis (lexicographic digit (p_i - p_j + N) mod M) at a time.  The dense
    realizations alone read it, one row block at a time, so no (K x K) index
    table is built and the dense solve holds only the matrix and its LU copy,
    about 0.55 GB at K = 4096."""
    table = np.zeros((rows.stop - rows.start, box.size), dtype=np.intp)
    for mine, c in zip(box.points[rows].T, box.points.T):
        table *= box.M
        table += (mine[:, None] - c + box.N) % box.M
    return table


def _summation_matrix(box: LatticeBox, kappa_blocks, what: str) -> np.ndarray:
    """The dense (K x K) summation kernel K(k, m) = kappa(k, k - m), each row
    block of ``kappa_blocks`` gathered through its difference table."""
    _require_dense(box, what)
    out = np.empty((box.size, box.size), dtype=complex)
    for rows, block in kappa_blocks:
        out[rows] = np.take_along_axis(block, _difference_table(box, rows), axis=1)
    return out


# ---------------------------------------------------------------------------
# the three operator realizations


def apply(sym: SampledSymbol, f: LatticeSequence) -> LatticeSequence:
    """Apply Op(sigma) to f: FFT of f first, then each output entry is the
    weighted inverse transform of its own symbol row, evaluated at k mod M.

    A symbol with a :meth:`~SampledSymbol.separated` form
    sigma = sum_t A_t(k) B_t(x) takes sum_t A_t(k) ifftn(B_t F)[k mod M]:
    T transforms of X points instead of one per row.  A factor A_t that is
    1 at every k is not multiplied, so a lattice-free symbol (T = 1, A = 1)
    gives the dense path's result bit for bit.

    On the dense path, per row block, the grid axes are inverse-transformed
    last axis first (the order of ``np.fft.ifftn``), and after each axis
    only the row's own frequency along it is kept, so the result equals the
    full ``ifftn`` bit for bit at about 1/n of its FFT work.
    """
    if f.box != sym.box:
        raise DomainMismatchError("sequence and symbol live on different boxes")
    box, grid = sym.box, sym.grid
    fhat = np.fft.fftn(box.to_fft_layout(f.values)).ravel()
    parts = sym.separated()
    if parts is not None:
        out = None
        for a, b in zip(*parts):
            term = np.fft.ifftn((b * fhat).reshape(grid.shape)).ravel()[box.fft_indices]
            if not (a == 1).all():
                term *= a
            out = term if out is None else out + term
        return LatticeSequence(box, out)
    own = box.points % box.M  # row k's frequency k mod M along each axis
    out = np.empty(box.size, dtype=complex)
    for rows, block in sym.blocks():
        block = block * fhat
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

    def kappa_blocks(self):
        """Yield ``(rows, kappa[rows])`` like :meth:`SampledSymbol.kappa_blocks`."""
        for rows in row_blocks(self.box.size, self.box.size):
            yield rows, self.kappa[rows]

    def summation_matrix(self) -> np.ndarray:
        return _summation_matrix(self.box, self.kappa_blocks(), "kernel matrix")


def kernel(sym: SampledSymbol) -> Kernel:
    """kappa(k, l) = (1/M^n) sum_j e^{2 pi i l.x_j} sigma(k, x_j)."""
    return Kernel(sym.box, sym.kappa())


def kernel_apply(ker: Kernel, f: LatticeSequence) -> LatticeSequence:
    """Direct kernel summation (Op sigma) f(k) = sum_l kappa(k, l) f(k - l)."""
    if f.box != ker.box:
        raise DomainMismatchError("sequence and kernel live on different boxes")
    _require_dense(ker.box, "kernel summation")
    out = np.empty(ker.box.size, dtype=complex)
    for rows, block in ker.kappa_blocks():
        out[rows] = (block * f.values[_difference_table(ker.box, rows)]).sum(axis=1)
    return LatticeSequence(ker.box, out)


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
        require_finite(self.values, "operator matrix", {"k": self.box.point, "m": self.box.point})

    def matvec(self, f: LatticeSequence) -> LatticeSequence:
        if f.box != self.box:
            raise DomainMismatchError("sequence and matrix live on different boxes")
        return LatticeSequence(self.box, self.values @ f.values)


def matrix(sym: SampledSymbol) -> OperatorMatrix:
    """Dense matrix[k, m] = K(k, m); matvec agrees with :func:`apply`.  Built
    one row block of :meth:`SampledSymbol.kappa_blocks` at a time, so beside
    the matrix only a block is held and ``kappa`` is not cached."""
    return OperatorMatrix(sym.box, _summation_matrix(sym.box, sym.kappa_blocks(),
                                                     "operator matrix"))


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

def apply_amplitude(amp: AmplitudeDefinition, f: LatticeSequence) -> LatticeSequence:
    """Apply the amplitude operator

        A f(k) = sum_m (1/M^n) sum_j e^{2 pi i (k-m).x_j} a(k, m, x_j) f(m),

    each row one weighted sum of the amplitude's k-row, evaluated lazily one
    k at a time, against e^{-2 pi i m.x_j} f(m), formed once.
    """
    box = f.box
    grid = box.matched_grid()
    E = character_matrix(box, grid)
    weighted = np.conj(E) * f.values[:, None]
    out = np.empty(box.size, dtype=complex)
    for i, k_pt in enumerate(box.points):
        a_vals = amp.evaluator(k_pt[None, None, :], box.points[:, None, :], grid.nodes[None, :, :])
        out[i] = E[i] @ (np.asarray(a_vals, dtype=complex) * weighted).sum(axis=0)
    out *= grid.weight
    return LatticeSequence(box, out)


# ---------------------------------------------------------------------------
# operators with a general phase


@dataclass
class PhaseFunction:
    """Real phase phi(k, x); x -> e^{i phi(k, x)} must be 1-periodic per axis.

    ``evaluator(k, x)`` broadcasts like a symbol evaluator and returns real,
    finite values (a nonzero imaginary part is refused, never dropped, and a
    NaN or infinity raises :class:`NonFiniteValueError` naming its first
    (k, x)); periodicity is witnessed on the grid rather than assumed.
    """

    evaluator: object

    def on(self, points: np.ndarray, grid: TorusGrid, shift: int | None = None) -> np.ndarray:
        """phi on the lattice ``points`` x the grid nodes, (len(points) x X),
        the nodes moved by the unit vector along axis ``shift`` when given."""
        nodes = grid.nodes if shift is None else grid.nodes + np.eye(grid.n)[shift]
        vals = np.asarray(self.evaluator(points[:, None, :], nodes[None, :, :]))
        if np.iscomplexobj(vals) and vals.imag.any():
            raise DomainMismatchError(f"phase must be real, got an imaginary part up to "
                                      f"{np.abs(vals.imag).max():.3e}")
        vals = np.broadcast_to(vals.real.astype(float), (len(points), grid.size))
        return require_finite(vals, "phase", {"k": lambda i: tuple(int(v) for v in points[i]),
                                              "x": lambda j: tuple(float(v) for v in nodes[j])})


def apply_fso(phase: PhaseFunction, sym: SampledSymbol,
              f: LatticeSequence) -> LatticeSequence:
    """Apply the operator with general phase,

        T f(k) = (1/M^n) sum_j e^{i phi(k, x_j)} sigma(k, x_j) F(x_j);

    with phi(k, x) = 2 pi k.x this coincides with :func:`apply`.  The phase
    must be 1-periodic on the grid to within 1e-10: max |e^{i phi(k, x)} -
    e^{i phi(k, x + e_axis)}|, taken in the same pass over the row blocks.
    """
    box, grid = sym.box, sym.grid
    if f.box != box:
        raise DomainMismatchError("sequence and symbol live on different boxes")
    fhat = np.fft.fftn(box.to_fft_layout(f.values)).ravel()
    out = np.empty(box.size, dtype=complex)
    defect = 0.0
    for rows, block in sym.blocks():
        points = box.points[rows]
        phases = np.exp(1j * phase.on(points, grid))
        for axis in range(grid.n):
            moved = np.exp(1j * phase.on(points, grid, axis))
            defect = max(defect, float(np.abs(phases - moved).max()))
        out[rows] = (phases * block) @ fhat
    if defect > 1e-10:
        raise DomainMismatchError(
            f"phase is not 1-periodic on the grid (defect {defect:.3e})"
        )
    out *= grid.weight
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


def fso_boundedness_check(phase: PhaseFunction, sym: SampledSymbol) -> DiagnosticsReport:
    """Witness the constants entering the boundedness hypotheses for operators
    with a general phase: sup |d^alpha_x sigma| for |alpha| <= 2n+1, sup of
    |d^alpha_x Delta^beta_k phi| for |beta| = 1, and the phase-gradient
    separation min_{k != l, x} |grad_x phi(k,x) - grad_x phi(l,x)| / |k-l|,
    taken over 256 box points drawn with seed 0 on larger boxes.

    Constants are reported, never asserted.
    """
    box, grid = sym.box, sym.grid
    n = grid.n
    rep = DiagnosticsReport("fso_boundedness")

    operators = axis_operators(grid, 2 * n + 1, partial_factor)
    sigma_max = 0.0
    for _, block in sym.blocks():
        for _, deriv in x_derivatives(block, grid, 2 * n + 1, operators):
            sigma_max = max(sigma_max, float(np.abs(deriv).max()))
    rep.add_value("sigma_derivative_sup", sigma_max)

    # Delta_j phi per block of leading-axis slices: phi on the block and one
    # halo slice, the sup over the block's interior rows
    width = box.size // box.M  # box points per leading-axis slice
    interior = np.abs(box.points).max(axis=1) <= box.N - 1
    phase_max = 0.0
    for rows in row_blocks(box.M, width * grid.size):
        keep = interior[rows.start * width:rows.stop * width]
        if not keep.any():
            continue
        halo = np.arange(rows.start * width, (rows.stop + 1) * width) % box.size
        phi = phase.on(box.points[halo], grid).reshape((-1,) + box.shape[1:] + grid.shape)
        for j in range(n):
            diff = lattice_difference(phi, (1,), (j,), rows=slice(0, len(phi) - 1))
            diff = diff.reshape((-1,) + grid.shape)[keep]
            phase_max = max(phase_max, _gradient_chain_sup(diff, grid, 2 * n + 1))
    rep.add_value("phase_difference_derivative_sup", phase_max)

    idx = np.arange(box.size)
    if box.size > 256:
        idx = np.random.default_rng(0).choice(box.size, size=256, replace=False)
        rep.add_value("separation_pairs_subsampled_to", 256)
    phi = phase.on(box.points[idx], grid).reshape((len(idx),) + grid.shape)
    grads = np.empty((n, len(idx), grid.size))
    for axis in range(n):
        grads[axis] = _grid_gradient(phi, grid, axis).reshape(len(idx), grid.size)
    pts = box.points[idx].astype(float)
    kdist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    # min_x |grad phi(k_i, x) - grad phi(k_j, x)| per i: the squares summed
    # over the axes in order into one (probes x X) buffer, then min and sqrt
    gdist, (total, square) = np.empty((len(idx), len(idx))), np.empty((2, len(idx), grid.size))
    for i in range(len(idx)):
        for axis, grad in enumerate(grads):
            part = square if axis else total
            np.subtract(grad[i], grad, out=part)
            np.square(part, out=part)
            if axis:
                total += square
        np.sqrt(total.min(axis=1), out=gdist[i])
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
        samples = np.asarray(self.samples, dtype=complex)
        if samples.size != self.grid.size * self.box.size:
            raise DomainMismatchError(f"toroidal samples have {samples.size} entries, "
                                      f"grid x box has {self.grid.size} x {self.box.size}")
        self.samples = samples.reshape(self.grid.size, self.box.size)


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


def toroidal_matrix(tau: ToroidalSymbol) -> np.ndarray:
    """Dense node-basis matrix of the torus-side operator."""
    _require_dense(tau.box, "toroidal matrix")
    E = character_matrix(tau.box, tau.grid)  # e^{2 pi i k.x}, (K, X)
    P1 = E.T * tau.samples
    P2 = np.conj(E) * tau.grid.weight
    return P1 @ P2


def link_defect(sym: SampledSymbol) -> float:
    """Max-abs difference between matrix(sigma) and the conjugated torus-side
    operator F^{-1} Op_T(tau)^* F with tau(x, k) = conj(sigma(-k, x)).

    The identity is exact on the cyclic model; the defect is roundoff-level.
    """
    box, grid = sym.box, sym.grid
    _require_dense(box, "link check")
    E = character_matrix(box, grid)
    F = np.conj(E).T            # lattice -> grid transform matrix
    Finv = E * grid.weight      # grid -> lattice, quadrature weighted
    T = toroidal_matrix(toroidal_from_lattice(sym))
    # adjoint w.r.t. the uniform-weight inner product equals the conjugate
    # transpose because the quadrature weights are constant
    composite = Finv @ np.conj(T).T @ F
    return float(np.max(np.abs(composite - matrix(sym).values)))
