"""Symbols sigma(k, x) on box x grid, amplitudes a(k, l, x), and the
difference/derivative operators acting on them.

Conventions fixed here and relied on everywhere else:

* ``Delta^alpha`` iterates the first differences ``Delta_j t(k) = t(k+v_j) - t(k)``
  with cyclic wrap at the box edge (the spectral and pointwise definitions
  then agree exactly on the cyclic model).  It has one home,
  :func:`lattice_difference`, which every difference in the package calls,
  on the whole array or on a block of leading-axis slices.
* ``D^(beta)`` is the falling-factorial derivative: per axis,
  ``D^(l) = D (D-1) ... (D-l+1)`` with ``D = (1/2 pi i) d/dx`` and
  ``D^(0) = I``.  On a character ``e^{2 pi i d x}`` it acts by
  ``d (d-1) ... (d-l+1)``, so it annihilates nonnegative-frequency
  trigonometric polynomials of degree < l; that exactness is what makes
  finite expansions in the calculus module terminate.
* Every x-derivative (D^beta, D^(beta), d^alpha/dx^alpha) is a product of
  one-axis operators from :func:`axis_operators`, each built from a
  multiplier of :func:`axis_multipliers`.  On a grid axis of at most
  :data:`CIRCULANT_AXIS_MAX` points an operator is the dense circulant
  F^-1 diag(m) F, applied as one stacked matrix product along the axis;
  on a longer axis it is one FFT along the axis, the multiplier and one
  inverse FFT.  :func:`x_derivatives` walks all |alpha| <= high of a block
  as a tree, and the single derivatives take one pass over the row blocks
  with nothing applied along an axis they do not differentiate.
* A pass over the row blocks (:func:`each_row_block`) gives each worker one
  :func:`scratch` pool for the pass.  The derivative tree's nodes (and, on
  long axes, its spectra) and the blocked differences are written into it
  with ``out=``, so a block allocates nothing its worker's earlier blocks
  did not; the pool is dropped when the pass returns.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .errors import DomainMismatchError, NonFiniteValueError, NotEllipticError, SingularSymbolError
from .grids import LatticeBox, TorusFunction, TorusGrid, require_matched, require_memory

#: Largest total expansion order supported by the multi-index machinery.
ORDER_CAP = 12

_FACTORIALS = tuple(math.factorial(i) for i in range(ORDER_CAP + 1))

#: |sigma| at or below this counts as zero, wherever a symbol is inverted.
ZERO_THRESHOLD = 1e-10

#: Target size of one row block in the passes over (K x X) sample arrays, so
#: that no pass allocates a second array of the samples' size.
ROW_BLOCK_BYTES = 1 << 20

#: Longest grid axis whose one-axis operators are applied as dense M x M
#: circulant products; on longer axes FFT, multiplier and inverse FFT are
#: the faster (README "Conventions": the crossover measured with compose).
CIRCULANT_AXIS_MAX = 39

#: Most multiply-adds M*M*s of one matrix product within a stacked
#: circulant product.  numpy's OpenBLAS ran (40 x 40) @ (40 x 40) on the
#: calling thread and started its own threads for (41 x 41) @ (41 x 41),
#: which made compose at n=2 M=41 four times slower inside a pass's workers.
_SERIAL_PRODUCT = 1 << 16


def row_blocks(rows: int, width: int):
    """Slices covering ``range(rows)`` in blocks of about ``ROW_BLOCK_BYTES``
    of complex entries, ``width`` per row, and at least one row per block."""
    step = max(1, ROW_BLOCK_BYTES // (16 * width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


#: The scratch pool of the running pass's worker on this thread, if any.
_worker = threading.local()


def each_row_block(fn, rows: int, width: int) -> None:
    """Call ``fn`` on each slice of :func:`row_blocks` on one thread per CPU
    the process may use, the caller's included (inline for one block or one
    CPU); return when all are done, raising the first exception raised.
    ``fn`` writes only its own rows, so results do not depend on the
    threads, and starts no pass of its own.  Each worker holds one
    :func:`scratch` pool for the pass, dropped when the pass returns."""
    blocks = list(row_blocks(rows, width))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pending, lock, errors = iter(blocks), threading.Lock(), []

    def work():
        _worker.pool = {}
        try:
            while not errors:
                with lock:
                    block = next(pending, None)
                if block is None:
                    return
                try:
                    fn(block)
                except BaseException as exc:  # noqa: BLE001 -- re-raised below
                    errors.append(exc)
        finally:
            del _worker.pool

    pool = [threading.Thread(target=work) for _ in range(min(len(blocks), cpus or 1) - 1)]
    for t in pool:
        t.start()
    work()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


def scratch(key, shape) -> np.ndarray:
    """An uninitialized complex array of ``shape``: inside a block of
    :func:`each_row_block`, a view of the buffer ``key`` of the worker's pool,
    allocated on first use and grown when a block needs more, so every block
    of the pass reuses it; else a new array.  One array per key is in use at a
    time: the next request for ``key`` overwrites it."""
    pool, size = getattr(_worker, "pool", None), math.prod(shape)
    if pool is None:
        return np.empty(shape, dtype=complex)
    buffer = pool.get(key)
    if buffer is None or buffer.size < size:
        buffer = pool[key] = np.empty(size, dtype=complex)
    return buffer[:size].reshape(shape)


# ---------------------------------------------------------------------------
# multi-indices


def check_multi_index(alpha, n: int) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise DomainMismatchError(f"multi-index {alpha} has length {len(alpha)}, need {n}")
    if any(a < 0 for a in alpha):
        raise DomainMismatchError(f"multi-index {alpha} has negative entries")
    if sum(alpha) > ORDER_CAP:
        raise DomainMismatchError(f"|alpha| = {sum(alpha)} exceeds the order cap {ORDER_CAP}")
    return alpha


def multi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= _FACTORIALS[a]
    return out


def multi_indices_of_degree(n: int, degree: int) -> list[tuple[int, ...]]:
    """All alpha >= 0 of length n with |alpha| = degree, lexicographic."""
    if n == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in multi_indices_of_degree(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def check_expansion_order(order: int) -> int:
    """``order`` as an int; the one rule for every finite expansion."""
    order = int(order)
    if not 1 <= order <= ORDER_CAP:
        raise DomainMismatchError(f"expansion order must lie in [1, {ORDER_CAP}], got {order}")
    return order


def multi_indices_below(n: int, order: int) -> list[tuple[int, ...]]:
    """All alpha with |alpha| < order, by degree then lexicographic."""
    if order > ORDER_CAP + 1:
        raise DomainMismatchError(f"expansion order {order} exceeds the cap {ORDER_CAP}")
    out = []
    for d in range(order):
        out.extend(multi_indices_of_degree(n, d))
    return out


# ---------------------------------------------------------------------------
# parameter and definition records


@dataclass(frozen=True)
class SymbolClassParams:
    """Order mu and type parameters (rho, delta) declared for a symbol."""

    mu: float
    rho: float = 1.0
    delta: float = 0.0

    def validate_for_calculus(self) -> None:
        """Calculus theorems require 0 <= delta < rho <= 1."""
        if not (0.0 <= self.delta < self.rho <= 1.0):
            raise DomainMismatchError(
                f"calculus requires 0 <= delta < rho <= 1, got rho={self.rho}, delta={self.delta}"
            )


@dataclass
class SymbolDefinition:
    """Closed-form symbol: ``evaluator(k, x)`` broadcasting over leading axes.

    ``k`` is an integer array (..., n) of lattice points and ``x`` a float
    array (..., n) of torus points; the evaluator must be total and finite
    on box x grid, and pure: a symbol sampled from it may evaluate each row
    block once per pass over the rows.

    ``separated``, when given, is the same symbol as a finite sum
    sigma(k, x) = sum_t a_t(k) b_t(x): a list of ``(k_fn, x_fn)`` pairs,
    ``k_fn(k)`` and ``x_fn(x)`` broadcasting like the evaluator.  A sampled
    symbol then reads sigma only through it, never through the evaluator
    (see :meth:`SampledSymbol.separated`).
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    params: SymbolClassParams = field(default_factory=lambda: SymbolClassParams(0.0))
    name: str = ""
    separated: list | None = None


@dataclass
class AmplitudeDefinition:
    """Closed-form amplitude ``evaluator(k, l, x)``, broadcasting like a symbol
    evaluator and pure as one must be: :func:`pdz.calculus.amplitude_to_symbol`
    calls it once per row block, on the worker threads of its pass."""

    evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# sampled symbols


def _witness(box: LatticeBox, grid: TorusGrid, row, node) -> tuple[tuple, tuple]:
    """``(k, x)``: the box point of ``row`` as a tuple of Python ints and the
    grid node ``node`` as a tuple of Python floats, as errors and reports
    print and carry them."""
    return (tuple(int(v) for v in box.points[row]),
            tuple(float(v) for v in grid.nodes[node]))


class SampledSymbol:
    """Grid samples of a symbol: ``samples[i, j] = sigma(k_i, x_j)``.

    Rows run over box points (lexicographic), columns over grid nodes
    (C order).  A symbol is backed by the stored (K x X) array or by a
    :class:`SymbolDefinition`, whose factors (:meth:`separated`) are
    evaluated at construction; :meth:`blocks` builds the row blocks of the
    latter from those factors, or from the evaluator when there are none,
    each pass evaluating the rows it reads.  The (K x X) ``samples`` and the
    row Fourier coefficients kappa(k, l) are each computed once on first
    read under a lock; everything else treats instances as immutable.
    """

    __slots__ = ("box", "grid", "params", "_samples", "_definition", "_kappa",
                 "_separated", "_lock")

    def __init__(self, box: LatticeBox, grid: TorusGrid,
                 samples: np.ndarray | SymbolDefinition,
                 params: SymbolClassParams | None = None):
        require_matched(box, grid)
        self.box = box
        self.grid = grid
        self.params = params
        self._kappa = None
        self._lock = threading.Lock()
        if isinstance(samples, SymbolDefinition):
            self._samples, self._definition = None, samples
            self._separated = self._factor_arrays(samples.separated)
            return
        samples = np.asarray(samples, dtype=complex)
        if samples.size != box.size * grid.size:
            raise DomainMismatchError(f"symbol samples have {samples.size} entries, "
                                      f"box x grid has {box.size} x {grid.size}")
        self._samples = samples.reshape(box.size, grid.size)
        self._definition = self._separated = None
        for rows, block in self.blocks():
            self._require_finite(rows, block)

    def _require_finite(self, rows: slice, block: np.ndarray) -> None:
        finite = np.isfinite(block)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            k, x = _witness(self.box, self.grid, rows.start + i, j)
            raise NonFiniteValueError(
                f"symbol samples non-finite at k={k}, x={x}", where=(k, x))

    def blocks(self):
        """Yield ``(rows, samples[rows])`` over the row blocks of
        :func:`row_blocks`: slices of the stored array when there is one,
        else built from the factors of :meth:`separated`, else the
        definition's evaluator on the rows; built blocks are checked finite."""
        slices, stored = row_blocks(self.box.size, self.grid.size), self._samples
        if stored is None and self.separated() is not None:
            yield from self._factor_blocks(slices)
            return
        for rows in slices:
            yield rows, stored[rows] if stored is not None else self._evaluate(rows)

    def _factor_blocks(self, slices):
        """``(rows, sum_t A[t, rows] B[t])`` over ``slices``, checked finite:
        the terms whose A_t is 1 at every k summed unmultiplied, as
        :func:`pdz.quantize.apply` sums them, the others by one product."""
        A, B = self.separated()
        ones = (A == 1).all(axis=1)
        # reduce, not sum(axis=0): one term comes back as it is, -0.0 included
        plain = reduce(np.add, B[ones]) if ones.any() else None
        A, B = A[~ones], B[~ones]
        for rows in slices:
            block = (A[:, rows].T @ B if len(A) else
                     np.repeat(plain[None], rows.stop - rows.start, axis=0))
            if len(A) and plain is not None:
                block += plain
            self._require_finite(rows, block)
            yield rows, block

    def _evaluate(self, rows: slice) -> np.ndarray:
        """The definition on the box points ``rows`` x the grid, checked finite."""
        X = self.grid.size
        block = np.asarray(self._definition.evaluator(self.box.points[rows, None, :],
                                                      self.grid.nodes[None, :, :]),
                           dtype=complex)
        if block.shape != (rows.stop - rows.start, X):  # broadcast like an assignment
            value, block = block, np.empty((rows.stop - rows.start, X), dtype=complex)
            block[...] = value
        self._require_finite(rows, block)
        return block

    def separated(self):
        """``(A, B)`` with sigma(k_i, x_j) = sum_t A[t, i] B[t, j], the
        definition's separated form evaluated at construction: A is (T x K)
        and B (T x X); every pass reads sigma from them.  None for an
        array-backed symbol, a definition without that form, and when A, B or
        the bound sum_t max|A_t| max|B_t| is non-finite: the definition's
        evaluator then serves the passes and reports the non-finite samples."""
        return self._separated

    def _factor_arrays(self, pairs):
        if not pairs:
            return None
        K, X = self.box.size, self.grid.size
        A = np.empty((len(pairs), K), dtype=complex)
        B = np.empty((len(pairs), X), dtype=complex)
        for t, (k_fn, x_fn) in enumerate(pairs):  # shaped as the row blocks read them
            A[t] = np.broadcast_to(k_fn(self.box.points[:, None, :]), (K, 1))[:, 0]
            B[t] = np.broadcast_to(x_fn(self.grid.nodes[None, :, :]), (1, X))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.sum(np.abs(A).max(axis=1) * np.abs(B).max(axis=1))
        return (A, B) if np.isfinite(bound) else None

    def constant_row(self) -> np.ndarray | None:
        """Row 0 of sigma, built from the factors as :meth:`blocks` builds
        it, when every A_t of :meth:`separated` is the same at all k; else
        None.  No pass over the rows."""
        parts = self.separated()
        if parts is None or not (parts[0] == parts[0][:, :1]).all():
            return None
        return next(self._factor_blocks([slice(0, 1)]))[1][0]

    @property
    def samples(self) -> np.ndarray:
        """The (K x X) samples, built by :meth:`gathered` on first read and kept."""
        if self._samples is None:
            with self._lock:
                if self._samples is None:
                    self._samples = self.gathered()
        return self._samples

    def gathered(self) -> np.ndarray:
        """The (K x X) samples: the stored or kept array when there is one, else
        gathered from :meth:`blocks`, if it fits in physical memory, into a new
        array that is not kept, so a definition-backed symbol stays unbuilt."""
        if self._samples is not None:
            return self._samples
        require_memory("symbol samples", self.box.size, self.grid.size)
        values = np.empty((self.box.size, self.grid.size), dtype=complex)
        for rows, block in self.blocks():
            values[rows] = block
        return values

    def with_samples(self, samples: np.ndarray, params=None) -> "SampledSymbol":
        return SampledSymbol(self.box, self.grid, samples,
                             params if params is not None else self.params)

    def kappa_blocks(self):
        """Yield ``(rows, kappa[rows])`` over the same row blocks as
        :meth:`blocks`: from the :meth:`separated` form, T transforms of X
        points in all, else transforms of the sample blocks; none of them
        kept, and :meth:`kappa`'s array is never read."""
        K, shape = self.box.size, self.grid.shape
        axes = tuple(range(1, self.grid.n + 1))
        parts = self.separated()
        if parts is not None:  # kappa[rows] = A[:, rows]^T beta, beta_t the row transform of B_t
            A, B = parts
            beta = np.fft.ifftn(B.reshape((-1,) + shape), axes=axes)
            beta = np.fft.fftshift(beta, axes=axes).reshape(-1, K)
            for rows in row_blocks(K, K):
                yield rows, A[:, rows].T @ beta
            return
        for rows, block in self.blocks():
            block = np.fft.ifftn(block.reshape((-1,) + shape), axes=axes)
            yield rows, np.fft.fftshift(block, axes=axes).reshape(-1, K)

    def kappa(self) -> np.ndarray:
        """Row transform kappa(k, l) = (1/M^n) sum_j e^{2 pi i l.x_j} sigma(k, x_j).

        Returned as a read-only (box.size, box.size) array with l in box
        order, gathered from :meth:`kappa_blocks` on the first call if it fits
        in physical memory and kept (for :func:`pdz.quantize.kernel` alone);
        the rows give sigma(k, x) = sum_l kappa(k, l) e^{-2 pi i l.x}.
        """
        if self._kappa is None:
            with self._lock:
                if self._kappa is None:
                    K = self.box.size
                    require_memory("row transform kappa", K, K)
                    kap = np.empty((K, K), dtype=complex)
                    for rows, block in self.kappa_blocks():
                        kap[rows] = block
                    kap.flags.writeable = False
                    self._kappa = kap
        return self._kappa

    def row_max(self) -> np.ndarray:
        """max_x |sigma(k, x)| per row, from one pass over the row blocks."""
        out = np.empty(self.box.size)
        for rows, block in self.blocks():
            out[rows] = np.abs(block).max(axis=1)
        return out


def sample(definition: SymbolDefinition, box: LatticeBox, grid: TorusGrid) -> SampledSymbol:
    """Sample a closed-form symbol on box x grid, keeping the definition: its
    factors are evaluated here and each pass evaluates the rows it reads, so
    both must be pure; the (K x X) array is kept once ``samples`` is read."""
    return SampledSymbol(box, grid, definition, params=definition.params)


def constant_symbol(box: LatticeBox, grid: TorusGrid, value=1.0) -> SampledSymbol:
    return SampledSymbol(box, grid, np.full((box.size, grid.size), value, dtype=complex),
                         params=SymbolClassParams(0.0))


# ---------------------------------------------------------------------------
# difference and derivative operators


def _first_difference(values: np.ndarray, axis: int, out=None) -> np.ndarray:
    """``t(k + v_axis) - t(k)`` along a cyclic ``axis`` of ``values``, in one pass,
    into ``out`` (default a new array)."""
    out, lead = np.empty_like(values) if out is None else out, (slice(None),) * axis
    head, tail, first, last = (lead + (s,) for s in (slice(1, None), slice(None, -1),
                                                     slice(0, 1), slice(-1, None)))
    np.subtract(values[head], values[tail], out=out[tail])
    np.subtract(values[first], values[last], out=out[last])
    return out


def _leading_difference(values: np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """``out[i] = values[(start + i + 1) % L] - values[(start + i) % L]`` for the
    leading-axis slices ``start <= start + i < stop - 1``, L the axis length:
    one subtraction per run of slices that does not wrap, however far."""
    i = 0
    while i < len(out):
        j = (start + i) % len(values)
        if j == len(values) - 1:  # the wrapped difference
            np.subtract(values[0], values[j], out=out[i])
            i += 1
        else:
            run = min(len(out) - i, len(values) - 1 - j)
            np.subtract(values[j + 1:j + 1 + run], values[j:j + run], out=out[i:i + run])
            i += run
    return out


def lattice_difference(values: np.ndarray, alpha, axes=None, rows=None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Delta^alpha on an array whose lattice axes are ``axes`` (one per entry
    of alpha; default the leading ones): iterated first differences with
    cyclic wrap, on the slice ``rows`` of the leading axis (default all).

    A block of rows reads its slices plus, where the leading axis is
    differenced alpha_0 times, the next alpha_0 slices (wrapped, however
    far) as a halo; the leading axis, when a block differences it, comes
    first in ``axes``.  Each entry goes through the same subtractions in the
    same order either way, so a block is bit for bit those rows of the whole
    difference.  Returns ``values`` itself when alpha = 0 and ``rows`` is
    None.  A block is always written to the two :func:`scratch` buffers of
    the differences, in turn, its last step into ``out`` when given, never a
    view of ``values``: it is the caller's to change, until its next blocked
    difference."""
    axes = range(len(alpha)) if axes is None else axes
    steps = [axis for axis, a in zip(axes, alpha) for _ in range(a)]
    if rows is None:
        for axis in steps:
            values = _first_difference(values, axis)
        return values
    halo = steps.count(0)
    if 0 in steps[halo:]:
        raise DomainMismatchError(f"a blocked difference takes the leading axis first, "
                                  f"got axes {tuple(axes)}")
    if not steps:  # the block as it is, in a buffer of its own
        block = scratch("difference.0", values[rows].shape) if out is None else out
        np.copyto(block, values[rows])
        return block
    block, start, stop = values, rows.start, rows.stop + halo
    for turn, axis in enumerate(steps):  # along the leading axis the halo shrinks by one slice
        shape = (stop - start - (axis == 0),) + values.shape[1:]
        into = (out if out is not None and turn == len(steps) - 1 else
                scratch(f"difference.{turn % 2}", shape))
        if axis == 0:
            _leading_difference(block, start, stop, into)
        else:
            _first_difference(block[start:stop], axis, into)
        block, start, stop = into, 0, len(into)
    return block


def forward_difference(sym: SampledSymbol, alpha) -> SampledSymbol:
    """Delta^alpha in the lattice variable, iterated first differences with
    cyclic wrap at the box edge; a definition-backed ``sym`` is read by
    :meth:`SampledSymbol.gathered` and keeps no samples."""
    alpha = check_multi_index(alpha, sym.box.n)
    shaped = sym.gathered().reshape(sym.box.shape + (sym.grid.size,))
    out = lattice_difference(shaped, alpha)
    return SampledSymbol(sym.box, sym.grid, out.reshape(sym.box.size, sym.grid.size))


def generalized_difference(sym: SampledSymbol, q: TorusFunction) -> SampledSymbol:
    """q-difference in the lattice variable: for each fixed x, transform the
    k-dependence, multiply by q, transform back (equivalently, cyclic
    convolution of each column with the inverse transform of q).

    With q(y) = e^{2 pi i y_j} - 1 this reproduces ``forward_difference``
    with alpha = v_j.
    """
    box, grid = sym.box, sym.grid
    require_matched(box, q.grid)
    k_axes = tuple(range(box.n))
    shaped = sym.samples.reshape(box.shape + (grid.size,))
    spec = np.fft.fftn(np.fft.ifftshift(shaped, axes=k_axes), axes=k_axes)
    spec *= q.values.reshape(q.grid.shape + (1,))
    out = np.fft.fftshift(np.fft.ifftn(spec, axes=k_axes), axes=k_axes)
    return SampledSymbol(box, grid, out.reshape(box.size, grid.size))


def _fft_frequencies(M: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(M) * M).astype(int)


def falling_factor(l: np.ndarray, a: int) -> np.ndarray:
    """l (l-1) ... (l-a+1) at the integer frequencies ``l``, as floats; 1 for a = 0."""
    return np.prod(l - np.arange(a)[:, None], axis=0, dtype=float)


def axis_multipliers(grid: TorusGrid, high: int, factor) -> list[list[np.ndarray]]:
    """Per grid axis i, ``factor(l, a)`` for 1 <= a <= high at the FFT frequencies l
    of that axis, C-contiguous of shape ``grid.shape``: the multipliers of the
    one-axis operators, and by their products over the axes those of D^(beta)."""
    freqs, index = _fft_frequencies(grid.M), np.indices(grid.shape)
    return [[factor(freqs, a)[index[i]] for a in range(1, high + 1)] for i in range(grid.n)]


def _circulant(grid: TorusGrid) -> bool:
    """Whether the one-axis operators of ``grid`` are dense circulant products."""
    return grid.M <= CIRCULANT_AXIS_MAX


def axis_operators(grid: TorusGrid, high: int, factor) -> list[list[np.ndarray]]:
    """Per grid axis i, the one-axis operators with multiplier ``factor(l, a)``,
    1 <= a <= high, as :func:`x_derivatives` and :func:`_axis_derivative` take
    them: on an axis of at most :data:`CIRCULANT_AXIS_MAX` points the M x M
    circulant F^-1 diag(m) F, whose first column is the inverse FFT of the
    multiplier line m (the same matrix on every axis), else the grid-shaped
    multipliers of :func:`axis_multipliers`."""
    multipliers = axis_multipliers(grid, high, factor)
    if not _circulant(grid):
        return multipliers
    lag = np.subtract.outer(np.arange(grid.M), np.arange(grid.M)) % grid.M
    lines = (m.reshape(grid.M, -1)[:, 0] for m in multipliers[0])
    return [[np.fft.ifft(line)[lag] for line in lines]] * grid.n


def _circulant_product(values: np.ndarray, grid: TorusGrid, i: int, operator: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """The circulant ``operator`` along grid axis i of ``values`` (..., grid.size or
    grid.shape), written into ``out`` (C-contiguous, of values' size) by one
    stacked ``np.matmul``.  Each of its products takes s lines of the axis, s a
    power of M set by M, n and i alone, so a block's entries are bit for bit
    those of the whole array, and is at most :data:`_SERIAL_PRODUCT`
    multiply-adds, so none starts BLAS threads."""
    M, after = grid.M, grid.M ** (grid.n - 1 - i)
    lines = after if after > 1 else M ** (grid.n - 1)
    while lines > 1 and M * M * lines > _SERIAL_PRODUCT:
        lines //= M
    if after > 1:  # operator @ (M x s) slabs, s of the trailing entries at a time
        shape = (-1, M, after // lines, lines)
        np.matmul(operator, values.reshape(shape).transpose(0, 2, 1, 3),
                  out=out.reshape(shape).transpose(0, 2, 1, 3))
    else:  # the last axis: (s x M) runs of consecutive lines @ operator^T
        np.matmul(values.reshape(-1, lines, M), operator.T, out=out.reshape(-1, lines, M))
    return out


def _axis_derivative(values: np.ndarray, grid: TorusGrid, i: int, operator) -> np.ndarray:
    """The one-axis ``operator`` of :func:`axis_operators` along grid axis i of
    ``values`` (..., grid.shape), into a new array: one circulant product, or
    one FFT along the axis, times the multiplier, and back."""
    if _circulant(grid):
        return _circulant_product(values, grid, i, operator,
                                  np.empty(values.shape, dtype=complex))
    along = i - grid.n
    return np.fft.ifft(np.fft.fft(values, axis=along) * operator, axis=along)


def x_derivatives(values: np.ndarray, grid: TorusGrid, high: int, operators,
                  alpha=(), axis=0):
    """``(alpha, D^alpha values)`` for each |alpha| <= high, ``values`` shaped
    (..., grid.size) and D^alpha the product of the one-axis ``operators``
    (:func:`axis_operators`), depth first from alpha = 0: a node whose last
    nonzero entry is alpha_i is its parent with alpha_i = 0 under
    ``operators[i][alpha_i - 1]`` along grid axis i.  On a short axis that is
    one circulant product of the parent, written into the node buffer of its
    level; on a long one, one inverse FFT along i of the parent's FFT along i
    times the multiplier, the walk holding one spectrum and one node per level
    and taking the last child of a spectrum in the spectrum's own buffer.
    Every buffer is a :func:`scratch` buffer written with ``out=``: a node is
    valid until the walk moves on."""
    alpha = alpha or (0,) * grid.n
    yield alpha, values
    budget, level = high - sum(alpha), sum(map(bool, alpha))
    if not budget:
        return
    for i in range(axis, grid.n):
        steps = operators[i][:budget]
        if _circulant(grid):
            children = (_circulant_product(values, grid, i, operator,
                                           scratch(("node", level), values.shape))
                        for operator in steps)
        else:
            children = _spectral_children(values, grid, i, steps, level)
        for a, child in enumerate(children, 1):
            yield from x_derivatives(child.reshape(values.shape), grid, high, operators,
                                     alpha[:i] + (a,) + alpha[i + 1:], i + 1)


def _spectral_children(values, grid: TorusGrid, i: int, multipliers, level: int):
    """The children of ``values`` along grid axis i in :func:`x_derivatives`, one
    at a time: one FFT along i, then per multiplier one product and one inverse
    FFT, the last child in the spectrum's buffer."""
    shape, along = values.shape[:-1] + grid.shape, i - grid.n
    spec = np.fft.fft(values.reshape(shape), axis=along, out=scratch(("spectrum", level), shape))
    for a, multiplier in enumerate(multipliers, 1):
        child = spec if a == len(multipliers) else scratch(("node", level), shape)
        np.multiply(spec, multiplier, out=child)
        yield np.fft.ifft(child, axis=along, out=child)


def x_spectrum(values: np.ndarray, grid: TorusGrid, prepare) -> np.ndarray:
    """FFT over the grid variable of what ``prepare(block, out)`` makes of each
    row block of ``values`` shaped (..., grid.size), written into ``out`` (a
    :func:`scratch` buffer) and returned: one pass over the row blocks, each
    transformed straight into its slice of the result; returns shape (...,) +
    grid.shape."""
    rows = values.reshape(-1, grid.size)
    out, axes = np.empty((len(rows),) + grid.shape, dtype=complex), tuple(range(1, grid.n + 1))

    def fill(b):
        block = prepare(rows[b], scratch("x_spectrum", rows[b].shape))
        np.fft.fftn(block.reshape((-1,) + grid.shape), axes=axes, out=out[b])
    each_row_block(fill, len(rows), grid.size)
    return out.reshape(values.shape[:-1] + grid.shape)


def _x_derivative(sym: SampledSymbol, beta, factor) -> SampledSymbol:
    """The product over grid axes i with beta_i > 0 of the one-axis operators
    with multiplier ``factor(l, beta_i)``, one pass over the row blocks: one
    operator of :func:`axis_operators` along each such axis, none at beta = 0."""
    grid = sym.grid
    beta = check_multi_index(beta, grid.n)
    operators = axis_operators(grid, max(beta), factor)
    samples = sym.gathered()
    out = np.empty_like(samples)

    def fill(rows):
        block = samples[rows].reshape((-1,) + grid.shape)
        for i, b in enumerate(beta):
            if b:
                block = _axis_derivative(block, grid, i, operators[i][b - 1])
        out[rows] = block.reshape(-1, grid.size)
    each_row_block(fill, len(out), grid.size)
    return SampledSymbol(sym.box, grid, out)


def _power(l: np.ndarray, a: int) -> np.ndarray:
    return l.astype(float) ** a


def x_derivative(sym: SampledSymbol, beta) -> SampledSymbol:
    """D^beta with D = (1/2 pi i) d/dx per axis, spectral and exact for
    trigonometric-polynomial rows."""
    return _x_derivative(sym, beta, _power)


def falling_derivative(sym: SampledSymbol, beta) -> SampledSymbol:
    """Falling-factorial derivative D^(beta): per axis the spectral multiplier
    is l (l-1) ... (l-beta_j+1); the empty product (beta_j = 0) is 1."""
    return _x_derivative(sym, beta, falling_factor)


def partial_factor(l: np.ndarray, a: int) -> np.ndarray:
    """(2 pi i l)^a, the multiplier of (d/dx)^a along one axis."""
    return (2j * np.pi * l) ** a


def partial_x_derivative(sym: SampledSymbol, alpha) -> SampledSymbol:
    """Plain partial derivative d^alpha/dx^alpha (spectral multiplier (2 pi i l)^alpha)."""
    return _x_derivative(sym, alpha, partial_factor)


def x_reflect(sym: SampledSymbol) -> SampledSymbol:
    """Samples of sigma(k, -x), the reflection acting cyclically on grid nodes."""
    grid = sym.grid
    shaped = sym.samples.reshape((sym.box.size,) + grid.shape)
    idx = (-np.arange(grid.M)) % grid.M
    for i in range(grid.n):
        shaped = np.take(shaped, idx, axis=i + 1)
    return sym.with_samples(shaped.reshape(sym.box.size, grid.size))


# ---------------------------------------------------------------------------
# diagnostics on symbols


def seminorm_estimate(sym: SampledSymbol, alpha, beta, params: SymbolClassParams,
                      interior: bool = False) -> float:
    """Smallest constant witnessed on the box for the mixed bound

        |D^(beta)_x Delta^alpha_k sigma(k, x)| <= C (1+|k|)^(mu - rho|alpha| + delta|beta|).

    With ``interior=True`` the max is restricted to |k|_inf <= N - |alpha|,
    where cyclic differences agree with the full-lattice ones.
    """
    alpha = check_multi_index(alpha, sym.box.n)
    beta = check_multi_index(beta, sym.grid.n)
    work = falling_derivative(forward_difference(sym, alpha), beta)
    mags = work.row_max()
    expo = params.mu - params.rho * sum(alpha) + params.delta * sum(beta)
    weighted = mags * (1.0 + sym.box.norms) ** (-expo)
    if interior:
        margin = sym.box.N - sum(alpha)
        mask = np.abs(sym.box.points).max(axis=1) <= margin
        weighted = weighted[mask]
    return float(weighted.max()) if weighted.size else 0.0


def order_fit(sym: SampledSymbol) -> float:
    """Least-squares slope of log max_x |sigma(k, x)| against log(1+|k|) over
    dyadic shells 2^j <= 1+|k| < 2^(j+1).

    Each shell contributes its largest row max (paired with that row's
    abscissa); all-zero shells are skipped.
    """
    if sym.box.N < 4:
        raise DomainMismatchError(f"order fit needs N >= 4, got N={sym.box.N}")
    rowmax = sym.row_max()
    weights = 1.0 + sym.box.norms
    shell = np.floor(np.log2(weights)).astype(int)
    xs, ys = [], []
    for j in range(int(shell.max()) + 1):
        mask = shell == j
        if not mask.any():
            continue
        vals = rowmax[mask]
        i = int(np.argmax(vals))
        if vals[i] <= 0.0:
            continue
        xs.append(np.log(weights[mask][i]))
        ys.append(np.log(vals[i]))
    if len(xs) < 2:
        raise DomainMismatchError("order fit: fewer than two usable dyadic shells")
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass(frozen=True)
class EllipticityReport:
    ok: bool
    constant: float
    witness_k: tuple[int, ...]
    witness_x: tuple[float, ...]
    mu: float
    cutoff: float
    threshold: float


def _first(pick, candidates):
    """The ``(value, row, node)`` of ``candidates``, one per row block in row
    order, whose value ``pick`` (``np.argmin`` or ``np.argmax``) selects: as
    ``pick`` on the whole array would, the first NaN, else the first extremum."""
    return candidates[int(pick([value for value, _, _ in candidates]))]


def _block_first(pick, values: np.ndarray, rows) -> tuple:
    """``(value, row, node)`` of ``pick`` on a block of rows ``rows``."""
    i, j = divmod(int(pick(values)), values.shape[1])
    return values[i, j], rows[i], j


def _minima(sym: SampledSymbol, mu: float, m_cut: float | None):
    """One pass over ``sym.blocks()``: the :class:`EllipticityReport` and the
    ``(value, row, node)`` of the smallest |sigma| on the box, each minimum
    the first in row order, as ``np.argmin`` on the whole samples gives it."""
    if m_cut is None:
        m_cut = max(1, sym.box.N // 2)
    if not m_cut < sym.box.N:
        raise DomainMismatchError(f"cutoff {m_cut} must be smaller than N={sym.box.N}")
    row_weights = (1.0 + sym.box.norms) ** (-mu)
    mask = sym.box.norms >= m_cut
    weighted, vanishing = [], []
    for rows, block in sym.blocks():
        mags = np.abs(block)
        vanishing.append(_block_first(np.argmin, mags, range(rows.start, rows.stop)))
        keep = np.flatnonzero(mask[rows])
        if keep.size:
            weighted.append(_block_first(np.argmin, mags[keep] * row_weights[rows][keep, None],
                                         rows.start + keep))
    constant, k_index, node = _first(np.argmin, weighted)
    constant = float(constant)
    witness_k, witness_x = _witness(sym.box, sym.grid, k_index, node)
    report = EllipticityReport(ok=constant > ZERO_THRESHOLD, constant=constant,
                               witness_k=witness_k, witness_x=witness_x, mu=mu,
                               cutoff=float(m_cut), threshold=ZERO_THRESHOLD)
    return report, _first(np.argmin, vanishing)


def ellipticity_check(sym: SampledSymbol, mu: float,
                      m_cut: float | None = None) -> EllipticityReport:
    """Witness the lower bound |sigma(k, x)| >= C (1+|k|)^mu over |k| >= m_cut,
    in one pass over the row blocks.

    Returns the minimized constant and the minimizing (k, x); ``ok`` means the
    constant clears :data:`ZERO_THRESHOLD`.
    """
    return _minima(sym, mu, m_cut)[0]


def require_invertible(sym: SampledSymbol, mu: float, m_cut: float | None = None) -> float:
    """Check that sigma can be inverted pointwise: raise
    :class:`NotEllipticError` when :func:`ellipticity_check` fails at order
    mu, and :class:`SingularSymbolError` when |sigma| <= :data:`ZERO_THRESHOLD`
    anywhere on the box (the lower bound covers only |k| >= m_cut).  Returns
    the smallest |sigma| on the box.  Both minima come from one pass over the
    row blocks, so the (K x X) samples are never built."""
    ell, (smallest, i, j) = _minima(sym, mu, m_cut)
    if not ell.ok:
        raise NotEllipticError(
            f"symbol is not elliptic at order {mu}: constant {ell.constant:.3e} "
            f"at k={ell.witness_k}, x={ell.witness_x}",
            witness=(ell.witness_k, ell.witness_x),
            constant=ell.constant,
        )
    if smallest <= ZERO_THRESHOLD:
        k, x = _witness(sym.box, sym.grid, i, j)
        raise SingularSymbolError(f"symbol vanishes on the box at k={k}, x={x}",
                                  witness=(k, x))
    return float(smallest)


# ---------------------------------------------------------------------------
# periodic Taylor expansion


@dataclass
class PeriodicTaylor:
    """Expansion of a grid function h in powers of (e^{2 pi i x} - 1).

    ``coefficients[alpha]`` holds D^(alpha) h(0) for |alpha| < order;
    ``remainders[alpha]`` holds the grid samples of the remainder factor for
    |alpha| = order, so that on every node

        h(x) = sum_{|a|<order} (1/a!) (e^{2 pi i x}-1)^a coefficients[a]
             + sum_{|a|=order} remainders[a](x) (e^{2 pi i x}-1)^a.
    """

    grid: TorusGrid
    order: int
    coefficients: dict[tuple[int, ...], complex]
    remainders: dict[tuple[int, ...], np.ndarray]

    def reconstruct(self) -> np.ndarray:
        factors = [np.exp(2j * np.pi * self.grid.nodes[:, i]) - 1.0 for i in range(self.grid.n)]

        def power(alpha):
            out = np.ones(self.grid.size, dtype=complex)
            for i, a in enumerate(alpha):
                out = out * factors[i] ** a
            return out

        out = np.zeros(self.grid.size, dtype=complex)
        for alpha, c in self.coefficients.items():
            out += (c / multi_factorial(alpha)) * power(alpha)
        for alpha, rem in self.remainders.items():
            out += rem.reshape(-1) * power(alpha)
        return out


def periodic_taylor(h: TorusFunction, n_order: int) -> PeriodicTaylor:
    """Expand h around 0 in powers of (e^{2 pi i x} - 1) to total order ``n_order``.

    Works axis by axis: along each axis the factor functions are produced by
    the inductive step g -> (g - g(0)) / (e^{2 pi i y} - 1), using the
    spectral derivative of g at the node y = 0 where the quotient is 0/0.
    The reconstruction identity holds on the grid to roundoff.
    """
    n_order = check_expansion_order(n_order)
    grid = h.grid
    n, M = grid.n, grid.M
    coefficients: dict[tuple[int, ...], complex] = {}
    remainders: dict[tuple[int, ...], np.ndarray] = {}
    denom = np.exp(2j * np.pi * np.arange(M) / M) - 1.0
    frequencies = [steps[0] for steps in axis_operators(grid, 1, _power)]

    def expand(values: np.ndarray, axis: int, prefix: tuple[int, ...], budget: int) -> None:
        if axis == n:
            coefficients[prefix] = complex(values.flat[0]) * multi_factorial(prefix)
            return
        dshape = [1] * n
        dshape[axis] = M
        d = denom.reshape(dshape)
        g = values
        sl = [slice(None)] * n
        sl[axis] = 0
        for a in range(budget):
            coeff_fn = np.broadcast_to(np.take(g, [0], axis=axis), grid.shape).copy()
            expand(coeff_fn, axis + 1, prefix + (a,), budget - a)
            g0 = np.take(g, [0], axis=axis)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = (g - g0) / d
            deriv = _axis_derivative(g, grid, axis, frequencies[axis])
            nxt[tuple(sl)] = np.take(deriv, 0, axis=axis)
            g = nxt
        remainders[prefix + (budget,) + (0,) * (n - axis - 1)] = g.copy()

    expand(h.values.reshape(grid.shape).astype(complex), 0, (), n_order)
    return PeriodicTaylor(grid=grid, order=n_order, coefficients=coefficients,
                          remainders=remainders)
