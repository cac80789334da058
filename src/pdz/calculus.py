"""Symbolic calculus: composition, adjoint, and transpose expansions, the
reduction of amplitudes to symbols, finite partial sums of symbol
expansions, and the parametrix recursion for elliptic symbols.

The adjoint, the transpose and the amplitude reduction are one series,
sum (1/alpha!) Delta^alpha D^(alpha)_x, summed by one pass over the x-spectra
each gives per row block, :func:`_difference_series`; compose and the
parametrix take D^(alpha)_x from :func:`pdz.symbols.x_derivatives`, with the
one-axis operators of :func:`pdz.symbols.axis_operators` (circulant products
on short grid axes, FFT round trips on long ones).  Every D^(alpha)
multiplier is built by :func:`pdz.symbols.axis_multipliers`, and no pass
starts inside a block.  Every per-block temporary (the derivative tree, the
differences and their products, a series' block sum) lives in the
:func:`pdz.symbols.scratch` pool of the pass's worker; the adjoint and the
transpose conjugate or reflect each block inside their x-spectrum pass, and
the parametrix writes its terms straight into its result and keeps each
difference Delta^gamma A_l that a later B_j reads again.

All expansions are finite truncations evaluated on the cyclic model; claims
of asymptotic accuracy are probed elsewhere as decay of residual orders,
never as limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError
from .grids import LatticeBox, TorusGrid, require_matched, require_memory
from .symbols import (AmplitudeDefinition, SampledSymbol, SymbolClassParams, axis_multipliers,
                      axis_operators, check_expansion_order, each_row_block, falling_factor,
                      lattice_difference, multi_factorial, multi_indices_below,
                      reflected_nodes, require_invertible, scratch, x_derivatives, x_spectrum)


def _require_same_domain(a: SampledSymbol, b: SampledSymbol) -> None:
    if a.box != b.box or a.grid != b.grid:
        raise DomainMismatchError("symbols live on different boxes/grids")


@dataclass
class SymbolExpansion:
    """Finitely many symbol terms with strictly decreasing declared orders."""

    terms: list[SampledSymbol]
    orders: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.terms:
            raise DomainMismatchError("expansion needs at least one term")
        if not self.orders:
            self.orders = [-float(j) for j in range(len(self.terms))]
        if len(self.orders) != len(self.terms):
            raise DomainMismatchError("one declared order per term is required")
        for a, b in zip(self.orders, self.orders[1:]):
            if not b < a:
                raise DomainMismatchError(f"orders must strictly decrease, got {self.orders}")
        for t in self.terms[1:]:
            _require_same_domain(self.terms[0], t)


def partial_sum(expansion: SymbolExpansion, j: int) -> SampledSymbol:
    """Pointwise sum of the first j terms."""
    if not 1 <= j <= len(expansion.terms):
        raise DomainMismatchError(
            f"partial sum index {j} outside [1, {len(expansion.terms)}]"
        )
    head = expansion.terms[0]
    acc = head.samples.copy()
    for t in expansion.terms[1:j]:
        acc += t.samples
    return head.with_samples(acc, params=head.params)


def _product_term(deriv: np.ndarray, diff: np.ndarray, alpha, out=None) -> np.ndarray:
    """(1/alpha!) diff . deriv on a block, diff = Delta^alpha_k of the right factor and
    deriv = D^(alpha)_x of the left one, written into ``out`` (default diff's own
    buffer), the difference the multiply's first operand."""
    out = diff if out is None else out
    np.multiply(diff, deriv, out=out)
    factorial = multi_factorial(alpha)
    if factorial != 1:
        out /= factorial
    return out


def compose(sigma: SampledSymbol, tau: SampledSymbol, order: int) -> SampledSymbol:
    """Truncated composition symbol

        sum_{|alpha| < order} (1/alpha!) D^(alpha)_x sigma . Delta^alpha_k tau

    (derivatives fall on the left factor, differences on the right one).
    Exact at finite order when sigma has only nonnegative x-frequencies of
    bounded degree, since D^(alpha) then annihilates all higher terms.
    """
    _require_same_domain(sigma, tau)
    order = check_expansion_order(order)
    box, grid = sigma.box, sigma.grid
    left, right = (s.samples.reshape(box.shape + (grid.size,)) for s in (sigma, tau))
    acc = np.empty_like(left)
    operators = axis_operators(grid, order - 1, falling_factor)

    def series(rows):
        np.multiply(left[rows], right[rows], out=acc[rows])
        for alpha, deriv in x_derivatives(left[rows], grid, order - 1, operators):
            if any(alpha):
                acc[rows] += _product_term(deriv, lattice_difference(right, alpha, rows=rows),
                                           alpha)
    each_row_block(series, len(acc), acc[0].size)
    params = None
    if sigma.params is not None and tau.params is not None:
        params = SymbolClassParams(
            sigma.params.mu + tau.params.mu,
            min(sigma.params.rho, tau.params.rho),
            max(sigma.params.delta, tau.params.delta),
        )
    return SampledSymbol(sigma.box, sigma.grid, acc, params=params)


def _difference_series(spectrum, grid, order: int, axes, out: np.ndarray,
                       corner=()) -> np.ndarray:
    """sum_{|alpha| < order} (1/alpha!) Delta^alpha D^(alpha)_x on x-spectra whose lattice
    axes are ``axes``, one pass over the blocks of leading-axis slices of ``out``:
    ``spectrum(rows)`` is ``(spec, own)``, the slices ``own`` of ``spec`` the block's rows
    and the rest their halo.  Each block's sum, read at index ``corner`` of its
    order-long axes after the leading one, is inverted by one ``ifftn`` into ``out``."""
    multipliers = axis_multipliers(grid, order - 1, falling_factor)
    weights = [(alpha, np.prod([multipliers[i][a - 1] for i, a in enumerate(alpha) if a], axis=0)
                / multi_factorial(alpha)) for alpha in multi_indices_below(len(axes), order)[1:]]

    def series(rows):
        spec, own = spectrum(rows)
        acc = scratch("series", spec[own].shape)
        np.copyto(acc, spec[own])
        for alpha, weight in weights:
            term = lattice_difference(spec, alpha, axes, rows=own)
            term *= weight
            acc += term
        part = acc[(slice(None),) + corner]
        np.fft.ifftn(part, axes=tuple(range(-grid.n, 0)),
                     out=out[rows].reshape(part.shape, copy=False))
    each_row_block(series, len(out), out[0].size * order ** len(corner))
    return out


def _dual_expansion(spec: np.ndarray, sigma: SampledSymbol, order: int) -> SampledSymbol:
    """sum_{|alpha| < order} (1/alpha!) Delta^alpha_k D^(alpha)_x of the samples
    whose x-spectrum is ``spec``, on sigma's box and grid, with its params."""
    order = check_expansion_order(order)
    box, grid = sigma.box, sigma.grid
    spec = spec.reshape(box.shape + grid.shape)
    out = _difference_series(lambda rows: (spec, rows), grid, order, range(box.n),
                             np.empty(box.shape + (grid.size,), dtype=complex))
    return SampledSymbol(box, grid, out.reshape(box.size, grid.size), params=sigma.params)


def adjoint(sigma: SampledSymbol, order: int) -> SampledSymbol:
    """Truncated adjoint symbol  sum (1/alpha!) Delta^alpha_k D^(alpha)_x conj(sigma),
    each block of samples conjugated inside the :func:`x_spectrum` pass."""
    return _dual_expansion(x_spectrum(sigma.samples, sigma.grid,
                                      lambda block, out: np.conj(block, out=out)), sigma, order)


def _reflection(grid: TorusGrid):
    """``prepare(block, out)`` for :func:`x_spectrum`: one gather of a block of
    samples at the nodes -x (:func:`~pdz.symbols.reflected_nodes`), its index
    living with it."""
    index = reflected_nodes(grid)
    return lambda block, out: block.take(index, axis=1, out=out, mode="clip")


def transpose(sigma: SampledSymbol, order: int) -> SampledSymbol:
    """Truncated transpose symbol  sum (1/alpha!) Delta^alpha_k D^(alpha)_x sigma(k, -x),
    each block of samples reflected inside the :func:`x_spectrum` pass."""
    return _dual_expansion(x_spectrum(sigma.samples, sigma.grid, _reflection(sigma.grid)),
                           sigma, order)


def amplitude_to_symbol(amp: AmplitudeDefinition, box: LatticeBox, grid: TorusGrid,
                        order: int) -> SampledSymbol:
    """Reduce an amplitude to a symbol by the finite expansion

        sum_{|alpha| < order} (1/alpha!) Delta^alpha_l D^(alpha)_x a(k, l, x) |_{l=k},

    summed on the stencil l = k + gamma, 0 <= gamma_i < order (wrapped), the
    only points Delta^alpha reads at l = k; the cyclic wrap of the stencil's
    differences never reaches the corner gamma = 0 that is read.  Each row
    block evaluates and transforms its own stencil, so only the (K x X) result
    is held whole.  For amplitudes independent of l the alpha = 0 term alone is exact.
    """
    order = check_expansion_order(order)
    require_matched(box, grid)
    require_memory("amplitude reduction", box.size, grid.size)
    n, stencil = box.n, np.indices((order,) * box.n).reshape(box.n, -1).T

    def spectrum(rows):
        k = box.points[rows, None, :]
        vals = np.asarray(amp.evaluator(k[:, None], box.wrap(k + stencil)[:, :, None],
                                        grid.nodes[None, None]), dtype=complex)
        shape = (len(k),) + (order,) * n + grid.shape
        vals = np.broadcast_to(vals, (len(k), len(stencil), grid.size)).reshape(shape)
        return np.fft.fftn(vals, axes=tuple(range(-grid.n, 0)),
                           out=scratch("stencil", shape)), slice(0, len(k))
    return SampledSymbol(box, grid, _difference_series(
        spectrum, grid, order, range(1, n + 1), np.empty((box.size, grid.size), dtype=complex),
        (0,) * n))


def _parametrix_pass(a_terms: list[SampledSymbol], mu: float, order: int,
                     m_cut: float | None, keep=None,
                     out: np.ndarray | None = None) -> tuple[SymbolClassParams, float]:
    """Check the order and A_0, then run :func:`parametrix`'s recursion on ``a_terms``
    per block of leading-axis slices, writing each block's ``[B_0 .. B_{order-1}]``
    into its rows of the (order x box.shape x X) ``out``, or when there is none
    into a :func:`scratch` buffer, handed to ``keep(rows, b_terms)`` when given
    to keep or change; return A_0's class (default mu), min |A_0|."""
    order = check_expansion_order(order)
    leading = a_terms[0]
    smallest = require_invertible(leading, mu, m_cut=m_cut)
    params = leading.params or SymbolClassParams(mu)
    params.validate_for_calculus()
    grid = leading.grid
    lower = [t.samples.reshape(leading.box.shape + (grid.size,)) for t in a_terms]
    operators = axis_operators(grid, order - 1, falling_factor)

    def term(deriv, a_l, gamma, l: int, rows, kept: dict):
        """The product term of D^(gamma) B_j and Delta^gamma A_l on the block: A_l's
        own rows at gamma = 0; a difference that a later B_j reads again
        (|gamma| + l <= order - 2) kept for the block in the pool by (gamma, l);
        else the blocked difference, whose buffer takes the term."""
        if not any(gamma):
            return _product_term(deriv, a_l[rows], gamma, scratch("term", deriv.shape))
        if sum(gamma) + l > order - 2:
            return _product_term(deriv, lattice_difference(a_l, gamma, rows=rows), gamma)
        if (gamma, l) not in kept:
            kept[gamma, l] = lattice_difference(a_l, gamma, rows=rows,
                                                out=scratch(("kept", gamma, l), deriv.shape))
        return _product_term(deriv, kept[gamma, l], gamma, scratch("term", deriv.shape))

    def recursion(rows):  # B_j's terms reach the B_m, m > j, with the A_l read with halo slices
        leading_rows = lower[0][rows]
        b_terms = (out[:, rows] if out is not None else
                   scratch("parametrix", (order,) + leading_rows.shape))
        inv_leading = np.divide(1.0, leading_rows, out=b_terms[0])
        b_terms[1:] = 0
        kept = {}
        for j in range(order - 1):  # B_j is final: scatter its terms, then finish B_{j+1}
            for gamma, deriv in x_derivatives(b_terms[j], grid, order - 1 - j, operators):
                for l, a_l in enumerate(lower[:order - j - sum(gamma)]):
                    if any(gamma) or l:  # B_j . A_0 is B_j's own equation
                        b_terms[j + sum(gamma) + l] -= term(deriv, a_l, gamma, l, rows, kept)
            b_terms[j + 1] *= inv_leading  # B_m = (-1/A_0) sum ..., the sign taken in the sum
        if keep is not None:
            keep(rows, b_terms)
    each_row_block(recursion, len(lower[0]), lower[0][0].size)
    return params, smallest


def parametrix(a_terms: SymbolExpansion, mu: float, order: int,
               m_cut: float | None = None) -> SymbolExpansion:
    """Recursive approximate-inverse expansion for an elliptic symbol.

    With A given as terms A_0, A_1, ... (term l declared of order mu - (rho-delta) l,
    missing terms read as zero), the inverse expansion starts from
    B_0 = 1/A_0 and continues, for 1 <= m < order, with

        B_m = (-1/A_0) sum_{j<m} sum_{l<=m-j} sum_{|gamma| = m-j-l}
                  (1/gamma!) [D^(gamma)_x B_j] Delta^gamma_k A_l,

    each B_j, once final, adding its terms to every later B_m.  Requires the leading
    term to pass the ellipticity check at order mu and to be nonvanishing on
    the whole box (the reciprocal is taken pointwise).  The terms are kept in
    one (order x K x X) stack, filled per block by :func:`_parametrix_pass`.
    """
    leading = a_terms.terms[0]
    stack = np.empty((check_expansion_order(order),) + leading.box.shape + (leading.grid.size,),
                     dtype=complex)
    params, _ = _parametrix_pass(a_terms.terms, mu, order, m_cut, out=stack)
    orders = [-mu - (params.rho - params.delta) * m for m in range(order)]
    return SymbolExpansion([leading.with_samples(out, params=SymbolClassParams(
        mu_m, params.rho, params.delta)) for out, mu_m in zip(stack, orders)], orders)
