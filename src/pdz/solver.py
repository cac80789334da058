"""Difference-equation solving by symbol inversion.

Four routes, chosen by :func:`solve`: exact division in frequency for
symbols with no lattice dependence, and for elliptic symbols with lattice
dependence LU on the dense operator matrix (inside the dense cap) or GMRES
on the matrix-free operator, right-preconditioned by the inverse of the
grid mean of sigma (``krylov``) or by the parametrix (``iterative``).
Every report recomputes its residual by a fresh forward application, never
from solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quantize
from .calculus import _parametrix_pass
from .analysis import WeightedNormParams, weighted_norm
from .errors import (ConfigError, DivergenceError, DomainMismatchError,
                     NonFiniteValueError, SingularSymbolError)
from .fourier import forward_fourier, inverse_fourier
from .grids import LatticeSequence, TorusFunction
from .quantize import apply, matrix
from .symbols import ZERO_THRESHOLD, SampledSymbol, check_expansion_order, require_invertible

#: Below this grid minimum a conditioning warning is attached to reports.
CONDITION_WARNING = 1e-6


@dataclass
class SolveReport:
    """Solution plus independently recomputed residual diagnostics."""

    solution: LatticeSequence
    residual_l2: float
    weighted_residuals: dict = field(default_factory=dict)
    iterations: int = 0
    method: str = ""
    warnings: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"method: {self.method}",
            f"iterations: {self.iterations}",
            f"residual_l2: {self.residual_l2:.12e}",
        ]
        for s, value in sorted(self.weighted_residuals.items()):
            lines.append(f"residual_weighted_s={s:g}: {value:.12e}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _conditioning(smallest: float, what: str) -> list[str]:
    if smallest >= CONDITION_WARNING:
        return []
    return [f"symbol minimum {smallest:.3e} is below {CONDITION_WARNING:g}; "
            f"{what} may be ill-conditioned"]


def _finish(sym, f, g, s_values, iterations, method, warnings, history) -> SolveReport:
    r = LatticeSequence(g.box, g.values - apply(sym, f).values)
    with np.errstate(over="ignore"):  # an overflow is raised as NonFiniteValueError
        weighted = {float(s): weighted_norm(r, WeightedNormParams(float(s)))
                    for s in s_values}
        residual_l2 = r.norm2()
    return SolveReport(
        solution=f,
        residual_l2=residual_l2,
        weighted_residuals=weighted,
        iterations=iterations,
        method=method,
        warnings=warnings,
        residual_history=history,
    )


def _require_same_box(sym: SampledSymbol, g: LatticeSequence) -> None:
    if g.box != sym.box:
        raise DomainMismatchError("data and symbol live on different boxes")


def _row_scan(sym: SampledSymbol) -> tuple[np.ndarray, float, bool]:
    """Row 0 of sigma, the largest deviation of a row from it, and whether
    that is within 1e-12 of max(1, max |sigma|); one pass over the rows,
    none when :meth:`SampledSymbol.constant_row` shows sigma k-independent."""
    first = sym.constant_row()
    if first is not None:
        return first, 0.0, True
    scale, deviation = 1.0, 0.0
    for _, block in sym.blocks():
        if first is None:
            first = block[0].copy()
        scale = max(scale, float(np.abs(block).max()))
        deviation = max(deviation, float(np.abs(block - first).max()))
    return first, deviation, deviation <= 1e-12 * scale


def invert_multiplier(sym: SampledSymbol, g: LatticeSequence,
                      s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g for a symbol with no lattice dependence by exact
    division in frequency; exact on the cyclic model.

    Raises when the rows of sigma actually vary in k (use
    :func:`solve_elliptic` then) or when sigma vanishes on the grid.
    """
    return _divide(sym, _row_scan(sym), g, s_values)


def _divide(sym: SampledSymbol, scan, g: LatticeSequence, s_values) -> SolveReport:
    """:func:`invert_multiplier` on the result of :func:`_row_scan`."""
    _require_same_box(sym, g)
    row, deviation, k_constant = scan
    if not k_constant:
        raise DomainMismatchError(
            f"symbol varies across lattice rows (deviation {deviation:.3e}); "
            "use solve_elliptic for lattice-dependent elliptic symbols"
        )
    j = int(np.argmin(np.abs(row)))
    smallest = float(np.abs(row[j]))
    if smallest <= ZERO_THRESHOLD:
        node = sym.grid.node(j)
        raise SingularSymbolError(
            f"symbol vanishes on the grid at node x={node}", witness=node)
    warnings = _conditioning(smallest, "solution")
    ghat = forward_fourier(g, sym.grid)
    f = inverse_fourier(TorusFunction(sym.grid, ghat.values / row), sym.box)
    return _finish(sym, f, g, s_values, 0, "exact-multiplier", warnings, [])


def _verified(report: SolveReport, g: LatticeSequence, tol: float, history,
              route: str) -> SolveReport:
    """``report`` when its recomputed residual is at most ``tol * |g|``; a
    non-finite one raises :class:`NonFiniteValueError` and a larger one
    :class:`DivergenceError` carrying ``history``."""
    residual, limit = report.residual_l2, tol * g.norm2()
    if not np.isfinite(residual):
        raise NonFiniteValueError(f"residual of the {route} solution is non-finite")
    if residual > limit:
        raise DivergenceError(
            f"{route} residual {residual:.3e} is above tol * |g| = {limit:.3e}",
            history=history,
        )
    return report


def solve_dense(sym: SampledSymbol, mu: float, g: LatticeSequence, tol: float = 1e-10,
                s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g by LU on the dense matrix of Op(sigma), which
    holds two (K x K) complex arrays at once (K = box.size): the matrix and
    its LU copy, about 0.55 GB at K = 4096.

    Runs the ellipticity and vanishing checks of :func:`parametrix` first, in
    one pass over the row blocks, so a symbol fails here exactly as in
    :func:`solve_elliptic`; neither the checks nor :func:`matrix` keep the
    (K x X) samples or ``kappa`` on the symbol.  A singular
    matrix raises :class:`SingularSymbolError`, a box above the dense cap
    :class:`ResourceLimitError`, and the residual is judged by
    :func:`_verified` with the history ``[residual]``.
    """
    _require_same_box(sym, g)
    warnings = _conditioning(require_invertible(sym, mu), "solution")
    try:
        values = np.linalg.solve(matrix(sym).values, g.values)
    except np.linalg.LinAlgError as exc:
        raise SingularSymbolError(f"operator matrix is singular: {exc}") from exc
    report = _finish(sym, LatticeSequence(g.box, values), g, s_values, 0, "dense-lu",
                     warnings, [])
    return _verified(report, g, tol, [report.residual_l2], "dense")


def gmres(matvec, precond, g: np.ndarray, tol: float, max_iter: int):
    """Right-preconditioned GMRES (Saad & Schultz, SISSC 1986) for A x = g
    from x = 0: Arnoldi with modified Gram-Schmidt on A P, each new
    Hessenberg column reduced by the Givens rotations so far.

    ``matvec`` applies A and ``precond`` applies P to a vector.  Stops once
    the residual estimate is at most ``tol * |g|``, after ``max_iter``
    steps, or when the estimate is non-finite.  Returns ``(x, history)``:
    x = P V y, and the estimates, |g| first and one per step, each the last
    times the sine of a rotation, so the history never increases.  Holds
    one vector of g's size and one Hessenberg column per step taken; a
    singular A P raises ``np.linalg.LinAlgError``.
    """
    beta = float(np.linalg.norm(g))
    history = [beta]
    if beta == 0.0:
        return np.zeros_like(g), history
    basis, columns, rotations, rhs = [g / beta], [], [], [beta]
    while len(columns) < max_iter and np.isfinite(history[-1]) and history[-1] > tol * beta:
        w = matvec(precond(basis[-1]))
        column = np.empty(len(basis), dtype=complex)
        for i, v in enumerate(basis):
            column[i] = np.vdot(v, w)
            w = w - column[i] * v
        h = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):  # the earlier rotations, on the new column
            a, b = column[i], column[i + 1]
            column[i], column[i + 1] = c * a + s * b, c * b - np.conj(s) * a
        a = column[-1]
        r = float(np.hypot(abs(a), h))
        phase = a / abs(a) if abs(a) else 1.0
        c, s = (abs(a) / r, phase * h / r) if r else (1.0, 0.0)
        rotations.append((c, s))
        column[-1] = phase * r
        columns.append(column)
        rhs.append(-np.conj(s) * rhs[-1])
        rhs[-2] *= c
        history.append(float(abs(rhs[-1])))
        if h:
            basis.append(w / h)
    R = np.zeros((len(columns), len(columns)), dtype=complex)
    for j, column in enumerate(columns):  # the rotated Hessenberg: upper triangular
        R[:j + 1, j] = column
    x = np.zeros_like(g)
    for c, v in zip(np.linalg.solve(R, rhs[:-1]), basis):
        x += c * v
    return precond(x), history


def _solve_by_gmres(sym: SampledSymbol, g: LatticeSequence, precond, warnings: list,
                    method: str, route: str, max_iter: int, tol: float,
                    s_values) -> SolveReport:
    """Solve Op(sigma) f = g, on matching boxes, by :func:`gmres` with
    :func:`apply` as the operator and ``precond`` as P; the report carries
    ``warnings``.  A singular operator on the Krylov space raises
    :class:`SingularSymbolError`; the residual recomputed by
    :func:`_finish`, not the GMRES estimate, is judged by :func:`_verified`
    with the estimates as the history."""
    box = sym.box
    try:
        values, history = gmres(lambda v: apply(sym, LatticeSequence(box, v)).values,
                                precond, g.values, tol, max_iter)
    except np.linalg.LinAlgError as exc:
        raise SingularSymbolError(f"operator is singular on the Krylov space: {exc}") from exc
    report = _finish(sym, LatticeSequence(box, values), g, s_values, len(history) - 1,
                     method, warnings, history)
    return _verified(report, g, tol, history, route)


def _mean_symbol(sym: SampledSymbol) -> np.ndarray:
    """sigma-bar(k) = mean over the grid of sigma(k, .), the l = 0 band of
    kappa: sum_t A_t(k) mean(B_t) for a separated symbol, else one pass over
    the row blocks."""
    parts = sym.separated()
    if parts is not None:
        A, B = parts
        return B.mean(axis=1) @ A
    return np.concatenate([block.mean(axis=1) for _, block in sym.blocks()])


def solve_krylov(sym: SampledSymbol, mu: float, g: LatticeSequence, max_iter: int = 50,
                 tol: float = 1e-10, s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g by :func:`_solve_by_gmres` with
    P = diag(1 / sigma-bar) as the right preconditioner, where sigma-bar(k)
    is the mean of sigma(k, .) over the grid.

    Each step is one :func:`apply`, T transforms of K points for a separated
    symbol, so the route holds no (K x K) and no (K x X) array: the basis,
    one length-K vector per step, is its largest object.  Runs the checks of
    :func:`solve_dense` first, so a symbol fails here exactly as there; a
    vanishing sigma-bar raises :class:`DomainMismatchError`.
    """
    _require_same_box(sym, g)
    warnings = _conditioning(require_invertible(sym, mu), "solution")
    mean = _mean_symbol(sym)
    zero = np.abs(mean) <= ZERO_THRESHOLD
    if zero.any():
        k = sym.box.point(int(np.argmax(zero)))
        raise DomainMismatchError(
            f"the mean of the symbol over the grid vanishes at k={k}; "
            "the krylov preconditioner divides by it")
    return _solve_by_gmres(sym, g, lambda v: v / mean, warnings, "krylov-gmres", "krylov",
                           max_iter, tol, s_values)


def solve_elliptic(sym: SampledSymbol, mu: float, g: LatticeSequence, order: int,
                   max_iter: int = 50, tol: float = 1e-10,
                   s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g by :func:`_solve_by_gmres` with Op(B) as the right
    preconditioner, B at most ``order`` terms of the parametrix of sigma summed
    row by row as an asymptotic series stopped at its smallest term: on row k,
    B_m is added only while max_x |B_m(k, .)| < max_x |B_{m-1}(k, .)| and every
    earlier term of the row was added (where sigma is small the terms grow, and
    their full sum would lose the digits of Op(B)).  One pass over row blocks
    runs the checks and the recursion and keeps only the sum."""
    _require_same_box(sym, g)
    total = np.empty(sym.box.shape + (sym.grid.size,), dtype=complex)

    def keep(rows, b_terms):
        sizes = [np.abs(term).max(axis=-1) for term in b_terms]
        added = np.logical_and.accumulate([b < a for a, b in zip(sizes, sizes[1:])])
        for term, rows_added in zip(b_terms[1:], added):
            np.add(b_terms[0], term, out=b_terms[0], where=rows_added[..., None])
        total[rows] = b_terms[0]
    smallest = _parametrix_pass([sym], mu, order, None, keep)[1]
    B = sym.with_samples(total)
    return _solve_by_gmres(sym, g, lambda v: apply(B, LatticeSequence(sym.box, v)).values,
                           _conditioning(smallest, "iteration"), "parametrix-iteration",
                           "parametrix", max_iter, tol, s_values)


def solve(sym: SampledSymbol, g: LatticeSequence, method: str = "auto", mu: float = 0.0,
          order: int = 2, max_iter: int = 50, tol: float = 1e-10,
          s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g by :func:`invert_multiplier` (``multiplier``),
    :func:`solve_krylov` (``krylov``), :func:`solve_dense` (``dense``) or
    :func:`solve_elliptic` (``iterative``).  ``auto`` takes krylov, at any
    box size, for a separated symbol whose A_t vary with k and whose mean
    over the grid stays above :data:`ZERO_THRESHOLD` at every k; k-constancy
    is read off the factors there, with no pass over the rows.  Otherwise
    it takes multiplier when one pass over the rows, which the division
    reuses, finds sigma k-independent; else dense inside
    ``quantize.DENSE_CAP``; else iterative.  Inside the cap, a
    :class:`DivergenceError` of that krylov solve falls back to dense, and
    the report warns of it.  Any other ``method`` raises
    :class:`ConfigError`."""
    if method not in ("auto", "multiplier", "krylov", "dense", "iterative"):
        raise ConfigError(f"solve: unknown method {method!r}")
    check_expansion_order(order)
    fallback, scan = False, None
    if method == "auto":
        inside_cap = sym.box.size <= quantize.DENSE_CAP
        if (sym.separated() is not None and sym.constant_row() is None
                and (np.abs(_mean_symbol(sym)) > ZERO_THRESHOLD).all()):
            method, fallback = "krylov", inside_cap
        else:
            scan = _row_scan(sym)
            method = "multiplier" if scan[2] else "dense" if inside_cap else "iterative"
    if method == "multiplier":
        return _divide(sym, scan or _row_scan(sym), g, s_values)
    if method == "krylov":
        try:
            return solve_krylov(sym, mu, g, max_iter=max_iter, tol=tol, s_values=s_values)
        except DivergenceError as exc:
            if not fallback:
                raise
            report = solve_dense(sym, mu, g, tol=tol, s_values=s_values)
            report.warnings.append(f"krylov-gmres did not converge ({exc}); "
                                   "solved by dense LU instead")
            return report
    if method == "dense":
        return solve_dense(sym, mu, g, tol=tol, s_values=s_values)
    return solve_elliptic(sym, mu, g, order, max_iter=max_iter, tol=tol, s_values=s_values)
