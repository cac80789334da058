"""Difference-equation solving by symbol inversion.

Two routes: exact division in frequency for symbols with no lattice
dependence, and approximate-inverse preconditioned refinement for elliptic
symbols with lattice dependence.  Every report recomputes its residual by a
fresh forward application of the original symbol, never from solver
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import SymbolExpansion, parametrix, partial_sum
from .analysis import WeightedNormParams, weighted_norm
from .errors import (DivergenceError, DomainMismatchError, NonFiniteValueError,
                     SingularSymbolError)
from .fourier import forward_fourier, inverse_fourier
from .grids import LatticeSequence, TorusFunction
from .quantize import apply
from .symbols import SampledSymbol, row_blocks

#: Below this grid minimum a symbol is treated as singular.
ZERO_THRESHOLD = 1e-10
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


def _residual(sym: SampledSymbol, f: LatticeSequence, g: LatticeSequence) -> LatticeSequence:
    return LatticeSequence(g.box, g.values - apply(sym, f).values)


def _finish(sym, f, g, s_values, iterations, method, warnings, history) -> SolveReport:
    r = _residual(sym, f, g)
    weighted = {float(s): weighted_norm(r, WeightedNormParams(float(s))) for s in s_values}
    return SolveReport(
        solution=f,
        residual_l2=r.norm2(),
        weighted_residuals=weighted,
        iterations=iterations,
        method=method,
        warnings=warnings,
        residual_history=history,
    )


def lattice_deviation(sym: SampledSymbol) -> tuple[float, bool]:
    """Largest deviation of a symbol row from the first one, and whether it is
    within 1e-12 of max(1, max |sigma|), i.e. sigma does not depend on k."""
    scale, deviation = 1.0, 0.0
    for rows in row_blocks(sym.box.size, sym.grid.size):
        block = sym.samples[rows]
        scale = max(scale, float(np.abs(block).max()))
        deviation = max(deviation, float(np.abs(block - sym.samples[0]).max()))
    return deviation, deviation <= 1e-12 * scale


def invert_multiplier(sym: SampledSymbol, g: LatticeSequence,
                      s_values=(0.0, 2.0)) -> SolveReport:
    """Solve Op(sigma) f = g for a symbol with no lattice dependence by exact
    division in frequency; exact on the cyclic model.

    Raises when the rows of sigma actually vary in k (use
    :func:`solve_elliptic` then) or when sigma vanishes on the grid.
    """
    if g.box != sym.box:
        raise DomainMismatchError("data and symbol live on different boxes")
    deviation, k_constant = lattice_deviation(sym)
    if not k_constant:
        raise DomainMismatchError(
            f"symbol varies across lattice rows (deviation {deviation:.3e}); "
            "use solve_elliptic for lattice-dependent elliptic symbols"
        )
    row = sym.samples[0]
    j = int(np.argmin(np.abs(row)))
    smallest = float(np.abs(row[j]))
    if smallest <= ZERO_THRESHOLD:
        node = tuple(float(v) for v in sym.grid.nodes[j])
        raise SingularSymbolError(
            f"symbol vanishes on the grid at node x={node}", witness=node)
    warnings = []
    if smallest < CONDITION_WARNING:
        warnings.append(f"symbol minimum {smallest:.3e} is below {CONDITION_WARNING:g}; "
                        "solution may be ill-conditioned")
    ghat = forward_fourier(g, sym.grid)
    f = inverse_fourier(TorusFunction(sym.grid, ghat.values / row), sym.box)
    return _finish(sym, f, g, s_values, 0, "exact-multiplier", warnings, [])


def solve_elliptic(sym: SampledSymbol, mu: float, g: LatticeSequence, order: int,
                   max_iter: int = 50, tol: float = 1e-10,
                   s_values=(0.0, 2.0), m_cut: float | None = None) -> SolveReport:
    """Richardson refinement f <- f + Op(B)(g - Op(sigma) f) preconditioned by
    the approximate-inverse expansion B of sigma (summed to ``order`` terms),
    starting from f = Op(B) g.

    The expansion makes the error operator smoothing but carries no norm
    guarantee below one, so growth of the residual over three consecutive
    refinements, or ``max_iter`` refinements without reaching ``tol * |g|``,
    raises :class:`DivergenceError` with the history attached; a non-finite
    residual raises :class:`NonFiniteValueError`.
    """
    if g.box != sym.box:
        raise DomainMismatchError("data and symbol live on different boxes")
    expansion = parametrix(SymbolExpansion([sym], [mu]), mu, order, m_cut=m_cut)
    precond = partial_sum(expansion, order)
    warnings = []
    smallest = min(float(np.abs(sym.samples[rows]).min())
                   for rows in row_blocks(sym.box.size, sym.grid.size))
    if smallest < CONDITION_WARNING:
        warnings.append(f"symbol minimum {smallest:.3e} is below {CONDITION_WARNING:g}; "
                        "iteration may be ill-conditioned")

    g_norm = g.norm2()
    if g_norm == 0.0:
        return _finish(sym, LatticeSequence.zeros(g.box), g, s_values, 0,
                       "parametrix-iteration", warnings, [])

    f = apply(precond, g)
    r = _residual(sym, f, g)
    history = [r.norm2()]
    growth = 0
    while True:
        if not np.isfinite(history[-1]):
            raise NonFiniteValueError(
                f"residual became non-finite after {len(history)} refinements")
        if growth >= 3:
            raise DivergenceError(
                f"residual grew for three consecutive refinements "
                f"(last {history[-1]:.3e})",
                history=history,
            )
        if history[-1] <= tol * g_norm:
            break
        if len(history) >= max_iter:
            raise DivergenceError(
                f"residual {history[-1]:.3e} still above tol * |g| = {tol * g_norm:.3e} "
                f"after {len(history)} refinements",
                history=history,
            )
        f = LatticeSequence(g.box, f.values + apply(precond, r).values)
        r = _residual(sym, f, g)
        history.append(r.norm2())
        growth = growth + 1 if history[-1] > history[-2] else 0
    return _finish(sym, f, g, s_values, len(history), "parametrix-iteration",
                   warnings, history)
