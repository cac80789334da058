"""Norm, trace, Schatten, boundedness, and compactness diagnostics.

Everything here ties operator-level quantities to computable expressions in
the symbol on the cyclic model.  Dense spectral computations (SVD, eigen,
power iteration) are gated by the dense size cap; probe-based operator-norm
estimates are one-sided lower bounds with explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, NonFiniteValueError
from .grids import LatticeBox, LatticeSequence
from .quantize import apply, matrix
from .report import DiagnosticsReport
from .symbols import SampledSymbol, SymbolDefinition, _first, column_floor, sample


@dataclass(frozen=True)
class WeightedNormParams:
    """Weight exponent s and integrability exponent p for weighted norms."""

    s: float
    p: float = 2.0

    def __post_init__(self):
        if not self.p >= 1:
            raise DomainMismatchError(f"integrability exponent must be >= 1, got {self.p}")


def _p_sum(mags: np.ndarray, p: float) -> float:
    """( sum |mags|^p )^{1/p}, and max |mags| at p = inf."""
    return float(mags.max() if p == np.inf else np.sum(mags ** p) ** (1.0 / p))


def weighted_norm(f: LatticeSequence, params: WeightedNormParams) -> float:
    """( sum_k (1+|k|)^{s p} |f(k)|^p )^{1/p}; max_k (1+|k|)^s |f(k)| at p = inf."""
    return _p_sum((1.0 + f.box.norms) ** params.s * np.abs(f.values), params.p)


def lp_norm(f: LatticeSequence, p: float) -> float:
    if not p >= 1:
        raise DomainMismatchError(f"p must be >= 1, got {p}")
    return _p_sum(np.abs(f.values), p)


def _finite_sum(what: str, terms):
    """``sum(terms)``, or :class:`NonFiniteValueError` when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(terms)
    if not np.isfinite(total):
        raise NonFiniteValueError(f"{what} is non-finite: its sum over the samples overflows")
    return total


def hs_norm(sym: SampledSymbol) -> float:
    """Quadrature L^2 norm of the symbol over box x grid; coincides with the
    Frobenius norm of the dense operator matrix; one pass over the row blocks."""
    squares = (np.sum(np.abs(b) ** 2) for _, b in sym.blocks())
    return float(np.sqrt(_finite_sum("hs_norm", squares) * sym.grid.weight))


def trace(sym: SampledSymbol) -> complex:
    """sum_k (1/M^n) sum_j sigma(k, x_j): the matrix trace, and (within dense
    eigensolver accuracy) the eigenvalue sum; one pass over the row blocks."""
    return complex(_finite_sum("trace", (np.sum(b) for _, b in sym.blocks())) * sym.grid.weight)


def _row_lq_norms(sym: SampledSymbol, q: float) -> np.ndarray:
    sums = np.empty(sym.box.size)
    for rows, block in sym.blocks():
        sums[rows] = np.sum(np.abs(block) ** q, axis=1)
    return (sums * sym.grid.weight) ** (1.0 / q)


def schatten_report(sym: SampledSymbol, p: float) -> DiagnosticsReport:
    """Schatten report for one p; see :func:`schatten_reports`."""
    return schatten_reports(sym, [p])[0]


def schatten_reports(sym: SampledSymbol, p_values) -> list[DiagnosticsReport]:
    """Singular-value quasi-norm S_p of the dense matrix against the
    symbol-side bound B_p, one report per p from one SVD:

    * p <= 2:  B_p = ( sum_k ||sigma(k,.)||_{L^2}^p )^{1/p},
    * p >= 2:  B_p = ( sum_k ||sigma(k,.)||_{L^{p'}}^{p'} )^{1/p'}, 1/p + 1/p' = 1.

    At p = 2 the two sides agree to roundoff; at p = inf, S_inf is the
    largest singular value and p' = 1.
    """
    p_values = list(p_values)
    if not p_values:
        return []
    for p in p_values:
        if not p > 0:
            raise DomainMismatchError(f"Schatten exponent must be positive, got {p}")
    singular = np.linalg.svd(matrix(sym).values, compute_uv=False)
    row_norms = {}  # q -> the rows' L^q norms, each computed once
    reports = []
    for p in p_values:
        s_p = _p_sum(singular, p)
        q = 2.0 if p <= 2 else 1.0 if p == np.inf else p / (p - 1.0)
        if q not in row_norms:
            row_norms[q] = _row_lq_norms(sym, q)
        bound = _p_sum(row_norms[q], p if p <= 2 else q)
        rep = DiagnosticsReport(f"schatten_p={p:g}")
        rep.add_value("schatten_quasi_norm", s_p)
        rep.add_value("symbol_side_bound", bound)
        scale = max(1.0, bound)
        rep.add_flag("schatten_le_bound", s_p <= bound + 1e-10 * scale,
                     f"S_p={s_p:.12g}, B_p={bound:.12g}")
        if p == 2:
            rep.add_flag("hs_equality", abs(s_p - bound) <= 1e-10 * scale,
                         f"|S_2 - B_2| = {abs(s_p - bound):.3e}")
        reports.append(rep)
    return reports


def kernel_decay_fit(sym: SampledSymbol, n_t: int) -> DiagnosticsReport:
    """Kernel decay fit for one exponent; see :func:`kernel_decay_fits`."""
    return kernel_decay_fits(sym, [n_t])[0]


def kernel_decay_fits(sym: SampledSymbol, n_ts) -> list[DiagnosticsReport]:
    """Witnessed constant in the kernel decay bound

        |K(k, m)| <= C (1+|k|)^{mu} (1+|k-m|)^{-2 n_t},

    over pairs with cyclic distance |k-m| <= N, one report per n_t, witnessed
    by the first maximum in (k, m) order.  The declared order mu is taken from
    the symbol's metadata (0 when absent); stability of the constant under
    box refinement is the associated property, checked by callers across
    sizes.  With l = k - m, one pass over the row blocks of kappa(k, l)
    weighs them by (1+|k|)^(-mu) (1+|l|)^(2 n_t) [|l| <= N]: all columns, or
    for a separated symbol those whose bound reaches a lower bound of the
    maximum (:func:`~pdz.symbols.column_floor`), ties included.
    """
    n_ts = list(n_ts)
    if not n_ts:
        return []
    for n_t in n_ts:
        if n_t > 3 or n_t < 0:
            raise DomainMismatchError(f"decay exponent index must be in [0, 3], got {n_t}")
    if sym.box.N < 8:
        raise DomainMismatchError(f"kernel decay fit needs N >= 8, got {sym.box.N}")
    box = sym.box
    mu = sym.params.mu if sym.params is not None else 0.0
    row_weights = (1.0 + box.norms) ** (-mu)
    near, spread = box.norms <= box.N, {n_t: (1.0 + box.norms) ** (2 * n_t) for n_t in n_ts}

    def values(rows, magnitude, columns, n_t):
        weights = row_weights[rows, None] * spread[n_t][columns]
        return np.where(near[columns], magnitude * weights, 0.0)

    bound = sym.kappa_bound()
    if bound is None:
        columns, blocks = np.arange(box.size), sym.kappa_blocks()
    else:
        reach = np.zeros(box.size, dtype=bool)
        for n_t in n_ts:  # each n_t's bound on a column: its kappa bound times the weights
            bounds = np.where(near, bound * row_weights.max() * spread[n_t], 0.0)
            floor = column_floor(bounds, sym.kappa_blocks,
                                 lambda rows, block, columns: values(rows, np.abs(block),
                                                                     columns, n_t).max(),
                                 lambda b, floor: b < floor)
            reach |= bounds >= floor
        columns = np.flatnonzero(reach)
        blocks = sym.kappa_blocks(columns)
    best = [[] for _ in n_ts]
    for rows, block in blocks:
        magnitude = np.abs(block)
        for n_t, found in zip(n_ts, best):
            masked = values(rows, magnitude, columns, n_t)
            i = int(np.argmax(masked)) // masked.shape[1]  # the first row holding the maximum
            ties = columns[masked[i] == masked[i].max()]
            m = box.index_of(box.points[rows.start + i] - box.points[ties])
            found.append((masked[i].max(), rows.start + i, int(m.min())))
    reports = []
    for n_t, found in zip(n_ts, best):
        constant, i, j = _first(np.argmax, found)
        rep = DiagnosticsReport(f"kernel_decay_nt={n_t}")
        rep.add_value("constant", float(constant))
        rep.add_value("mu_declared", mu)
        rep.add_value("witness_k", [int(v) for v in box.points[i]])
        rep.add_value("witness_m", [int(v) for v in box.points[j]])
        reports.append(rep)
    return reports


def _probe_sequences(box: LatticeBox, n_random: int, seed: int) -> list[LatticeSequence]:
    rng = np.random.default_rng(seed)
    probes = []
    sites = range(box.size) if box.size <= 128 else rng.choice(box.size, 128, replace=False)
    for i in sites:
        v = np.zeros(box.size, dtype=complex)
        v[i] = 1.0
        probes.append(LatticeSequence(box, v))
    for _ in range(n_random):
        v = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
        probes.append(LatticeSequence(box, v))
        probes.append(LatticeSequence(box, np.sign(rng.standard_normal(box.size)) + 0j))
    return probes


def lp_bound_report(sym: SampledSymbol, p: float, n_random: int = 20,
                    seed: int = 0) -> DiagnosticsReport:
    """Convolution-majorant bound for the lp operator norm; see
    :func:`lp_bound_reports`."""
    return lp_bound_reports(sym, [p], n_random, seed)[0]


def lp_bound_reports(sym: SampledSymbol, p_values, n_random: int = 20,
                     seed: int = 0) -> list[DiagnosticsReport]:
    """Convolution-majorant bound for the lp operator norm, one report per p.

    omega(m) = sup_k |kappa(k, m)| majorizes the summation kernel along its
    difference variable, so ||Op(sigma)||_{lp->lp} <= ||omega||_{l1}, omega a
    running max over :meth:`SampledSymbol.kappa_blocks`.  The empirical side
    is a lower estimate from coordinate and random probes, each applied once
    and scored for every p; the flag asserts only the one-sided comparison.
    """
    p_values = list(p_values)
    if not p_values:
        return []
    for p in p_values:
        if not p >= 1:
            raise DomainMismatchError(f"p must be >= 1, got {p}")
    if sym.separated() is None:
        sym.samples  # stored once here: every probe below passes over all the rows
    omega = np.zeros(sym.box.size)
    for _, block in sym.kappa_blocks():
        np.maximum(omega, np.abs(block).max(axis=0), out=omega)
    bound = float(omega.sum())
    best = [0.0] * len(p_values)
    best_tag = ["none"] * len(p_values)
    for idx, f in enumerate(_probe_sequences(sym.box, n_random, seed)):
        image = apply(sym, f)
        for i, p in enumerate(p_values):
            denom = lp_norm(f, p)
            if denom == 0.0:
                continue
            ratio = lp_norm(image, p) / denom
            if ratio > best[i]:
                best[i], best_tag[i] = ratio, f"probe {idx}"
    reports = []
    for p, est, tag in zip(p_values, best, best_tag):
        rep = DiagnosticsReport(f"lp_bound_p={p:g}")
        rep.add_value("omega_l1", bound)
        rep.add_value("empirical_norm", est)
        rep.add_flag("empirical_le_bound", est <= bound + 1e-10 * max(1.0, bound),
                     f"estimate {est:.12g} from {tag}, bound {bound:.12g}")
        reports.append(rep)
    return reports


def compactness_tail(sym: SampledSymbol, cut: float) -> float:
    """Row-sum tail estimate sup_{|k| > cut} sum_l |kappa(k, l)| bounding the
    norm of the operator restricted to high lattice frequencies, in every
    l^p at once (Young's inequality), from the masked rows of each block of
    :meth:`SampledSymbol.kappa_blocks`; no (K x K) kappa is held.
    """
    if not cut < sym.box.N:
        raise DomainMismatchError(f"cut {cut} must be smaller than N={sym.box.N}")
    mask = sym.box.norms > cut
    if not mask.any():
        return 0.0
    return float(np.max([np.abs(block[mask[rows]]).sum(axis=1).max(initial=0.0)
                         for rows, block in sym.kappa_blocks()]))


def operator_norm_power(mat: np.ndarray, tol: float = 1e-8, seed: int = 0) -> float:
    """Spectral norm by power iteration on A^H A, to relative tolerance tol
    within 10000 iterations; each step takes w = A^H (A v) by two
    matrix-vector products, so A^H A is never formed."""
    size = mat.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    nv = np.linalg.norm(v)
    if nv == 0.0 or not np.any(mat):
        return 0.0
    v /= nv
    lam_old = 0.0
    for _ in range(10000):
        w = np.conj(np.conj(mat @ v) @ mat)  # A^H (A v), with no conjugate copy of A
        lam = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam - lam_old) <= tol * max(abs(lam), 1.0):
            break
        lam_old = lam
    return float(np.sqrt(max(lam, 0.0)))


def mikhlin_uniformity(definition: SymbolDefinition, n: int, box_sizes,
                       seed: int = 0) -> DiagnosticsReport:
    """Dense l2 operator norms of one symbol definition across box sizes.

    For symbols with k-uniformly bounded x-derivatives the sequence is
    expected to stay bounded with no decay assumptions; the report carries
    the sequence, callers decide what bound to hold it to.
    """
    norms = []
    rep = DiagnosticsReport("mikhlin_uniformity")
    for N in box_sizes:
        box = LatticeBox(n, int(N))
        sym = sample(definition, box, box.matched_grid())
        value = operator_norm_power(matrix(sym).values, seed=seed)
        norms.append(value)
        rep.add_value(f"norm_N={N}", value)
    rep.add_value("norms", norms)
    return rep
