"""Independent reference implementations the library is checked against.

Everything here is direct summation with explicitly built phase matrices (or
stencil arithmetic), deliberately avoiding the FFT code paths under test.
"""

import numpy as np


def phase_matrix(box, grid):
    """e^{2 pi i k.x} over (box point, grid node)."""
    return np.exp(2j * np.pi * (box.points.astype(float) @ grid.nodes.T))


def dft_forward(f_values, box, grid):
    """F(x_j) = sum_k e^{-2 pi i k.x_j} f(k) by direct summation."""
    return np.conj(phase_matrix(box, grid)).T @ f_values


def dft_inverse(F_values, box, grid):
    """f(k) = (1/M^n) sum_j e^{2 pi i k.x_j} F(x_j) by direct summation."""
    return phase_matrix(box, grid) @ F_values / grid.size


def quantize_direct(samples, f_values, box, grid):
    """Op(sigma) f by the double sum, row by row."""
    fhat = dft_forward(f_values, box, grid)
    E = phase_matrix(box, grid)
    return (E * samples * fhat[None, :]).sum(axis=1) / grid.size


def operator_matrix_by_columns(apply_fn, box):
    """Dense matrix of a black-box linear operator by probing basis vectors."""
    cols = []
    for i in range(box.size):
        e = np.zeros(box.size, dtype=complex)
        e[i] = 1.0
        cols.append(apply_fn(e))
    return np.stack(cols, axis=1)


def second_derivative_stencil(fn, x, h=1e-3):
    """Fourth-order central stencil for d^2/dx^2 of a scalar closed form."""
    return (-fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x)
            + 16 * fn(x - h) - fn(x - 2 * h)) / (12 * h**2)


def falling_factorial(values, length):
    out = np.ones_like(np.asarray(values, dtype=float))
    for m in range(length):
        out = out * (values - m)
    return out


def torus_fourier_coefficient(values, grid, freq):
    """c_l = (1/M^n) sum_j e^{-2 pi i l.x_j} h(x_j) by direct quadrature."""
    phases = np.exp(-2j * np.pi * (grid.nodes @ np.asarray(freq, dtype=float)))
    return np.sum(phases * values) / grid.size


def falling_coefficient_at_zero(values, grid, alpha):
    """D^(alpha) h(0) = sum_l prod_j l_j (l_j - 1) ... c_l, summed directly."""
    N = (grid.M - 1) // 2
    total = 0.0 + 0.0j
    for flat in range(grid.M**grid.n):
        l = []
        rest = flat
        for _ in range(grid.n):
            l.append(rest % grid.M - N)
            rest //= grid.M
        mult = 1.0
        for j, a in enumerate(alpha):
            mult *= falling_factorial(np.array(l[j], dtype=float), a)
        if mult != 0.0:
            total += mult * torus_fourier_coefficient(values, grid, l)
    return total


# ---------------------------------------------------------------------------
# CSV text, one formatted line per row


def _columns(prefix, n):
    return [f"{prefix}_{i + 1}" for i in range(n)]


def _csv_line(ints, value):
    return ",".join([str(int(c)) for c in ints] + ["%.17g" % value.real, "%.17g" % value.imag])


def _csv_text(header, lines):
    return "\n".join([",".join(header)] + lines) + "\n"


def sequence_csv(f):
    lines = [_csv_line(p, v) for p, v in zip(f.box.points, f.values)]
    return _csv_text(_columns("k", f.box.n) + ["re", "im"], lines)


def _symbol_lines(sym, lead=""):
    return [lead + _csv_line(np.concatenate([point, node]), sym.samples[i, j])
            for i, point in enumerate(sym.box.points)
            for j, node in enumerate(sym.grid.node_indices)]


def _symbol_header(sym):
    return _columns("k", sym.box.n) + _columns("j", sym.grid.n) + ["re", "im"]


def symbol_csv(sym):
    return _csv_text(_symbol_header(sym), _symbol_lines(sym))


def expansion_csv(expansion):
    lines = [ln for idx, term in enumerate(expansion.terms)
             for ln in _symbol_lines(term, f"{idx},")]
    return _csv_text(["term"] + _symbol_header(expansion.terms[0]), lines)


def kernel_csv(ker, threshold):
    """Entries with |kappa| strictly above threshold * max|kappa| (at least
    threshold * 1e-300), row by row."""
    box = ker.box
    cutoff = threshold * max(1e-300, float(np.abs(ker.kappa).max()))
    lines = [_csv_line(np.concatenate([box.points[i], box.points[j]]), ker.kappa[i, j])
             for i in range(box.size)
             for j in np.flatnonzero(np.abs(ker.kappa[i]) > cutoff)]
    return _csv_text(_columns("k", box.n) + _columns("l", box.n) + ["re", "im"], lines)
