"""Independent reference implementations the library is checked against.

Everything here is direct summation with explicitly built phase matrices (or
stencil arithmetic), deliberately avoiding the FFT code paths under test; the
serial calculus at the end calls numpy's FFT on whole arrays, never the
library's row-blocked transforms.
"""

import numpy as np

from pdz import symbols
from pdz.symbols import multi_factorial, multi_indices_below, multi_indices_of_degree, x_reflect


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


def falling_multiplier(grid, beta):
    """Multiplier of D^(beta) of shape ``grid.shape``: the outer product over
    axes i of l (l-1) ... (l-beta_i+1), l the integer FFT frequencies."""
    freqs = np.rint(np.fft.fftfreq(grid.M) * grid.M).astype(int)
    out = np.ones(())
    for b in beta:
        out = np.multiply.outer(out, falling_factorial(freqs, b))
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


# ---------------------------------------------------------------------------
# dense ops through the full (K x K) difference table, all rows at once


def difference_table(box):
    """table[i, j] = box index of points[i] - points[j], wrapped cyclically."""
    return box.index_of(box.points[:, None, :] - box.points[None, :, :])


def summation_matrix(kappa, box):
    """K(k, m) = kappa(k, k - m), gathered through the full table."""
    return kappa[np.arange(box.size)[:, None], difference_table(box)]


def kernel_apply(kappa, f_values, box):
    """sum_l kappa(k, l) f(k - l) over the full table."""
    return (kappa * f_values[difference_table(box)]).sum(axis=1)


def kernel_decay(kappa, box, mu, n_t):
    """(constant, row, column) of the first maximum of
    |K(k, m)| (1+|k|)^-mu (1+|k-m|)^(2 n_t) over |k - m| <= N."""
    dist = box.norms[difference_table(box)]
    weights = ((1.0 + box.norms) ** (-mu))[:, None] * (1.0 + dist) ** (2 * n_t)
    masked = np.where(dist <= box.N, np.abs(summation_matrix(kappa, box)) * weights, 0.0)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return float(masked[i, j]), int(i), int(j)


def ellipticity(samples, box, mu, m_cut):
    """(constant, row, node) of the first minimum of |sigma| (1+|k|)^-mu
    over the rows with |k| >= m_cut."""
    weighted = np.abs(samples) * ((1.0 + box.norms) ** (-mu))[:, None]
    rows = np.flatnonzero(box.norms >= m_cut)
    i, j = np.unravel_index(int(np.argmin(weighted[rows])), (rows.size, samples.shape[1]))
    return float(weighted[rows[i], j]), int(rows[i]), int(j)


def smallest(samples):
    """(|sigma|, row, node) of the first minimum of |sigma|."""
    i, j = np.unravel_index(int(np.argmin(np.abs(samples))), samples.shape)
    return float(np.abs(samples[i, j])), int(i), int(j)


# ---------------------------------------------------------------------------
# lattice differences by whole-array rolls


def lattice_difference(values, alpha, axes=None):
    """Delta^alpha on an array whose lattice axes are ``axes`` (one per entry
    of alpha; default the leading ones): each first difference a cyclic roll
    of the whole array minus the array.  Returns ``values`` itself when
    alpha = 0."""
    for axis, a in zip(range(len(alpha)) if axes is None else axes, alpha):
        for _ in range(a):
            rolled = np.roll(values, -1, axis=axis)
            rolled -= values
            values = rolled
    return values


# ---------------------------------------------------------------------------
# weighted shifts: closed-form truncations of series that do not end
#
# D^(i) e^{-2 pi i x} = (-1)^i i! e^{-2 pi i x}, so every term of the series
# of a weighted shift a(k) e^{-+2 pi i x_j} is one power of -Delta_j


def _alternating_differences(values, j, order):
    """sum_{i < order} (-Delta_j)^i ``values``, Delta_j the cyclic first
    difference along lattice axis j."""
    acc, term = values.copy(), values
    for _ in range(1, order):
        term = -lattice_difference(term, (1,), (j,))
        acc += term
    return acc


def shift_compose(a, tau, box, grid, j, order):
    """Samples of the order-``order`` truncation of compose(sigma, tau) for
    sigma = a(k) e^{-2 pi i x_j}: a e^{-2 pi i x_j} sum_{i < order} (-Delta_j)^i tau,
    ``a`` the values a(k) in box order and ``tau`` the (K x X) samples."""
    out = _alternating_differences(tau.reshape(box.shape + (grid.size,)), j, order)
    out = out.reshape(box.size, grid.size)
    out *= np.exp(-2j * np.pi * grid.nodes[:, j])
    out *= a[:, None]
    return out


def shift_dual(a, box, grid, j, order):
    """Samples of the order-``order`` truncation of adjoint(sigma), a real, and
    of transpose(sigma) for sigma = a(k) e^{2 pi i x_j}:
    sum_{i < order} (-Delta_j)^i a . e^{-2 pi i x_j}."""
    k_part = _alternating_differences(a.reshape(box.shape), j, order).reshape(box.size)
    return np.outer(k_part, np.exp(-2j * np.pi * grid.nodes[:, j]))


# ---------------------------------------------------------------------------
# x-derivatives by one n-axis round trip


def x_derivative(sym, beta, factor):
    """Samples of the x-derivative of ``sym`` whose multiplier along grid
    axis i is ``factor(l, beta_i)``, l the integer frequencies: one n-axis FFT
    of the whole (K x X) samples, times the grid-shaped product of the axis
    multipliers, and one n-axis inverse FFT."""
    grid = sym.grid
    freqs = np.rint(np.fft.fftfreq(grid.M) * grid.M)
    multiplier = np.ones(())
    for b in beta:
        multiplier = np.multiply.outer(multiplier, factor(freqs, b))
    return _serial_inverse(_serial_spectrum(sym.samples, grid), grid, multiplier)


# ---------------------------------------------------------------------------
# serial calculus: every expansion term on the whole (K x X) array, one numpy
# FFT call per x-transform; the library's blocked passes must agree bit for bit
# with the one-axis derivative trees, and to roundoff with the n-axis ones


def _serial_spectrum(values, grid):
    return np.fft.fftn(values.reshape(values.shape[:-1] + grid.shape),
                       axes=tuple(range(-grid.n, 0)))


def _serial_inverse(spec, grid, multiplier=1.0):
    out = np.fft.ifftn(spec * multiplier, axes=tuple(range(-grid.n, 0)))
    return out.reshape(spec.shape[:-grid.n] + (grid.size,))


def _serial_product_terms(spec, right, grid, alphas):
    for alpha in alphas:
        term = _serial_inverse(spec, grid, falling_multiplier(grid, alpha))
        term *= lattice_difference(right, alpha)
        term /= multi_factorial(alpha)
        yield term


def _tree_path(alpha):
    """The (axis, entry) steps from 0 to alpha, one per nonzero entry: sorted by
    them, the alpha come in depth-first order of the one-axis derivative tree."""
    return [(i, a) for i, a in enumerate(alpha) if a]


def _serial_circulant(grid, a):
    """The M x M matrix of D^(a) along one axis: the circulant whose column k
    is the inverse FFT of the multiplier l (l-1) ... (l-a+1), cycled by k."""
    freqs = np.rint(np.fft.fftfreq(grid.M) * grid.M).astype(int)
    column = np.fft.ifft(falling_factorial(freqs, a))
    return column[(np.arange(grid.M)[:, None] - np.arange(grid.M)) % grid.M]


def _serial_along(values, matrix, grid, i):
    """``matrix`` along grid axis i of ``values`` (..., grid.size) by numpy's
    stacked matmul, each product taking s lines of the axis as the library
    stacks them (s a power of M, M*M*s at most ``symbols._SERIAL_PRODUCT``),
    so the entries come out bit for bit."""
    M, after = grid.M, grid.M ** (grid.n - 1 - i)
    lines = after if after > 1 else M ** (grid.n - 1)
    while lines > 1 and M * M * lines > symbols._SERIAL_PRODUCT:
        lines //= M
    if after > 1:
        slabs = values.reshape(-1, M, after // lines, lines).transpose(0, 2, 1, 3)
        return np.matmul(matrix, slabs).transpose(0, 2, 1, 3).reshape(values.shape)
    return np.matmul(values.reshape(-1, lines, M), matrix.T).reshape(values.shape)


def _serial_falling(values, grid, high):
    """``(alpha, D^(alpha)_x values)`` for |alpha| <= high on the whole array:
    alpha with last nonzero entry alpha_i is its parent (alpha_i set to 0)
    under D^(alpha_i) along grid axis i, in depth-first order.  On a grid of
    at most ``symbols.CIRCULANT_AXIS_MAX`` points per axis that is the
    circulant of :func:`_serial_circulant`; else numpy's one-axis inverse FFT
    of the parent's one-axis FFT times the multiplier."""
    n, shape = grid.n, values.shape[:-1] + grid.shape
    nodes, spectra = {(0,) * n: values.reshape(shape)}, {}
    for alpha in sorted(multi_indices_below(n, high + 1), key=_tree_path):
        if any(alpha):
            i, a = _tree_path(alpha)[-1]
            parent = alpha[:i] + (0,) + alpha[i + 1:]
            step = tuple(a if axis == i else 0 for axis in range(n))
            if grid.M <= symbols.CIRCULANT_AXIS_MAX:
                nodes[alpha] = _serial_along(nodes[parent], _serial_circulant(grid, a), grid, i)
            else:
                if (parent, i) not in spectra:
                    spectra[parent, i] = np.fft.fft(nodes[parent], axis=i - n)
                nodes[alpha] = np.fft.ifft(spectra[parent, i] * falling_multiplier(grid, step),
                                           axis=i - n)
        yield alpha, nodes[alpha].reshape(values.shape)


def _serial_term(deriv, right, alpha):
    # the difference is the first operand: complex multiplication need not
    # give the same bits with its operands swapped
    term = np.multiply(lattice_difference(right, alpha), deriv)
    term /= multi_factorial(alpha)
    return term


def serial_compose(sigma, tau, order):
    """Samples of sum_{|alpha| < order} (1/alpha!) D^(alpha)_x sigma . Delta^alpha_k tau,
    the terms added in the order of :func:`_serial_falling`."""
    box, grid = sigma.box, sigma.grid
    left, right = (s.samples.reshape(box.shape + (grid.size,)) for s in (sigma, tau))
    acc = left * right
    for alpha, deriv in _serial_falling(left, grid, order - 1):
        if any(alpha):
            acc += _serial_term(deriv, right, alpha)
    return acc.reshape(box.size, grid.size)


def serial_compose_fftn(sigma, tau, order):
    """:func:`serial_compose` with every D^(alpha) one n-axis inverse FFT of the
    left factor's n-axis spectrum."""
    box, grid = sigma.box, sigma.grid
    left, right = (s.samples.reshape(box.shape + (grid.size,)) for s in (sigma, tau))
    spec = _serial_spectrum(left, grid)
    acc = left * right
    for term in _serial_product_terms(spec, right, grid, multi_indices_below(box.n, order)[1:]):
        acc += term
    return acc.reshape(box.size, grid.size)


def _serial_dual(samples, box, grid, order):
    spec = _serial_spectrum(samples, grid).reshape(box.shape + grid.shape)
    acc = spec.copy()
    for alpha in multi_indices_below(box.n, order)[1:]:
        term = lattice_difference(spec, alpha)
        term *= falling_multiplier(grid, alpha) / multi_factorial(alpha)
        acc += term
    return _serial_inverse(acc, grid).reshape(box.size, grid.size)


def serial_adjoint(sigma, order):
    return _serial_dual(np.conj(sigma.samples), sigma.box, sigma.grid, order)


def serial_transpose(sigma, order):
    return _serial_dual(x_reflect(sigma).samples, sigma.box, sigma.grid, order)


def serial_parametrix(terms, order):
    """Samples of B_0 .. B_{order-1} of the parametrix recursion for the
    expansion ``terms`` (A_0, A_1, ...): each final B_j subtracts its terms
    (1/gamma!) D^(gamma) B_j . Delta^gamma A_l, in the order of
    :func:`_serial_falling` and then of l, from the sums of B_{j+l+|gamma|}."""
    box, grid = terms[0].box, terms[0].grid
    lower = [t.samples.reshape(box.shape + (grid.size,)) for t in terms]
    inv_leading = 1.0 / lower[0]
    b_terms = [inv_leading] + [np.zeros_like(inv_leading) for _ in range(1, order)]
    for j in range(order - 1):
        for gamma, deriv in _serial_falling(b_terms[j], grid, order - 1 - j):
            for ldx, a_l in enumerate(lower):
                m = j + ldx + sum(gamma)
                if j < m < order:
                    b_terms[m] -= _serial_term(deriv, a_l, gamma)
        b_terms[j + 1] *= inv_leading
    return [b.reshape(box.size, grid.size) for b in b_terms]


def serial_parametrix_fftn(terms, order):
    """:func:`serial_parametrix` with every D^(gamma) one n-axis inverse FFT of
    an n-axis spectrum, each B_m summed over its (j, l, gamma) at once."""
    box, grid = terms[0].box, terms[0].grid
    shape = box.shape + (grid.size,)
    lower = [t.samples.reshape(shape) for t in terms]
    inv_leading = 1.0 / lower[0]
    b_terms, specs = [inv_leading], []
    for m in range(1, order):
        specs.append(_serial_spectrum(b_terms[-1], grid))
        acc = np.zeros_like(inv_leading)
        for jdx in range(m):
            for ldx in range(min(m - jdx + 1, len(lower))):
                for term in _serial_product_terms(specs[jdx], lower[ldx], grid,
                                                  multi_indices_of_degree(box.n, m - jdx - ldx)):
                    acc -= term
        acc *= inv_leading
        b_terms.append(acc)
    return [b.reshape(box.size, grid.size) for b in b_terms]


def serial_amplitude_reduction(amp, box, grid, order):
    """Samples of sum_{|alpha| < order} (1/alpha!) Delta^alpha_l D^(alpha)_x a(k, l, x)|_{l=k}
    from the whole (K x K x X) tensor of the amplitude: every term taken on the
    tensor's spectrum and read on its diagonal l = k."""
    K = box.size
    tensor = np.asarray(amp.evaluator(box.points[:, None, None, :], box.points[None, :, None, :],
                                      grid.nodes[None, None, :, :]), dtype=complex)
    tensor = np.broadcast_to(tensor, (K, K, grid.size))
    spec = _serial_spectrum(tensor, grid).reshape((K,) + box.shape + grid.shape)
    diag = np.arange(K)
    acc = np.zeros((K,) + grid.shape, dtype=complex)
    for alpha in multi_indices_below(box.n, order):
        work = lattice_difference(spec, alpha, range(1, 1 + box.n))
        acc += work.reshape((K, K) + grid.shape)[diag, diag] * (
            falling_multiplier(grid, alpha) / multi_factorial(alpha))
    return _serial_inverse(acc, grid)
