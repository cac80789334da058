"""Definition-backed (streamed) symbols against array-backed ones: every pass
that evaluates row blocks on demand must give exactly the stored-array result,
and every row-blocked dense op exactly its full-array reference."""

import tracemalloc

import numpy as np
import pytest

from pdz import (LatticeBox, LatticeSequence, NonFiniteValueError, NotEllipticError,
                 SampledSymbol, SingularSymbolError, SymbolClassParams, SymbolDefinition,
                 apply, ellipticity_check, kernel, kernel_apply, kernel_decay_fit,
                 kernel_decay_fits, matrix, sample)
from pdz import io as pdzio
from pdz.solver import _row_scan, solve_dense
from pdz.symbols import ZERO_THRESHOLD, require_invertible

import helpers
import oracles

#: (n, N) per block setting: at the default size two blocks each, since
#: the symbol CSV has K x X rows; forced blocks on small boxes (K odd, so
#: two-row blocks leave a one-row remainder).
BOXES = {None: [(1, 150), (2, 9), (3, 3)], 1: [(1, 6), (2, 3), (3, 2)],
         2: [(1, 6), (2, 3), (3, 2)]}


def _elliptic(k, x):
    """(1+|k|) (2 + e^{2 pi i x_1}) + k_n cos(2 pi x_n)/4: elliptic of order 1,
    a trigonometric polynomial in x (so its kernel has few bands)."""
    kf = np.asarray(k, dtype=float)
    return ((1.0 + np.sqrt((kf**2).sum(axis=-1))) * (2.0 + np.exp(2j * np.pi * x[..., 0]))
            + kf[..., -1] * np.cos(2 * np.pi * x[..., -1]) / 4)


def _pair(n, N, evaluator=_elliptic):
    """The streamed symbol of ``evaluator`` and the array-backed one of a
    single evaluator call on the whole box x grid."""
    box, grid = helpers.box_and_grid(n, N)
    streamed = sample(SymbolDefinition(evaluator), box, grid)
    stored = SampledSymbol(box, grid, evaluator(box.points[:, None, :], grid.nodes[None, :, :]))
    return streamed, stored


@pytest.fixture(params=[None, 1, 2], ids=["default-blocks", "one-row-blocks", "two-row-blocks"])
def block_rows(request, monkeypatch):
    return lambda width: helpers.force_block_rows(monkeypatch, request.param, width)


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
def test_streamed_passes_equal_the_stored_array(monkeypatch, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    streamed, stored = _pair(n, N)
    assert streamed._samples is None  # several blocks: nothing evaluated yet
    f = helpers.random_sequence(box, np.random.default_rng(n))
    assert np.array_equal(apply(streamed, f).values, apply(stored, f).values)
    assert pdzio.kernel_to_csv(streamed) == pdzio.kernel_to_csv(kernel(stored))
    assert pdzio.symbol_to_csv(streamed) == pdzio.symbol_to_csv(stored)
    assert _row_scan(streamed)[1:] == _row_scan(stored)[1:]
    assert streamed._samples is None and streamed._kappa is None  # nothing (K x X) kept
    assert require_invertible(streamed, 1.0) == require_invertible(stored, 1.0)


def test_streamed_vanishing_symbol_has_the_stored_witness(block_rows):
    block_rows(helpers.box_and_grid(1, 300)[1].size)

    def vanishing(k, x):  # zero on the row k = 0, elliptic of order 1 away from it
        return np.asarray(k[..., 0], dtype=float) * (2.0 + np.exp(2j * np.pi * x[..., 0]))

    streamed, stored = _pair(1, 300, vanishing)
    errors = []
    for sym in (streamed, stored):
        with pytest.raises(SingularSymbolError) as err:
            require_invertible(sym, 1.0)
        errors.append((str(err.value), err.value.witness))
    assert errors[0] == errors[1]


def _rising(k, x):
    """Rows grow like 2^{k_1} along the block order, with a 1e-10 side band:
    early blocks keep side-band entries that the global cutoff drops."""
    scale = 2.0 ** np.asarray(k[..., 0], dtype=float)
    return scale * (1.0 + 1e-10 * np.exp(2j * np.pi * x[..., 0]))


@pytest.mark.parametrize("n,N", [(1, 300), (2, 16)])
def test_kernel_csv_when_the_running_peak_rises(n, N, block_rows):
    box, grid = helpers.box_and_grid(n, N)
    block_rows(grid.size)
    streamed, stored = _pair(n, N, _rising)
    rows, first = next(streamed.kappa_blocks())
    peak = float(np.abs(stored.kappa()).max())
    mags = np.abs(first)
    running = pdzio.KERNEL_CSV_RELATIVE_THRESHOLD * mags.max()
    final = pdzio.KERNEL_CSV_RELATIVE_THRESHOLD * peak
    assert rows.stop < box.size and mags.max() < peak
    assert ((mags > running) & (mags <= final)).any()  # kept by the block, dropped at the end
    text = pdzio.kernel_to_csv(streamed)
    assert text == pdzio.kernel_to_csv(kernel(stored))
    assert text == oracles.kernel_csv(kernel(stored), pdzio.KERNEL_CSV_RELATIVE_THRESHOLD)


def _infinite_at_k_1(k, x):
    kf = np.asarray(k[..., 0], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 / (kf - 1.0)) * np.exp(2j * np.pi * x[..., 0])


def test_non_finite_evaluator_raises_through_apply_and_samples(block_rows):
    box, grid = helpers.box_and_grid(1, 300)
    block_rows(grid.size)
    with pytest.raises(NonFiniteValueError) as err:
        SampledSymbol(box, grid, _infinite_at_k_1(box.points[:, None, :], grid.nodes[None, :, :]))
    expected = (str(err.value), err.value.where)
    assert expected[1][0] == (1,)
    streamed = sample(SymbolDefinition(_infinite_at_k_1), box, grid)  # nothing evaluated yet
    with pytest.raises(NonFiniteValueError) as err:
        apply(streamed, LatticeSequence.delta(box))
    assert (str(err.value), err.value.where) == expected
    with pytest.raises(NonFiniteValueError) as err:
        streamed.samples
    assert (str(err.value), err.value.where) == expected


def test_sample_evaluates_nothing():
    box, grid = helpers.box_and_grid(1, 4)
    calls = []

    def counted(k, x):
        calls.append(None)
        return _elliptic(k, x)

    assert sample(SymbolDefinition(counted), box, grid)._samples is None
    assert len(calls) == 0


def test_streamed_apply_holds_a_fraction_of_the_samples():
    box = LatticeBox(2, 16)
    grid = box.matched_grid()
    f = helpers.random_sequence(box, np.random.default_rng(0))
    tracemalloc.start()
    try:
        apply(sample(SymbolDefinition(_elliptic), box, grid), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < box.size * grid.size * 16 / 4


# ---------------------------------------------------------------------------
# row-blocked dense ops against the full (K x K) difference table

#: kernel_decay_fit needs N >= 8; the default-size boxes of BOXES have two
#: blocks, the forced-block ones keep the (K x K) arrays small.
DECAY_BOXES = {None: [(1, 150), (2, 9)], 1: [(1, 8), (2, 8)], 2: [(1, 8), (2, 8)]}


def _three(n, N, mu=1.0):
    """The streamed and stored symbols of :func:`_elliptic` declared of order
    mu, and a second stored copy whose kappa is cached."""
    streamed, stored = _pair(n, N)
    streamed.params = stored.params = SymbolClassParams(mu)
    cached = stored.with_samples(stored.samples)
    cached.kappa()
    return streamed, stored, cached


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
def test_blocked_matrix_and_kernel_apply_equal_the_full_table(monkeypatch, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    streamed, stored, cached = _three(n, N)
    expected = oracles.summation_matrix(cached.kappa(), box)
    for sym in (streamed, stored, cached):
        assert np.array_equal(matrix(sym).values, expected)
    assert streamed._samples is None and streamed._kappa is None and stored._kappa is None
    ker = kernel(cached)
    assert np.array_equal(ker.summation_matrix(), expected)
    f = helpers.random_sequence(box, np.random.default_rng(n))
    assert np.array_equal(kernel_apply(ker, f).values,
                          oracles.kernel_apply(cached.kappa(), f.values, box))


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(DECAY_BOXES))
def test_blocked_kernel_decay_fit_equals_the_full_table(monkeypatch, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    streamed, stored, cached = _three(n, N)
    for n_t in (0, 1, 3):
        constant, i, j = oracles.kernel_decay(cached.kappa(), box, 1.0, n_t)
        for sym in (streamed, stored, cached):
            values = kernel_decay_fit(sym, n_t).values
            assert values["constant"] == constant
            assert values["witness_k"] == [int(v) for v in box.points[i]]
            assert values["witness_m"] == [int(v) for v in box.points[j]]
    assert streamed._samples is None and streamed._kappa is None


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(DECAY_BOXES))
def test_one_kernel_pass_scores_every_decay_exponent(monkeypatch, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    passes = []
    kappa_blocks = SampledSymbol.kappa_blocks

    def counted(sym):
        passes.append(sym)
        return kappa_blocks(sym)

    monkeypatch.setattr(SampledSymbol, "kappa_blocks", counted)
    streamed, stored, cached = _three(n, N)
    passes.clear()
    for sym in (streamed, stored, cached):
        reports = kernel_decay_fits(sym, [0, 1, 3])
        assert [r.render() for r in reports] == [
            kernel_decay_fit(sym, n_t).render() for n_t in (0, 1, 3)]
        for rep, n_t in zip(reports, (0, 1, 3)):
            constant, i, j = oracles.kernel_decay(cached.kappa(), box, 1.0, n_t)
            assert rep.values["constant"] == constant
            assert rep.values["witness_k"] == [int(v) for v in box.points[i]]
            assert rep.values["witness_m"] == [int(v) for v in box.points[j]]
    # one pass per fits call, one per single fit
    assert [passes.count(sym) for sym in (streamed, stored, cached)] == [4, 4, 4]


@pytest.mark.parametrize("rows,n,N", helpers.block_cases(BOXES))
def test_blocked_ellipticity_check_equals_the_full_array(monkeypatch, rows, n, N):
    box, grid = helpers.box_and_grid(n, N)
    helpers.force_block_rows(monkeypatch, rows, grid.size)
    streamed, stored = _pair(n, N)
    for mu, m_cut in ((1.0, None), (0.5, 1)):
        constant, i, j = oracles.ellipticity(stored.samples, box, mu,
                                             max(1, N // 2) if m_cut is None else m_cut)
        for sym in (streamed, stored):
            rep = ellipticity_check(sym, mu, m_cut=m_cut)
            assert rep.constant == constant
            assert rep.witness_k == tuple(int(v) for v in box.points[i])
            assert rep.witness_x == tuple(float(v) for v in grid.nodes[j])
    smallest = oracles.smallest(stored.samples)[0]
    assert require_invertible(streamed, 1.0) == require_invertible(stored, 1.0) == smallest
    assert streamed._samples is None


def _ties(box, grid, value, rows, nodes):
    """|sigma| = 2 everywhere but ``value`` at (rows[t], nodes[t])."""
    samples = np.full((box.size, grid.size), 2.0 + 0j)
    samples[list(rows), list(nodes)] = value
    return SampledSymbol(box, grid, samples)


@pytest.mark.parametrize("block_rows_forced", [None, 1, 2])
def test_ellipticity_tie_across_blocks_keeps_the_first_row(monkeypatch, block_rows_forced):
    box, grid = helpers.box_and_grid(1, 150)
    helpers.force_block_rows(monkeypatch, block_rows_forced, grid.size)
    far = [r for r in range(box.size) if box.norms[r] >= box.N // 2]
    first, later = far[0], far[-1]  # in different blocks at every block size
    sym = _ties(box, grid, 1.0, (first, later), (3, 0))
    assert oracles.ellipticity(sym.samples, box, 0.0, box.N // 2)[1:] == (first, 3)
    rep = ellipticity_check(sym, 0.0)
    assert rep.ok is True and rep.constant == 1.0
    assert rep.witness_k == tuple(int(v) for v in box.points[first])
    assert rep.witness_x == (float(grid.nodes[3, 0]),)


@pytest.mark.parametrize("block_rows_forced", [None, 1, 2])
def test_require_invertible_raises_as_the_full_array_does(monkeypatch, block_rows_forced):
    box, grid = helpers.box_and_grid(1, 150)
    helpers.force_block_rows(monkeypatch, block_rows_forced, grid.size)
    near = [r for r in range(box.size) if box.norms[r] < box.N // 2]
    far = [r for r in range(box.size) if box.norms[r] >= box.N // 2]

    def witness(i, j):
        return tuple(int(v) for v in box.points[i]), tuple(float(v) for v in grid.nodes[j])

    # zeros on both sides of the cutoff: ellipticity fails first, at the far zero
    sym = _ties(box, grid, 0.0, (near[0], far[0], far[-1]), (5, 4, 1))
    _, i, j = oracles.ellipticity(sym.samples, box, 0.0, box.N // 2)
    with pytest.raises(NotEllipticError) as err:
        require_invertible(sym, 0.0)
    assert err.value.witness == witness(i, j) == witness(far[0], 4)
    # zeros below the cutoff only: elliptic, then singular at the first zero
    sym = _ties(box, grid, 0.0, (near[0], near[-1]), (5, 2))
    assert ellipticity_check(sym, 0.0).ok
    _, i, j = oracles.smallest(sym.samples)
    with pytest.raises(SingularSymbolError) as err:
        require_invertible(sym, 0.0)
    assert err.value.witness == witness(i, j) == witness(near[0], 5)
    assert oracles.smallest(sym.samples)[0] <= ZERO_THRESHOLD


def test_dense_solve_holds_the_matrix_and_its_lu_copy():
    box, grid = helpers.box_and_grid(1, 512)
    sym = sample(SymbolDefinition(_elliptic), box, grid)
    g = helpers.random_sequence(box, np.random.default_rng(0))
    assert sym._samples is None
    tracemalloc.start()
    try:
        report = solve_dense(sym, 1.0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.method == "dense-lu"
    assert peak < 2.5 * box.size**2 * 16
    assert sym._samples is None and sym._kappa is None
