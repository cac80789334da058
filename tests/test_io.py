"""The block-wise CSV writers against the per-row formatter in ``oracles``,
byte for byte."""

import numpy as np
import pytest

from pdz import Kernel, LatticeSequence, SymbolExpansion
from pdz import io as pdzio

import helpers
import oracles

#: Values whose %.17g text is easy to get wrong: signed zero, the smallest
#: subnormal, and magnitudes near the ends of the double range.
SPECIAL = np.array([-0.0, 5e-324, 1e300, -1e300, -1e-300])

BOXES = [(1, 7), (2, 2), (3, 1)]  # at least 15 points, for the specials


def _with_specials(values):
    flat = values.reshape(-1)
    m = len(SPECIAL)
    flat[:m] = SPECIAL + 1j * SPECIAL[::-1]
    flat[m:2 * m] = 1j * SPECIAL  # real part +0.0
    flat[2 * m:3 * m] = SPECIAL  # imaginary part +0.0
    return values


def _symbol(box, grid, seed):
    sym = helpers.random_symbol(box, grid, np.random.default_rng(seed))
    _with_specials(sym.samples)
    return sym


@pytest.fixture(params=[None, 2], ids=["default-blocks", "two-row-blocks"])
def block_rows(request, monkeypatch):
    """Two-row blocks leave a one-row remainder block on every (odd-sized) box."""
    if request.param is None:
        return lambda width: None
    return lambda width: helpers.force_block_rows(monkeypatch, request.param, width)


@pytest.mark.parametrize("n,N", BOXES)
def test_sequence_csv_matches_per_row_reference(n, N, block_rows):
    box, _ = helpers.box_and_grid(n, N)
    f = helpers.random_sequence(box, np.random.default_rng(n))
    f = LatticeSequence(box, _with_specials(f.values.copy()))
    block_rows(1)
    assert pdzio.sequence_to_csv(f) == oracles.sequence_csv(f)


@pytest.mark.parametrize("n,N", BOXES)
def test_symbol_csv_matches_per_row_reference(n, N, block_rows):
    box, grid = helpers.box_and_grid(n, N)
    sym = _symbol(box, grid, n)
    block_rows(grid.size)
    assert pdzio.symbol_to_csv(sym) == oracles.symbol_csv(sym)


@pytest.mark.parametrize("n,N", BOXES)
def test_expansion_csv_matches_per_row_reference(n, N, block_rows):
    box, grid = helpers.box_and_grid(n, N)
    expansion = SymbolExpansion([_symbol(box, grid, seed) for seed in range(3)],
                                [0.0, -1.0, -2.0])
    block_rows(grid.size)
    text = pdzio.expansion_to_csv(expansion)
    assert text == oracles.expansion_csv(expansion)
    assert text.count("\n") == 1 + 3 * box.size * grid.size


@pytest.mark.parametrize("n,N", BOXES)
def test_kernel_csv_matches_per_row_reference(n, N, block_rows):
    box, _ = helpers.box_and_grid(n, N)
    rng = np.random.default_rng(n)
    kappa = 0.1 * (rng.standard_normal((box.size, box.size))
                   + 1j * rng.standard_normal((box.size, box.size)))
    kappa[0, 0] = 4.0  # the peak
    cutoff = pdzio.KERNEL_CSV_RELATIVE_THRESHOLD * 4.0
    kappa[1, :3] = [cutoff, -cutoff, 1j * cutoff]  # at the cutoff: omitted
    kappa[1, 3] = 2 * cutoff  # above it: kept
    kappa[1, 4] = complex(-1.0, -0.0)
    kappa[2, :] = 0.0
    kappa[3, :3] = [-0.0, 5e-324, -1e-300]  # below the cutoff
    ker = Kernel(box, kappa)
    block_rows(box.size)
    text = pdzio.kernel_to_csv(ker)
    assert text == oracles.kernel_csv(ker, pdzio.KERNEL_CSV_RELATIVE_THRESHOLD)
    kept = {ln.rsplit(",", 2)[0] for ln in text.splitlines()[1:]}

    def entry(i, j):
        return ",".join(str(c) for c in [*box.points[i], *box.points[j]])

    assert kept.isdisjoint(entry(1, j) for j in range(3))
    assert entry(1, 3) in kept and entry(1, 4) in kept
    assert kept.isdisjoint(entry(2, j) for j in range(box.size))
    assert kept.isdisjoint(entry(3, j) for j in range(3))


@pytest.mark.parametrize("n,N", BOXES)
def test_zero_kernel_csv_is_the_header_alone(n, N, block_rows):
    box, _ = helpers.box_and_grid(n, N)
    ker = Kernel(box, np.zeros((box.size, box.size), dtype=complex))
    block_rows(box.size)
    header = ",".join([f"k_{i + 1}" for i in range(n)] + [f"l_{i + 1}" for i in range(n)])
    text = pdzio.kernel_to_csv(ker)
    assert text == header + ",re,im\n"
    assert text == oracles.kernel_csv(ker, pdzio.KERNEL_CSV_RELATIVE_THRESHOLD)
