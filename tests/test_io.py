"""The block-wise CSV writers against the per-row formatter in ``oracles``,
byte for byte, and the sequence reader's messages."""

import numpy as np
import pytest

from pdz import Kernel, LatticeBox, LatticeSequence, SymbolExpansion
from pdz import io as pdzio
from pdz import symbols
from pdz.errors import ConfigError

import helpers
import oracles

#: Values whose %.17g text is easy to get wrong: signed zero, the smallest
#: subnormal, and magnitudes near the ends of the double range.
SPECIAL = np.array([-0.0, 5e-324, 1e300, -1e300, -1e-300])

#: At least 15 points, for the specials; (2, 5) has two-digit node indices.
BOXES = [(1, 7), (2, 2), (3, 1), (2, 5), (3, 2)]


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


# ---------------------------------------------------------------------------
# the %.17g text built with numpy

#: Values whose text numpy's digits could get wrong: 1e23 (below the power of
#: ten it prints as), both ends of [1e16, 1e17), the ends of the double
#: range, short decimals, the ends of the fixed form, -0.0, exact rounding
#: ties, values next to the exponent range taken with numpy, non-finite ones.
EDGES = np.array([1e23, 1e16, 1e17, 9.999999999999999e16, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1e-5, 1e-4, 9.9999999999999995e-5, -0.0,
                  2.0**-25, 3 * 2.0**-25, 1e-280, 9.9999999999999999e279, 1e280,
                  123456789012345678.0, 12345678901234567.0, 0.5, 100.0,
                  np.inf, -np.inf, np.nan])


def _percent_lines(floats) -> str:
    return "".join(f"{'%.17g' % re},{'%.17g' % im}\n"
                   for re, im in np.reshape(floats, (-1, 2)).tolist())


def test_float_text_is_the_percent_text_of_random_bit_patterns():
    rng = np.random.default_rng(29)
    patterns = rng.integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
    floats = np.concatenate([patterns.view(float), EDGES, -EDGES, rng.standard_normal(2**16)])
    values = floats.view(complex)  # the bits of each pair, non-finite ones too
    text = pdzio._lines(np.zeros((len(values), 0), dtype=np.uint8), values).decode("ascii")
    assert text == _percent_lines(floats)


@pytest.mark.parametrize("cpus", [1, 4])
def test_writers_give_the_same_bytes_on_any_number_of_cpus(monkeypatch, cpus):
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    box, grid = helpers.box_and_grid(2, 5)
    sym = _symbol(box, grid, 5)
    helpers.force_block_rows(monkeypatch, 3, grid.size)  # 41 blocks
    assert pdzio.symbol_to_csv(sym) == oracles.symbol_csv(sym)
    expansion = SymbolExpansion([sym, _symbol(box, grid, 6)], [0.0, -1.0])
    assert pdzio.expansion_to_csv(expansion) == oracles.expansion_csv(expansion)
    f = LatticeSequence(box, sym.samples[:, 0].copy())
    helpers.force_block_rows(monkeypatch, 2, 1)
    assert pdzio.sequence_to_csv(f) == oracles.sequence_csv(f)
    ker = Kernel(box, sym.samples[:, :box.size].copy())
    assert pdzio.kernel_to_csv(ker) == oracles.kernel_csv(ker, pdzio.KERNEL_CSV_RELATIVE_THRESHOLD)


# ---------------------------------------------------------------------------
# reading sequences: one vectorized parse, the per-row messages on failure


def test_sequence_csv_read_round_trips_special_values(tmp_path):
    box, _ = helpers.box_and_grid(1, 7)
    f = LatticeSequence(box, _with_specials(helpers.random_sequence(
        box, np.random.default_rng(3)).values.copy()))
    pdzio.write_sequence_csv(f, tmp_path / "f.csv")
    back = pdzio.read_sequence_csv(tmp_path / "f.csv", box)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(np.signbit(back.values.real), np.signbit(f.values.real))
    assert np.array_equal(np.signbit(back.values.imag), np.signbit(f.values.imag))


def test_sequence_csv_read_accepts_any_row_order(tmp_path):
    box, _ = helpers.box_and_grid(2, 2)
    f = helpers.random_sequence(box, np.random.default_rng(4))
    header, *rows = pdzio.sequence_to_csv(f).splitlines()
    (tmp_path / "f.csv").write_text("\n".join([header] + rows[::-1] + [""]))
    assert np.array_equal(pdzio.read_sequence_csv(tmp_path / "f.csv", box).values, f.values)


def _read_error(tmp_path, text, box=None):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        pdzio.read_sequence_csv(path, box or LatticeBox(1, 1))
    return str(err.value).replace(f"{path}: ", "", 1)


_ROWS = "-1,1,0\n0,2,0\n1,3,0\n"  # the whole box n=1, N=1


def test_sequence_csv_read_header_message(tmp_path):
    assert (_read_error(tmp_path, "k,re,im\n" + _ROWS)
            == "header 'k,re,im' does not match 'k_1,re,im'")


@pytest.mark.parametrize("row, detail", [
    ("0,2", ""),
    ("0,2,0,0", ""),
    ("a,2,0", ": invalid literal for int() with base 10: 'a'"),
    ("0.0,2,0", ": invalid literal for int() with base 10: '0.0'"),
    ("0,2,x", ": could not convert string to float: 'x'"),
])
def test_sequence_csv_read_malformed_row_message(tmp_path, row, detail):
    text = "k_1,re,im\n-1,1,0\n" + row + "\n1,3,0\n"
    assert _read_error(tmp_path, text) == f"malformed row {row!r}{detail}"


def test_sequence_csv_read_outside_message(tmp_path):
    assert (_read_error(tmp_path, "k_1,re,im\n" + _ROWS + "2,4,0\n")
            == "point [2] outside the box (N=1)")
    assert (_read_error(tmp_path, "k_1,k_2,re,im\n0,-5,4,0\n", LatticeBox(2, 1))
            == "point [0, -5] outside the box (N=1)")
    assert (_read_error(tmp_path, "k_1,re,im\n" + _ROWS + "99999999999999999999,4,0\n")
            == "point [99999999999999999999] outside the box (N=1)")  # beyond int64
    assert (_read_error(tmp_path, "k_1,re,im\n" + _ROWS + "-9223372036854775808,4,0\n")
            == "point [-9223372036854775808] outside the box (N=1)")  # the int64 minimum


def test_sequence_csv_read_duplicate_message(tmp_path):
    assert (_read_error(tmp_path, "k_1,re,im\n" + _ROWS + "0,5,0\n")
            == "duplicate point [0]")


def test_sequence_csv_read_missing_message(tmp_path):
    assert _read_error(tmp_path, "k_1,re,im\n0,2,0\n") == "2 box points missing"
    assert _read_error(tmp_path, "k_1,re,im\n") == "3 box points missing"


def test_sequence_csv_read_reports_the_first_row_at_fault(tmp_path):
    # every later row is at fault too, each in another way
    faults = ["5,1,0", "0,0", "x,1,0", "-1,1,0"]
    assert (_read_error(tmp_path, "k_1,re,im\n-1,1,0\n" + "\n".join(faults) + "\n")
            == "point [5] outside the box (N=1)")
    assert (_read_error(tmp_path, "k_1,re,im\n-1,1,0\n" + "\n".join(faults[1:]) + "\n")
            == "malformed row '0,0'")
    assert (_read_error(tmp_path, "k_1,re,im\n-1,1,0\n" + "\n".join(faults[3:] + faults[:3]))
            == "duplicate point [-1]")
