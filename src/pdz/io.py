"""Delimited serialization of the package's data objects.

All CSV output is deterministic: fixed lexicographic row order, floats
printed as ``'%.17g' % v`` prints them (round-trip exact for doubles).  The
text of each block of rows is built with numpy (:func:`_lines`) on the
workers of :func:`~pdz.symbols.each_row_block`.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .calculus import SymbolExpansion
from .errors import ConfigError
from .grids import LatticeBox, LatticeSequence
from .quantize import Kernel
from .symbols import SampledSymbol, column_floor, each_row_block

#: Kernel CSV drops entries below this relative threshold (sparse output).
KERNEL_CSV_RELATIVE_THRESHOLD = 1e-14

# ---------------------------------------------------------------------------
# %.17g text with numpy
#
# For a finite x != 0 with decimal exponent E (10^E <= |x| < 10^(E+1)) the
# digits of %.17g are D = round(|x| 10^(16-E)), in [10^16, 10^17).  The
# scaled value is taken as hi + lo: 10^(16-E) is held as the double nearest
# to it plus the double nearest to the remainder, and |x| times the first is
# split error-free (Dekker, Numer. Math. 18, 1971), so hi + lo is within
# 1e-14 of the exact product.  Where it lies within _TIE_MARGIN of a
# half-integer (exact ties such as 2^-25 among them) or of 10^16 or 10^17,
# and where x is non-finite or its exponent out of range, the text is the
# one '%' gives.  The layout is %g's: the exponent form for E < -4 or
# E >= 17, trailing zeros dropped, at least two exponent digits, and the
# sign of -0.0.

_U = np.uint64
#: Veltkamp's constant 2^27 + 1: splits a double into two halves whose
#: products are exact.
_SPLIT = 134217729.0
#: Decimal exponents taken with numpy: 10^(16-E), its remainder and every
#: partial product stay normal doubles, one step beyond either end too.
_E_MIN, _E_MAX = -280, 280
_TIE_MARGIN = 1e-9
#: Bytes of one float in a line: the sign, the lead ``0.000`` of the fixed
#: form below 1, 18 bytes of digits and dot, the exponent ``e+ddd``, the
#: separator and two spare bytes.  Bytes left zero are dropped.
_SLOT, _SEP = 32, 29
#: Lines per chunk of :func:`_lines`: its temporaries hold 16384 floats
#: (128 KiB) each, few enough calls that two workers rarely wait on the GIL.
_CHUNK_LINES = 16384


def _ten_power(q: int) -> tuple[float, float]:
    """10^q as the double nearest to it and the double nearest to the
    remainder, from Python integers."""
    if q >= 0:
        hi = float(10**q)
        return hi, float(10**q - int(hi))
    den = 10**-q
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (den * two)


def _byte_masks(counts) -> np.ndarray:
    """(3, len(counts)) words: per count, its first bytes set in 24 bytes of
    little-endian text."""
    bits = np.clip(8 * np.asarray(counts) - np.array([[0], [64], [128]]), 0, 64)
    return (_U(1) << bits.astype(_U)) - _U(1)


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


@functools.cache
def _float_tables() -> dict:
    """Built on first use.  Per exponent E from _E_MIN - 1 to _E_MAX + 1:
    10^(16-E) and its remainder, the lead ``0.`` and zeros of the fixed form
    below 1, and the exponent suffix.  The text and the trailing zeros of
    each four-digit group 0..9999.  Per count 0..17, the mask of that many
    digits and the dot after them."""
    exps = range(_E_MIN - 1, _E_MAX + 2)
    powers = np.array([_ten_power(16 - e) for e in exps])
    group = np.arange(10000)
    masks = _byte_masks(range(18))
    dots = (_byte_masks(range(1, 19)) ^ masks) & _U(_word(b"." * 8))
    dots[:, 0] = 0  # no dot before the first digit
    return {
        "power": powers[:, 0].copy(), "remainder": powers[:, 1].copy(),
        "lead": np.array([_word(b"0." + b"0" * (-e - 1)) if -4 <= e < 0 else 0
                          for e in exps], dtype=_U),
        "suffix": np.array([0 if -4 <= e < 17 else _word(f"e{e:+03d}".encode())
                            for e in exps], dtype=_U),
        "group": sum((group // place % 10 + ord("0")) << 8 * i  # the thousands digit first
                     for i, place in enumerate((1000, 100, 10, 1))).astype(_U),
        "zeros": sum(group % place == 0 for place in (10, 100, 1000, 10000)),
        "masks": masks, "dots": dots,
    }


def _scaled(a: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)``: hi + lo = a 10^(16-E), E = index + _E_MIN - 1; hi the
    rounded product, lo its exact error plus a times the remainder."""
    tables = _float_tables()
    power, rest = np.take(tables["power"], index), np.take(tables["remainder"], index)
    halves = []
    for v in (a, power):
        c = _SPLIT * v
        high = c - (c - v)
        halves += [high, v - high]
    a_hi, a_lo, p_hi, p_lo = halves
    hi = a * power
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo + a * rest
    return hi, lo


def _outside(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step of E (-1, 0 or 1) that brings hi + lo into [10^16, 10^17),
    and where hi + lo is too near either end to tell."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    near = ((hi == 1e16) | (hi == 1e17)) & (np.abs(lo) < _TIE_MARGIN) & (lo != 0)
    return above.astype(np.int64) - below, near


def _float_slots(x: np.ndarray, slots: np.ndarray) -> None:
    """The %.17g text of each float of ``x`` into its row of ``slots``
    (zeroed uint8, (len(x), _SLOT)), all but the separator."""
    tables = _float_tables()
    a = np.abs(x)
    fast = (a >= 10.0**_E_MIN) & (a < 10.0**_E_MAX)
    a[~fast] = 1.0
    index = np.floor(np.log10(a)).astype(np.int64) - (_E_MIN - 1)
    hi, lo = _scaled(a, index)
    step, slow = _outside(hi, lo)
    fix = np.flatnonzero(step)
    if len(fix):  # log10 put E one off, next to a power of ten
        index[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(a[fix], index[fix])
        step[fix], slow[fix] = _outside(hi[fix], lo[fix])
    lo += 0.5
    up = np.floor(lo)
    lo -= up  # the fraction of hi + lo + 1/2
    slow |= (lo < _TIE_MARGIN) | (lo > 1 - _TIE_MARGIN) | (step != 0)
    digits = hi.astype(np.int64) + up.astype(np.int64)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    index += carry
    zero = ~fast  # 0 and -0 (with their sign); the slow ones are overwritten
    digits[zero], index[zero] = 0, 1 - _E_MIN
    # the 17 digits: a lead digit and four groups of four, in three words
    lead, rest = np.divmod(digits, 10**16)
    groups = [g for half in np.divmod(rest, 10**8) for g in np.divmod(half, 10**4)]
    text = [np.take(tables["group"], g) for g in groups]
    words = [lead.astype(_U) + _U(48) | text[0] << _U(8) | text[1] << _U(40),
             text[1] >> _U(24) | text[2] << _U(8) | text[3] << _U(40),
             text[3] >> _U(24)]
    zeros = 0
    for g in groups:
        zeros = np.take(tables["zeros"], g) + (g == 0) * zeros
    exponent = index + (_E_MIN - 1)
    fixed = (exponent >= -4) & (exponent < 17)
    point = np.where(fixed, exponent + 1, 1).clip(0)  # digits before the dot
    kept = np.maximum(17 - zeros, point)  # digits written
    dotted = point * (kept > point)
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    slots[:, 1:9].view(_U)[:, 0] = np.take(tables["lead"], index)
    carried = _U(0)
    for i, word in enumerate(words):  # the digits after the dot move up a byte
        before = word & np.take(tables["masks"][i], point)
        after = (word & np.take(tables["masks"][i], kept)) ^ before
        slots[:, 6 + 8 * i:14 + 8 * i].view(_U)[:, 0] = (
            before | after << _U(8) | carried | np.take(tables["dots"][i], dotted))
        carried = after >> _U(56)
    slots[:, 24:32].view(_U)[:, 0] = np.take(tables["suffix"], index)
    for i in np.flatnonzero(fast & slow | ~fast & (x != 0)):
        text = ("%.17g" % x[i]).encode()
        slots[i] = 0
        slots[i, 1:1 + len(text)] = np.frombuffer(text, dtype=np.uint8)


def _lines(prefix: np.ndarray, values: np.ndarray) -> bytes:
    """The CSV lines of the complex ``values``: ``prefix[i]``, re, a comma,
    im and a newline each; ``prefix`` (len(values), w) uint8 holds the text
    of the integer columns, padded with zero bytes."""
    width, parts = prefix.shape[1], []
    for start in range(0, len(values), _CHUNK_LINES):
        rows = slice(start, start + _CHUNK_LINES)
        chunk = values[rows]
        line = np.zeros((len(chunk), width + 2 * _SLOT), dtype=np.uint8)
        line[:, :width] = prefix[rows]
        for part, at, sep in ((chunk.real, width, ","), (chunk.imag, width + _SLOT, "\n")):
            _float_slots(part, line[:, at:at + _SLOT])
            line[:, at + _SEP] = ord(sep)
        parts.append(line[line != 0].tobytes())
    return b"".join(parts)


def _text_table(texts: list[str]) -> np.ndarray:
    """(len(texts), w) uint8: each text padded with zero bytes to the longest."""
    return np.array([t.encode() for t in texts]).view(np.uint8).reshape(len(texts), -1)


def _int_columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(n)]


def _texts(ints: np.ndarray, lead: str = "") -> np.ndarray:
    """Each row of an integer array as CSV text behind ``lead``, every field
    followed by a comma, each field padded with zero bytes: the fields are
    looked up in the :func:`_text_table` of every integer in their range."""
    low = int(ints.min(initial=0))
    fields = _text_table([f"{v}," for v in range(low, int(ints.max(initial=0)) + 1)])
    head = _text_table([lead])
    return np.concatenate([np.broadcast_to(head, (len(ints), head.shape[1])),
                           fields[ints - low].reshape(len(ints), -1)], axis=1)


def _blocks_text(count: int, width: int, block) -> list[str]:
    """The text of ``block(items)`` = ``(prefix, values)`` for each slice of
    :func:`~pdz.symbols.row_blocks` over ``count`` items of ``width``
    complex entries, built on the pass's workers, in item order."""
    parts = {}

    def build(items: slice) -> None:
        parts[items.start] = _lines(*block(items)).decode("ascii")
    each_row_block(build, count, width)
    return [parts[start] for start in sorted(parts)]


def _csv(columns: list[str], parts: list[str]) -> str:
    return "".join([",".join(columns) + "\n", *parts])


def sequence_to_csv(f: LatticeSequence) -> str:
    points = _texts(f.box.points)
    return _csv(_int_columns("k", f.box.n) + ["re", "im"],
                _blocks_text(f.box.size, 1, lambda rows: (points[rows], f.values[rows])))


def write_sequence_csv(f: LatticeSequence, path) -> None:
    Path(path).write_text(sequence_to_csv(f))


def read_sequence_csv(path, box: LatticeBox) -> LatticeSequence:
    """Read a sequence CSV: every row is parsed at once and mapped with one
    :meth:`LatticeBox.index_of`; a file that fails is re-read row by row for
    the first row at fault, in file order."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty sequence file")
    expected = ",".join(_int_columns("k", box.n) + ["re", "im"])
    if lines[0].strip() != expected:
        raise ConfigError(f"{path}: header {lines[0]!r} does not match {expected!r}")
    rows, n = lines[1:], box.n
    cells = [ln.split(",") for ln in rows]
    if any(len(c) != n + 2 for c in cells):
        raise _first_row_at_fault(path, rows, box)
    try:
        columns = list(zip(*cells)) or [()] * (n + 2)
        points = np.array([list(map(int, c)) for c in columns[:n]], dtype=np.int64)
        points = points.T.reshape(len(rows), n)
        values = np.empty(len(rows), dtype=complex)
        values.real, values.imag = list(map(float, columns[n])), list(map(float, columns[n + 1]))
    except (ValueError, OverflowError):
        raise _first_row_at_fault(path, rows, box) from None
    if ((points < -box.N) | (points > box.N)).any():  # abs would wrap at -2**63
        raise _first_row_at_fault(path, rows, box)
    idx = box.index_of(points)
    counts = np.bincount(idx, minlength=box.size)
    if (counts > 1).any():
        raise _first_row_at_fault(path, rows, box)
    if not counts.all():
        raise ConfigError(f"{path}: {int((counts == 0).sum())} box points missing")
    out = np.zeros(box.size, dtype=complex)
    out[idx] = values
    return LatticeSequence(box, out)


def _first_row_at_fault(path, rows: list[str], box: LatticeBox) -> ConfigError:
    """The error of the first malformed, outside or repeated row."""
    seen = set()
    for ln in rows:
        cols = ln.split(",")
        if len(cols) != box.n + 2:
            return ConfigError(f"{path}: malformed row {ln!r}")
        try:
            point = [int(c) for c in cols[: box.n]]
            float(cols[box.n]), float(cols[box.n + 1])
        except ValueError as exc:
            return ConfigError(f"{path}: malformed row {ln!r}: {exc}")
        if any(abs(c) > box.N for c in point):
            return ConfigError(f"{path}: point {point} outside the box (N={box.N})")
        if tuple(point) in seen:
            return ConfigError(f"{path}: duplicate point {point}")
        seen.add(tuple(point))
    raise AssertionError("no row at fault")


def _symbol_text(sym: SampledSymbol, lead: str = "") -> list[str]:
    """The symbol CSV's lines, ``lead`` ahead of each: per k row of a block,
    the point's text, then each node's text and value; each worker
    evaluates the rows of its own blocks."""
    points, nodes = _texts(sym.box.points, lead), _texts(sym.grid.node_indices)
    cut = points.shape[1]

    def block(rows):
        values = sym.block(rows)
        prefix = np.empty(values.shape + (cut + nodes.shape[1],), dtype=np.uint8)
        prefix[..., :cut] = points[rows, None]
        prefix[..., cut:] = nodes
        return prefix.reshape(values.size, -1), values.ravel()
    return _blocks_text(sym.box.size, sym.grid.size, block)


def _symbol_columns(sym: SampledSymbol) -> list[str]:
    return _int_columns("k", sym.box.n) + _int_columns("j", sym.grid.n) + ["re", "im"]


def symbol_to_csv(sym: SampledSymbol) -> str:
    return _csv(_symbol_columns(sym), _symbol_text(sym))


def expansion_to_csv(expansion: SymbolExpansion) -> str:
    """The terms' symbol CSVs in one table, behind a leading ``term`` column
    (the term's index in the expansion)."""
    return _csv(["term"] + _symbol_columns(expansion.terms[0]),
                [part for idx, term in enumerate(expansion.terms)
                 for part in _symbol_text(term, f"{idx},")])


def _kernel_pass(source: Kernel | SampledSymbol):
    """``(columns, blocks)``: the columns of kappa that the kernel CSV reads
    and ``(rows, kappa[rows][:, columns])`` over its row blocks.  A symbol
    with separated factors reads the columns whose
    :meth:`~pdz.symbols.SampledSymbol.kappa_bound` exceeds the cutoff of a
    lower bound of the peak (:func:`~pdz.symbols.column_floor`); the
    others can neither pass the cutoff nor hold the peak.  Every other
    source reads all columns."""
    bound = source.kappa_bound() if isinstance(source, SampledSymbol) else None
    if bound is None:
        return np.arange(source.box.size), source.kappa_blocks()
    floor = column_floor(bound, source.kappa_blocks,
                         lambda rows, block, columns: float(np.abs(block).max()),
                         lambda b, peak: b <= KERNEL_CSV_RELATIVE_THRESHOLD * peak)
    columns = np.flatnonzero(bound > KERNEL_CSV_RELATIVE_THRESHOLD * floor)
    return columns, source.kappa_blocks(columns)


def kernel_to_csv(source: Kernel | SampledSymbol) -> str:
    """Sparse kernel rows ``k_1..k_n, l_1..l_n, re, im`` in lexicographic
    order; entries below the relative magnitude threshold are omitted.

    One pass over the row blocks of the columns of kappa that
    :func:`_kernel_pass` reads: each block keeps its entries above the
    threshold times the running peak, a superset of the final ones, and one
    filter at the end applies the cutoff of the global peak.  A symbol's row
    transform is computed block by block and not cached."""
    box, K = source.box, source.box.size
    columns, blocks = _kernel_pass(source)
    peak, kept = 1e-300, []
    for rows, block in blocks:
        mags = np.abs(block).ravel()
        peak = max(peak, float(mags.max(initial=0.0)))  # no column read: an empty block
        flat = np.flatnonzero(mags > KERNEL_CSV_RELATIVE_THRESHOLD * peak)
        i, j = np.divmod(flat, len(columns))
        kept.append(((rows.start + i) * K + columns[j], block.ravel()[flat], mags[flat]))
    flat, values, mags = (np.concatenate(part) for part in zip(*kept))
    keep = mags > KERNEL_CSV_RELATIVE_THRESHOLD * peak
    flat, values = flat[keep], values[keep]
    points = _texts(box.points)

    def block(entries):
        i, j = np.divmod(flat[entries], K)
        return np.concatenate([points[i], points[j]], axis=1), values[entries]
    return _csv(_int_columns("k", box.n) + _int_columns("l", box.n) + ["re", "im"],
                _blocks_text(len(flat), 1, block))
