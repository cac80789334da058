"""Shared fixture builders for the test suite."""

import ast

import numpy as np
import pytest

from pdz import LatticeBox, LatticeSequence, SampledSymbol, SymbolClassParams
from pdz import symbols


def random_sequence(box, rng, real=False):
    v = rng.standard_normal(box.size)
    if not real:
        v = v + 1j * rng.standard_normal(box.size)
    return LatticeSequence(box, v)


def random_symbol(box, grid, rng):
    s = rng.standard_normal((box.size, grid.size)) + 1j * rng.standard_normal(
        (box.size, grid.size))
    return SampledSymbol(box, grid, s)


def elliptic_symbol(n, N):
    """(2 + |k|^2)(1 + 0.3 e^{2 pi i x_1}) on the box of (n, N) and its matched
    grid, stored, elliptic of order 2."""
    box, grid = box_and_grid(n, N)
    wave = 1.0 + 0.3 * np.exp(2j * np.pi * grid.nodes[:, 0])
    return SampledSymbol(box, grid, np.outer(2.0 + box.norms**2, wave),
                         params=SymbolClassParams(2.0))


def separable_symbol(box, grid, k_profile, x_profile, mu=0.0):
    """sigma(k, x) = k_profile(|k| row values) * x_profile(node values)."""
    kvals = np.asarray(k_profile(box.points), dtype=complex)
    xvals = np.asarray(x_profile(grid.nodes), dtype=complex)
    return SampledSymbol(box, grid, np.outer(kvals, xvals),
                         params=SymbolClassParams(mu))


def multiplier_symbol(box, grid, x_profile, mu=0.0):
    vals = np.asarray(x_profile(grid.nodes), dtype=complex)
    return SampledSymbol(box, grid,
                         np.broadcast_to(vals, (box.size, grid.size)).copy(),
                         params=SymbolClassParams(mu))


def forward_diff_symbol(box, grid, axis=0):
    """sigma = e^{2 pi i x_axis} - 1, the first-difference operator's symbol."""
    return multiplier_symbol(box, grid,
                             lambda x: np.exp(2j * np.pi * x[:, axis]) - 1.0)


def shift_symbol(box, grid, axis=0):
    return multiplier_symbol(box, grid, lambda x: np.exp(2j * np.pi * x[:, axis]))


def example3_symbol(box, grid, a=1.0):
    """2i sum_j sin(2 pi x_j) + a."""
    def profile(x):
        out = np.zeros(x.shape[0], dtype=complex)
        for j in range(x.shape[1]):
            out = out + 2j * np.sin(2 * np.pi * x[:, j])
        return out + a
    return multiplier_symbol(box, grid, profile)


def weight_symbol(box, grid, s):
    """(1 + |k|)^s."""
    vals = (1.0 + box.norms) ** s
    return SampledSymbol(box, grid,
                         np.repeat(vals[:, None].astype(complex), grid.size, axis=1),
                         params=SymbolClassParams(float(s)))


def box_and_grid(n, N):
    box = LatticeBox(n, N)
    return box, box.matched_grid()


def force_block_rows(monkeypatch, rows, width):
    """Make the blocked passes over (K x width) arrays take ``rows`` rows at a
    time; ``rows=None`` keeps the default blocks."""
    if rows is not None:
        monkeypatch.setattr(symbols, "ROW_BLOCK_BYTES", 16 * width * rows)


def block_cases(boxes):
    """``(rows, n, N)`` parameters for each ``{rows: [(n, N), ...]}`` entry,
    with ids naming the block setting and n."""
    return [pytest.param(r, n, N, id=("default-blocks" if r is None else f"{r}-row-blocks")
                         + f"-n{n}") for r, sizes in boxes.items() for n, N in sizes]


def scoped(node, scope=""):
    """``(scope, node)`` for every node below ``node``, ``scope`` the dotted
    names of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from scoped(child, inner)
