"""Truncated lattice boxes, matched torus grids, and the data living on them.

All desk-scale computation runs on the cyclic group (Z/MZ)^n with M = 2N+1
odd, taking the box {-N..N}^n as the fundamental domain.  With M odd the
lattice sites biject with DFT frequencies (k <-> k mod M), so the transform
identities used throughout hold to roundoff instead of asymptotically.
Statements about the full lattice are probed by refining N.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatchError, NonFiniteValueError, ResourceLimitError

#: Hard cap on the number of box points a constructor will accept, read at
#: construction time.
POINT_CAP = 1 << 20


def require_memory(what: str, rows: int, cols: int) -> None:
    """Raise :class:`ResourceLimitError` before a (rows x cols) complex array
    larger than physical memory is built (no check without ``os.sysconf``)."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare
        return
    if 16 * rows * cols > physical:
        raise ResourceLimitError(
            f"{what}: {rows} x {cols} complex entries ({16 * rows * cols / 2**30:.1f} GiB), "
            f"above the {physical / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class LatticeBox:
    """The cyclic computational box {-N..N}^n.

    Attributes:
        n: dimension (>= 1).
        N: half-width per axis (>= 1); the box has M = 2N+1 points per axis.
    """

    n: int
    N: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise DomainMismatchError(f"dimension must be >= 1, got {self.n}")
        if int(self.N) < 1:
            raise DomainMismatchError(f"half-width must be >= 1, got {self.N}")
        if self.size > POINT_CAP:
            raise ResourceLimitError(
                f"box {self.shape} has {self.size} points, above the cap {POINT_CAP}"
            )

    @property
    def M(self) -> int:
        return 2 * self.N + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.n

    @property
    def size(self) -> int:
        return self.M**self.n

    @cached_property
    def points(self) -> np.ndarray:
        """(size, n) integer array of box points in lexicographic order."""
        axes = [np.arange(-self.N, self.N + 1)] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def norms(self) -> np.ndarray:
        """Euclidean |k| per box point."""
        return np.sqrt((self.points.astype(float) ** 2).sum(axis=-1))

    def matched_grid(self) -> "TorusGrid":
        return TorusGrid(self.n, self.M)

    def wrap(self, k: np.ndarray) -> np.ndarray:
        """Reduce integer vectors to the balanced representative in {-N..N}^n."""
        return (np.asarray(k) + self.N) % self.M - self.N

    def point(self, i: int) -> tuple[int, ...]:
        """Box point ``i`` as a tuple of Python ints, as errors and reports carry it."""
        return tuple(int(v) for v in self.points[i])

    def index_of(self, k: np.ndarray) -> np.ndarray:
        """Flat lexicographic index of box points (wrapped cyclically)."""
        k = self.wrap(np.asarray(k))
        idx = np.moveaxis(k + self.N, -1, 0)
        return np.ravel_multi_index(tuple(idx), self.shape)

    @cached_property
    def fft_indices(self) -> np.ndarray:
        """For each box point k (lex order), the flat index of k mod M.

        This is the column to read after an inverse FFT when a transform
        must be evaluated at the lattice point matching its own row.
        """
        idx = np.moveaxis(self.points % self.M, -1, 0)
        return np.ravel_multi_index(tuple(idx), self.shape)

    def _shaped_tail(self, values: np.ndarray) -> np.ndarray:
        """Unfold a trailing flat point axis into the box shape if needed."""
        if values.shape[-self.n:] != self.shape:
            values = values.reshape(values.shape[:-1] + self.shape)
        return values

    def to_fft_layout(self, values: np.ndarray) -> np.ndarray:
        """Re-index box-ordered trailing axes so position p holds the value at
        k = p mod M (the layout numpy's FFT expects)."""
        shaped = self._shaped_tail(values)
        axes = tuple(range(shaped.ndim - self.n, shaped.ndim))
        return np.fft.ifftshift(shaped, axes=axes)

    def from_fft_layout(self, values: np.ndarray) -> np.ndarray:
        shaped = self._shaped_tail(values)
        axes = tuple(range(shaped.ndim - self.n, shaped.ndim))
        return np.fft.fftshift(shaped, axes=axes)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of the n-torus with M nodes per axis, x_j = j/M.

    Quadrature weight is the uniform 1/M^n; quadrature is exact on
    trigonometric polynomials of per-axis degree <= M-1.
    """

    n: int
    M: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise DomainMismatchError(f"dimension must be >= 1, got {self.n}")
        if int(self.M) < 3 or self.M % 2 == 0:
            raise DomainMismatchError(f"points per axis must be odd and >= 3, got {self.M}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.n

    @property
    def size(self) -> int:
        return self.M**self.n

    @property
    def weight(self) -> float:
        return 1.0 / self.size

    @cached_property
    def nodes(self) -> np.ndarray:
        """(size, n) float array of grid nodes in C order of (j_1..j_n)."""
        axes = [np.arange(self.M) / self.M] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def node_indices(self) -> np.ndarray:
        axes = [np.arange(self.M)] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def node(self, j: int) -> tuple[float, ...]:
        """Grid node ``j`` as a tuple of Python floats, as errors and reports carry it."""
        return tuple(float(v) for v in self.nodes[j])

    def quadrature(self, values: np.ndarray) -> complex:
        """Uniform-weight quadrature of node samples (realizes the torus integral)."""
        return complex(np.sum(values) * self.weight)


def require_matched(box: LatticeBox, grid: TorusGrid) -> None:
    if box.n != grid.n or box.M != grid.M:
        raise DomainMismatchError(
            f"box (n={box.n}, M={box.M}) and grid (n={grid.n}, M={grid.M}) do not match"
        )


def require_finite(values: np.ndarray, what: str, witness: dict) -> np.ndarray:
    """``values`` if all finite, else :class:`NonFiniteValueError` "<what>
    non-finite at k=..., x=..." at the first non-finite entry: ``witness`` maps
    each axis' label to the point of an index; ``where`` holds those points."""
    finite = np.isfinite(values)
    if finite.all():
        return values
    points = tuple(point(int(i)) for point, i in zip(witness.values(), np.argwhere(~finite)[0]))
    named = ", ".join(f"{label}={p}" for label, p in zip(witness, points))
    raise NonFiniteValueError(f"{what} non-finite at {named}", where=points)


class LatticeSequence:
    """A complex-valued function on a box, stored flat in lexicographic order."""

    __slots__ = ("box", "values")

    def __init__(self, box: LatticeBox, values: np.ndarray):
        values = np.asarray(values, dtype=complex).reshape(-1)
        if values.size != box.size:
            raise DomainMismatchError(
                f"sequence has {values.size} entries, box has {box.size} points"
            )
        require_finite(values, "lattice sequence", {"k": box.point})
        self.box = box
        self.values = values

    @classmethod
    def zeros(cls, box: LatticeBox) -> "LatticeSequence":
        return cls(box, np.zeros(box.size, dtype=complex))

    @classmethod
    def delta(cls, box: LatticeBox, at=None) -> "LatticeSequence":
        """Kronecker delta at lattice point ``at`` (default: the origin)."""
        values = np.zeros(box.size, dtype=complex)
        k = np.zeros(box.n, dtype=int) if at is None else np.asarray(at, dtype=int)
        values[box.index_of(k)] = 1.0
        return cls(box, values)

    def __getitem__(self, k) -> complex:
        return complex(self.values[self.box.index_of(np.asarray(k, dtype=int))])

    def shifted(self, v) -> "LatticeSequence":
        """Cyclic translate k -> values at k + v."""
        shaped = self.values.reshape(self.box.shape)
        for axis, step in enumerate(np.asarray(v, dtype=int)):
            shaped = np.roll(shaped, -int(step), axis=axis)
        return LatticeSequence(self.box, shaped.ravel())

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


class TorusFunction:
    """A complex-valued function sampled on a torus grid, stored flat in C order."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex).reshape(-1)
        if values.size != grid.size:
            raise DomainMismatchError(
                f"function has {values.size} samples, grid has {grid.size} nodes"
            )
        require_finite(values, "torus function", {"x": grid.node})
        self.grid = grid
        self.values = values

    @classmethod
    def ones(cls, grid: TorusGrid) -> "TorusFunction":
        return cls(grid, np.ones(grid.size, dtype=complex))


def character_matrix(box: LatticeBox, grid: TorusGrid) -> np.ndarray:
    """(box.size, grid.size) matrix of e^{2*pi*i k.x} over box points and grid nodes."""
    require_matched(box, grid)
    require_memory("character matrix", box.size, grid.size)
    phases = box.points.astype(float) @ grid.nodes.T
    return np.exp(2j * np.pi * phases)
