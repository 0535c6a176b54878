"""Discretization substrate: the periodic torus [0,1)^n at resolution 2^J.

Conventions fixed here and relied on everywhere else:

* samples sit at x_i = i / 2^J per axis, row-major (C order) over axes;
* the quadrature weight is 2^{-nJ} per sample (midpoint rule), so discrete
  and continuous L^2 agree for band-limited functions;
* the dyadic cube Q_{j,k} is 2^{-j}(k + [0,1)^n), volume 2^{-nj}, and the
  sample x lies in Q_{j,k} iff k = floor(2^j x) componentwise;
* Fourier modes are indexed by integer frequency vectors m with
  |m_i| <= 2^{J-1}, and the angular frequency used by every multiplier is
  xi = 2*pi*m.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .errors import BandRangeError, GridMismatchError, ParameterError

_MAGIC = b"OSLT"
_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """Torus resolution: n axes, 2^J samples per axis, wavelet band [j_min, J)."""

    n: int
    J: int
    j_min: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"dimension n must be >= 1, got {self.n}")
        if not (0 <= self.j_min < self.J):
            raise ParameterError(
                f"need 0 <= j_min < J, got j_min={self.j_min}, J={self.J}"
            )

    @property
    def samples_per_axis(self) -> int:
        return 1 << self.J

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_axis,) * self.n

    @property
    def size(self) -> int:
        return self.samples_per_axis**self.n

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.n * self.J)

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.samples_per_axis) / self.samples_per_axis

    def frequencies(self) -> np.ndarray:
        """Integer frequencies per axis in FFT order (0, 1, ..., -1)."""
        N = self.samples_per_axis
        return np.fft.fftfreq(N, d=1.0 / N)

    def lattice_norm2(self) -> np.ndarray:
        """|m|^2 of every integer frequency vector, in FFT order on the grid
        shape; exact, since every entry is an integer below 2^53."""
        m2 = self.frequencies() ** 2
        total = m2
        for _ in range(self.n - 1):
            total = np.add.outer(total, m2)
        return total

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        ax = self.axis_coordinates()
        return np.meshgrid(*([ax] * self.n), indexing="ij")


class GridFunction:
    """Complex samples of a function on the torus, one value per grid node."""

    __slots__ = ("spec", "data")

    def __init__(self, spec: GridSpec, data: np.ndarray):
        data = np.asarray(data)
        if data.size != spec.size:
            raise GridMismatchError(
                f"expected {spec.size} samples for {spec}, got {data.size}"
            )
        self.spec = spec
        self.data = np.ascontiguousarray(data.reshape(spec.shape), dtype=complex)

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls(spec, np.zeros(spec.shape, dtype=complex))

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        return cls(spec, np.asarray(fn(*spec.meshgrid()), dtype=complex))

    @property
    def values(self) -> np.ndarray:
        """Row-major flat view of the samples."""
        return self.data.reshape(-1)

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.data.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.spec, self.data + other.data)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.spec, self.data - other.data)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.spec, self.data * other.data)
        return GridFunction(self.spec, self.data * other)

    __rmul__ = __mul__

    def _check(self, other: "GridFunction"):
        if other.spec != self.spec:
            raise GridMismatchError(f"grid mismatch: {self.spec} vs {other.spec}")


def _is_index(v) -> bool:
    """An integer, Python or numpy, that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Q_{j,k} = 2^{-j}(k + [0,1)^n)."""

    j: int
    k: tuple[int, ...]

    def __post_init__(self):
        if not _is_index(self.j) or self.j < 0:
            raise ParameterError(f"cube level must be an integer >= 0, got {self.j!r}")
        if not all(_is_index(ki) for ki in self.k):
            raise ParameterError(f"cube position {self.k!r} has a non-integer entry")
        if any(not (0 <= ki < (1 << self.j)) for ki in self.k):
            raise ParameterError(f"cube position {self.k} outside level {self.j}")

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def side(self) -> float:
        return 2.0**-self.j

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.n * self.j)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((ki + 0.5) * self.side for ki in self.k)


def cube_contains(outer: DyadicCube, inner: DyadicCube) -> bool:
    """True iff the point set of `inner` is a subset of `outer`.

    For dyadic cubes this is: inner is at least as fine, and its position
    truncates to the outer position.
    """
    if outer.n != inner.n:
        raise GridMismatchError("cubes of different dimension")
    if inner.j < outer.j:
        return False
    shift = inner.j - outer.j
    return all((ki >> shift) == ko for ki, ko in zip(inner.k, outer.k))


def enumerate_cubes(spec: GridSpec, j_lo: int, j_hi: int) -> Iterator[DyadicCube]:
    """All dyadic cubes with level in [j_lo, j_hi], in (j, k)-lexicographic order."""
    if not (spec.j_min <= j_lo <= j_hi < spec.J):
        raise BandRangeError(
            f"cube band [{j_lo}, {j_hi}] outside [{spec.j_min}, {spec.J - 1}]"
        )
    for j in range(j_lo, j_hi + 1):
        for flat in range((1 << j) ** spec.n):
            k = np.unravel_index(flat, (1 << j,) * spec.n)
            yield DyadicCube(j, tuple(int(v) for v in k))


def cube_sample_slices(spec: GridSpec, cube: DyadicCube) -> tuple[slice, ...]:
    """Index slices selecting the grid samples inside the cube."""
    w = 1 << (spec.J - cube.j)
    return tuple(slice(ki * w, (ki + 1) * w) for ki in cube.k)


@dataclass(frozen=True)
class TimeGrid:
    """Logarithmic midpoint rule for int ... dt/t on [t_min, t_max]."""

    t_min: float
    t_max: float
    L: int

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max < np.inf):
            raise ParameterError("need 0 < t_min < t_max < inf")
        if self.L < 1:
            raise ParameterError("need at least one node")

    @property
    def step(self) -> float:
        return np.log(self.t_max / self.t_min) / self.L

    def nodes(self) -> np.ndarray:
        h = self.step
        return self.t_min * np.exp((np.arange(self.L) + 0.5) * h)

    def weights(self) -> np.ndarray:
        return np.full(self.L, self.step)

    def log_edges(self) -> np.ndarray:
        return np.log(self.t_min) + np.arange(self.L + 1) * self.step


@cache
def flat_positions(j: int, n: int) -> np.ndarray:
    """(2^{nj}, n) array of the level-j position multi-indices in C order;
    built once per (j, n) and read-only."""
    grids = np.meshgrid(*([np.arange(1 << j)] * n), indexing="ij")
    out = np.stack([g.reshape(-1) for g in grids], axis=-1)
    out.setflags(write=False)
    return out


def min_image(diff: np.ndarray, period: float) -> np.ndarray:
    """Periodic minimal-image representative of diff modulo period."""
    return diff - np.round(diff / period) * period


def lp_norm(f: GridFunction, p: float) -> float:
    """(2^{-nJ} sum |f|^p)^{1/p}; max|f| for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.data))) if f.data.size else 0.0
    if p <= 0:
        raise ParameterError(f"p must be positive or inf, got {p}")
    return float(
        (f.spec.cell_volume * np.sum(np.abs(f.data) ** p)) ** (1.0 / p)
    )


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    f._check(g)
    return complex(f.spec.cell_volume * np.sum(f.data * np.conj(g.data)))


def rel_l2_error(f: GridFunction, g: GridFunction) -> float:
    denom = lp_norm(g, 2)
    if denom == 0:
        return lp_norm(f, 2)
    diff = GridFunction(f.spec, f.data - g.data)
    return lp_norm(diff, 2) / denom


# -- serialization ------------------------------------------------------------
# A binary file is magic 'OSLT', version u32, n u32, J u32, a flag byte (0/1
# a real/complex grid function, 2/3 see wavelet.write_coeff_field), then
# little-endian float64 (re, im) pairs in row-major order.  Readers check
# each size the header implies against the file before reading it.

def _write_header(fh, n: int, J: int, flag: int) -> None:
    fh.write(_MAGIC + struct.pack("<IIIB", _VERSION, n, J, flag))


def _remaining(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, size: int) -> bytes:
    if size > _remaining(fh):
        raise ParameterError("file is shorter than its header says")
    return fh.read(size)


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_header(fh, flags: tuple[int, ...]) -> tuple[int, int, int]:
    """(n, J, flag); at most 2^62 samples, so derived sizes stay small."""
    if fh.read(4) != _MAGIC:
        raise ParameterError(f"bad magic, expected {_MAGIC!r}")
    version, n, J, flag = _unpack(fh, "<IIIB")
    if version != _VERSION or flag not in flags or n * J > 62:
        raise ParameterError(f"unsupported header: version {version}, flag "
                             f"{flag} (expected {flags}), n={n}, J={J}")
    return n, J, flag


def _write_pairs(fh, arr: np.ndarray) -> None:
    flat = arr.reshape(-1)
    pairs = np.empty((flat.size, 2), dtype="<f8")
    pairs[:, 0] = flat.real
    pairs[:, 1] = flat.imag
    fh.write(pairs.tobytes())


def _read_pairs(fh, shape: tuple[int, ...]) -> np.ndarray:
    raw = np.frombuffer(_read_exact(fh, 16 * int(np.prod(shape))), dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise ParameterError("payload holds a non-finite value")
    return (raw[0::2] + 1j * raw[1::2]).reshape(shape)


def write_grid_function(f: GridFunction, path: str) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, f.spec.n, f.spec.J, int(np.any(f.values.imag != 0.0)))
        _write_pairs(fh, f.values)


def read_grid_function(path: str, j_min: int = 0) -> GridFunction:
    with open(path, "rb") as fh:
        n, J, _ = _read_header(fh, (0, 1))
        spec = GridSpec(n=n, J=J, j_min=j_min)
        if _remaining(fh) != 16 * spec.size:
            raise ParameterError("payload size does not match header")
        return GridFunction(spec, _read_pairs(fh, spec.shape))


def write_grid_function_csv(f: GridFunction, path: str) -> None:
    """CSV with one row per sample: index columns i0..i{n-1}, re, im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{a}" for a in range(f.spec.n)] + ["re", "im"])
        for flat, v in enumerate(f.values):
            idx = np.unravel_index(flat, f.spec.shape)
            writer.writerow([*map(int, idx), repr(float(v.real)), repr(float(v.imag))])


def read_grid_function_csv(path: str, spec: GridSpec) -> GridFunction:
    """Inverse of write_grid_function_csv: every sample exactly once, each
    index inside the grid, each value finite, in any row order."""
    n = spec.n
    data = np.zeros(spec.shape, dtype=complex)
    seen = np.zeros(spec.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) != n + 2:
            raise ParameterError("CSV column count does not match grid dimension")
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != n + 2:
                    raise ValueError(f"{len(row)} columns")
                idx = tuple(int(v) for v in row[:n])
                value = float(row[n]) + 1j * float(row[n + 1])
            except ValueError as exc:
                raise ParameterError(f"CSV line {line}: {exc}") from None
            if not np.isfinite(value):
                raise ParameterError(f"CSV line {line}: non-finite sample {value}")
            if not all(0 <= i < spec.samples_per_axis for i in idx):
                raise ParameterError(f"CSV line {line}: index {idx} outside the grid")
            if seen[idx]:
                raise ParameterError(f"CSV line {line}: duplicate index {idx}")
            seen[idx] = True
            data[idx] = value
    if not seen.all():
        raise ParameterError(f"CSV misses {int(np.sum(~seen))} of {spec.size} samples")
    return GridFunction(spec, data)
