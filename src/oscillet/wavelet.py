"""Periodized tensor-product orthonormal wavelet bases on the torus.

Two families:

* Meyer: built entirely in the discrete frequency domain.  The one-axis
  windows are the classical pair (scaling window, detail window with the
  half-sample phase); tensor types eps in {0,1}^n pick the window per axis.
  Detail levels run over j_min <= j <= J-2 so that the finest annulus
  (|m| <= (4/3) 2^j per axis) stays strictly below the Nyquist frequency
  2^{J-1}; the construction is then exact on the grid and the periodized
  family is orthonormal to rounding error.

* Daubechies: periodic filter-bank cascade from frozen standard filter
  coefficients (consumed, not derived).  The cascade is an exactly
  orthonormal transform of the sample vector scaled by 2^{-nJ/2}; detail
  levels run over j_min <= j <= J-1.

A coefficient field stores one dense array per (eps, j) detail block plus
the scaling block at j_min, which matches how every norm in this package
consumes coefficients.

Each Meyer block has one cached `_WindowPlan`, and every block of every
transform (analysis, synthesis, the scaling coefficients and the P_j / Q_j
projections) runs on its plan's support only: analysis reads the spectrum
at the band support (the union of the plans' supports), multiplies by
conj(W) there and folds; synthesis multiplies the block's FFT, read mod
2^j, by W there and adds into a +0 accumulator on the support.  Both are
bit for bit the full-grid expressions.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    BandRangeError,
    BasisConstructionError,
    GridMismatchError,
    IndexOutOfBandError,
    ParameterError,
)
from .grid import (
    GridFunction,
    GridSpec,
    TimeGrid,
    _read_exact,
    _read_header,
    _read_pairs,
    _remaining,
    _unpack,
    _write_header,
    _write_pairs,
)

TWO_PI = 2.0 * np.pi
# Bytes of one stack of grid functions in every batched evaluation (the
# level-batched oscillation norm, heat evolution, frame synthesis, tent
# parts I/II): 16 rows of 2^10 complex samples, one row of a 2-d J=7 grid.
CHUNK_BYTES = 1 << 18


def chunk_rows(width: int) -> int:
    """Rows of `width` complex values in one chunk: as many as fit in
    CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (16 * width))


# -- transition profiles -------------------------------------------------------

def polynomial_profile(x: np.ndarray) -> np.ndarray:
    """nu(x) = x^4 (35 - 84x + 70x^2 - 20x^3); C^3 matching, nu(x)+nu(1-x)=1."""
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))


def smooth_profile(x: np.ndarray) -> np.ndarray:
    """C-infinity profile a(x)/(a(x)+a(1-x)) with a(x) = exp(-1/x) on x > 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        ax = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        bx = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return ax / (ax + bx)


PROFILES = {"polynomial": polynomial_profile, "smooth": smooth_profile}


class MeyerWindow:
    """The one-axis window pair on the frequency line.

    psi0 is 1 on |xi| <= 2pi/3, supported in |xi| <= 4pi/3, even, in [0,1];
    omega = sqrt(psi0(xi/2)^2 - psi0(xi)^2) lives on 2pi/3 <= |xi| <= 8pi/3;
    psi1 = omega(xi) exp(-i xi / 2).
    """

    def __init__(self, profile: str = "polynomial"):
        if profile not in PROFILES:
            raise ParameterError(f"unknown profile {profile!r}")
        self.profile_name = profile
        self._nu = PROFILES[profile]

    def psi0(self, xi: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(xi, dtype=float))
        out = np.zeros_like(a)
        out[a <= TWO_PI / 3] = 1.0
        trans = (a > TWO_PI / 3) & (a < 2 * TWO_PI / 3)
        out[trans] = np.cos(
            0.5 * np.pi * self._nu(3.0 * a[trans] / TWO_PI - 1.0)
        )
        return out

    def omega(self, xi: np.ndarray) -> np.ndarray:
        diff = self.psi0(np.asarray(xi) / 2.0) ** 2 - self.psi0(xi) ** 2
        return np.sqrt(np.maximum(diff, 0.0))

    def psi1(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.omega(xi) * np.exp(-0.5j * xi)

    def axis_window(self, bit: int, xi: np.ndarray) -> np.ndarray:
        return self.psi1(xi) if bit else self.psi0(xi).astype(complex)


# -- index set and coefficient container ---------------------------------------

@dataclass(frozen=True)
class WaveletIndex:
    eps: tuple[int, ...]
    j: int
    k: tuple[int, ...]


@cache
def detail_types(n: int) -> tuple[tuple[int, ...], ...]:
    """E_n = {0,1}^n minus the all-zero type, in lexicographic order; built
    once per n."""
    return tuple(e for e in product((0, 1), repeat=n) if any(e))


class CoeffField:
    """Dense-per-level wavelet coefficients: detail blocks plus one scaling block.

    The blocks may carry leading batch axes (a stack from `analyze_stack`).
    A field on a time grid `tg` (the heat lift a^eps_{j,k}(t) of one
    function) has exactly one, of length tg.L, and `beta` names the
    semigroup exponent that produced it (None when unknown).  `c[ell]` and
    `c[start:stop]` are views of rows of the leading axis, and `c[ells]`
    (an index array) copies of them, without the time grid."""

    def __init__(self, spec: GridSpec, family: str, j_min: int, j_max: int,
                 tg: TimeGrid | None = None, beta: float | None = None):
        self.spec = spec
        self.family = family
        self.j_min = j_min
        self.j_max = j_max
        self.tg = tg
        self.beta = beta
        lead = () if tg is None else (tg.L,)
        self.detail: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        for j in range(j_min, j_max + 1):
            shape = lead + (1 << j,) * spec.n
            for eps in detail_types(spec.n):
                self.detail[(eps, j)] = np.zeros(shape, dtype=complex)
        self.scaling = np.zeros(lead + (1 << j_min,) * spec.n, dtype=complex)

    @property
    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading axes of a stacked or time field; () for one function."""
        return self.scaling.shape[:self.scaling.ndim - self.spec.n]

    @classmethod
    def _from_blocks(cls, spec: GridSpec, family: str, j_min: int, j_max: int,
                     detail: dict, scaling: np.ndarray,
                     tg: TimeGrid | None = None,
                     beta: float | None = None) -> "CoeffField":
        """A field holding the given blocks, detail (a mapping (eps, j) ->
        block) in the band's (j, eps) order, without allocating zeros."""
        out = cls.__new__(cls)
        out.spec, out.family, out.j_min, out.j_max = spec, family, j_min, j_max
        out.tg, out.beta = tg, beta
        out.detail = {(eps, j): detail[(eps, j)] for j in range(j_min, j_max + 1)
                      for eps in detail_types(spec.n)}
        out.scaling = scaling
        return out

    @classmethod
    def stack(cls, fields: Sequence["CoeffField"]) -> "CoeffField":
        """The fields, one band and no leading axes, as the rows of one
        stacked field (copies)."""
        first = fields[0]
        for other in fields[1:]:
            first._check(other)
        return cls._from_blocks(
            first.spec, first.family, first.j_min, first.j_max,
            {key: np.array([f.detail[key] for f in fields]) for key in first.detail},
            np.array([f.scaling for f in fields]))

    def _derive(self, fn, scaling: np.ndarray, tg: TimeGrid | None) -> "CoeffField":
        """A field with this one's band and beta, the detail blocks
        fn(eps, j, block) and the given scaling block and time grid."""
        return CoeffField._from_blocks(
            self.spec, self.family, self.j_min, self.j_max,
            {key: fn(*key, arr) for key, arr in self.detail.items()},
            scaling, tg, self.beta)

    def __getitem__(self, rows) -> "CoeffField":
        """Row ell (an int) or rows start:stop (a slice) of the leading axis,
        as views, or the rows of an index array, as copies."""
        if not self.batch_shape:
            raise ParameterError("a field without a leading axis has no rows")
        return self._derive(lambda eps, j, arr: arr[rows], self.scaling[rows], None)

    def map_detail(self, fn) -> "CoeffField":
        """fn(eps, j, block) -> new block; scaling copied through."""
        return self._derive(fn, self.scaling.copy(), self.tg)

    def copy(self) -> "CoeffField":
        return self.map_detail(lambda eps, j, arr: arr.copy())

    def zeros_like(self) -> "CoeffField":
        return self._derive(lambda eps, j, arr: np.zeros_like(arr),
                            np.zeros_like(self.scaling), self.tg)

    def scaled(self, factor: complex) -> "CoeffField":
        return self._derive(lambda eps, j, arr: arr * factor,
                            self.scaling * factor, self.tg)

    def __add__(self, other: "CoeffField") -> "CoeffField":
        self._check(other)
        out = self.copy()
        for key in out.detail:
            out.detail[key] += other.detail[key]
        out.scaling += other.scaling
        return out

    def _check(self, other: "CoeffField"):
        if (other.spec, other.j_min, other.j_max) != (self.spec, self.j_min, self.j_max):
            raise GridMismatchError("coefficient fields on different bands")

    def _block(self, idx: WaveletIndex) -> np.ndarray:
        """The block holding idx; IndexOutOfBandError unless eps, j and k
        name an index of the band."""
        n = self.spec.n
        block = self.scaling if (idx.eps, idx.j) == ((0,) * n, self.j_min) \
            else self.detail.get((idx.eps, idx.j))
        if block is None or len(idx.k) != n or not all(
                isinstance(v, (int, np.integer)) and 0 <= v < 1 << idx.j for v in idx.k):
            raise IndexOutOfBandError(idx)
        return block

    def get(self, idx: WaveletIndex) -> complex:
        return complex(self._block(idx)[idx.k])

    def set(self, idx: WaveletIndex, value: complex) -> None:
        self._block(idx)[idx.k] = value

    def energy(self) -> float:
        """sum |coeff|^2 over every stored index (Parseval partner of L^2)."""
        total = float(np.sum(np.abs(self.scaling) ** 2))
        for arr in self.detail.values():
            total += float(np.sum(np.abs(arr) ** 2))
        return total

    def max_abs(self) -> float:
        vals = [np.max(np.abs(self.scaling))] if self.scaling.size else []
        vals += [np.max(np.abs(a)) for a in self.detail.values() if a.size]
        return float(max(vals)) if vals else 0.0


# -- Meyer basis ---------------------------------------------------------------

def _check_stack(spec: GridSpec, data: np.ndarray) -> None:
    if data.shape[data.ndim - spec.n:] != spec.shape:
        raise GridMismatchError(
            f"stack of shape {data.shape} does not end in the grid shape {spec.shape}")


def _fold(arr: np.ndarray, L: int, n: int) -> np.ndarray:
    """Fold an FFT-ordered array onto residues mod L along its last n axes."""
    lead = arr.shape[:arr.ndim - n]
    N = arr.shape[-1]
    reshaped = arr.reshape(lead + sum(((N // L, L),) * n, ()))
    b = len(lead)
    return reshaped.sum(axis=tuple(range(b, b + 2 * n, 2)))


def _fft_last(a: np.ndarray, n: int, inverse: bool = False) -> np.ndarray:
    """np.fft.fftn (ifftn) over the last n axes, bit for bit: numpy's own
    loop of 1-d transforms, last axis first, without its per-call argument
    handling."""
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in range(-1, -n - 1, -1):
        a = transform(a, axis=axis)
    return a


@dataclass(frozen=True)
class _WindowPlan:
    """One (eps, j) block of the Meyer transform on the FFT grid, for both
    directions.

    `window` is the tensor window W and L = 2^j the fold's bucket count.
    `support` holds the flat FFT indices where W is nonzero, `residue` their
    flat indices mod L on the (L,)^n grid, `conj` conj(W) and `synth`
    2^{-nj/2} W there.  Analysis multiplies F by `conj` on the support and
    folds; synthesis multiplies the block's FFT, read at `residue`, by
    `synth` and adds the products into the support.  Outside the support
    the full-grid products are +-0, and neither the fold's buckets nor the
    synthesis accumulator (both start at +0) ever hold -0, so leaving those
    terms out changes no bit.  `coefficients` and `add_synthesis` are the
    two directions.

    For the fold, `support` is grouped by rank: a term's rank is its place
    in flat order among the nonzero terms of its fold bucket, and `passes`
    lists the (buckets, terms) pairs that add the products into the
    buckets, rank after rank: a rank whose buckets form at most two runs of
    consecutive buckets adds by slices, another by one index array.  Adding
    the ranks in turn adds each bucket's terms in flat order, the order of
    the full grid's reshape-sum for L >= 2 (numpy adds the reduced axes
    elementwise, outermost first).  For L = 1 numpy sums the one bucket
    pairwise, which is that order only for at most two terms; such a block
    with more terms keeps `support` in flat order and `passes` None, and
    folds the full grid it scatters the products into."""

    window: np.ndarray
    L: int
    support: np.ndarray
    residue: np.ndarray
    conj: np.ndarray
    synth: np.ndarray
    passes: tuple[tuple[slice | np.ndarray, slice], ...] | None

    @classmethod
    def build(cls, W: np.ndarray, L: int) -> "_WindowPlan":
        W.flags.writeable = False
        n = W.ndim
        support = np.flatnonzero(W)
        residues = tuple(axis % L for axis in np.unravel_index(support, W.shape))
        bucket = np.ravel_multi_index(residues, (L,) * n)
        passes = None
        if L > 1 or len(support) <= 2:
            by_bucket = np.argsort(bucket, kind="stable")
            first = np.searchsorted(bucket[by_bucket], bucket[by_bucket])
            rank = np.empty_like(by_bucket)
            rank[by_bucket] = np.arange(len(support)) - first
            order = np.argsort(rank, kind="stable")
            support, bucket = support[order], bucket[order]
            stops = np.cumsum(np.bincount(rank)).tolist()
            passes = []
            for a, b in zip([0, *stops[:-1]], stops):
                breaks = (np.flatnonzero(np.diff(bucket[a:b]) != 1) + 1 + a).tolist()
                if len(breaks) > 1:
                    passes.append((bucket[a:b], slice(a, b)))
                    continue
                for lo, hi in zip([a, *breaks], [*breaks, b]):
                    start = int(bucket[lo])
                    passes.append((slice(start, start + hi - lo), slice(lo, hi)))
            passes = tuple(passes)
        j = L.bit_length() - 1
        # the scaled window on the full grid, then read at the support: the
        # full-grid synthesis term's factor there
        synth = (2.0 ** (-n * j / 2.0) * W).reshape(-1)[support]
        return cls(W, L, support, bucket, np.conj(W.reshape(-1)[support]),
                   synth, passes)

    def fold_support(self, Fs: np.ndarray) -> np.ndarray:
        """_fold(F * conj(W), L, n) bit for bit, from F read at `support`
        (Fs: leading axes, then the support)."""
        W, L, n = self.window, self.L, self.window.ndim
        # one multiply over the whole support: numpy may round a complex
        # product in a one-element loop differently
        prod = Fs * self.conj
        lead = prod.shape[:-1]
        if self.passes is None:
            full = np.zeros(lead + (W.size,), dtype=prod.dtype)
            full[..., self.support] = prod
            return _fold(full.reshape(lead + W.shape), L, n)
        out = np.zeros(lead + (L ** n,), dtype=prod.dtype)
        for buckets, terms in self.passes:
            out[..., buckets] += prod[..., terms]
        return out.reshape(lead + (L,) * n)

    def coefficients(self, Fs: np.ndarray) -> np.ndarray:
        """The block's coefficients from spectra read at `support` (Fs:
        leading axes, then the support): 2^{nj/2} times the inverse FFT of
        the fold."""
        n, j = self.window.ndim, self.L.bit_length() - 1
        return 2.0 ** (n * j / 2.0) * _fft_last(self.fold_support(Fs), n,
                                                 inverse=True)

    def add_synthesis(self, F: np.ndarray, c: np.ndarray) -> None:
        """Add the block's Fourier term 2^{-nj/2} W * FFT(c), its FFT read
        mod 2^j, into F (leading axes, then the flat grid) on the support;
        c holds the block's coefficients with the same leading axes."""
        n = self.window.ndim
        C = _fft_last(c, n).reshape(c.shape[:c.ndim - n] + (-1,))
        F[..., self.support] += self.synth * np.take(C, self.residue, axis=-1)


class _Basis:
    """What both families share: the detail band and single basis functions."""

    @property
    def detail_levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def detail_type_list(self) -> tuple[tuple[int, ...], ...]:
        return detail_types(self.spec.n)

    def basis_function(self, idx: WaveletIndex) -> GridFunction:
        c = CoeffField(self.spec, self.family, self.j_min, self.j_max)
        c.set(idx, 1.0)
        return self.synthesize(c)


class MeyerBasis(_Basis):
    """Periodized tensor Meyer basis, realized as per-level frequency multipliers."""

    family = "meyer"

    def __init__(self, spec: GridSpec, profile: str = "polynomial"):
        if spec.J < spec.j_min + 2:
            raise BasisConstructionError(
                f"Meyer band needs J >= j_min + 2 (finest annulus below Nyquist); "
                f"got J={spec.J}, j_min={spec.j_min}"
            )
        self.spec = spec
        self.window = MeyerWindow(profile)
        self.j_min = spec.j_min
        self.j_max = spec.J - 2
        m = spec.frequencies()
        # one-axis windows per level, FFT order
        self._w0 = {
            j: self.window.axis_window(0, TWO_PI * m / (1 << j))
            for j in range(self.j_min, self.j_max + 2)
        }
        self._w1 = {
            j: self.window.axis_window(1, TWO_PI * m / (1 << j))
            for j in range(self.j_min, self.j_max + 1)
        }
        self._plans: dict[tuple, _WindowPlan] = {}
        self._band_plan = None

    def _plan(self, eps, j: int) -> _WindowPlan:
        """The cached plan of block (eps, j), built on first use."""
        key = (tuple(eps), j)
        plan = self._plans.get(key)
        if plan is None:
            axes = [self._w1[j] if bit else self._w0[j] for bit in key[0]]
            W = axes[0]
            for w in axes[1:]:
                W = np.multiply.outer(W, w)
            plan = self._plans[key] = _WindowPlan.build(W, 1 << j)
        return plan

    def _tensor_window(self, eps: tuple[int, ...], j: int) -> np.ndarray:
        """The tensor window of block (eps, j), read-only and cached."""
        return self._plan(eps, j).window

    def band_support(self) -> np.ndarray:
        """The sorted flat FFT indices where some block's window, the
        scaling block's at j_min included, is nonzero: the only frequencies
        `analyze` reads."""
        return self._band()[0]

    def _band(self):
        """band_support() and, per block in `analyze_stack` order, its key,
        its plan and the positions of the plan's support in the band; built
        once."""
        if self._band_plan is None:
            n = self.spec.n
            keys = [(eps, j) for j in self.detail_levels
                    for eps in self.detail_type_list()]
            keys.append(((0,) * n, self.j_min))
            plans = [self._plan(eps, j) for eps, j in keys]
            # the sorted union through a mask: np.unique would import
            # numpy.ma (about 1 MB) into every process that analyzes
            hit = np.zeros(self.spec.size, dtype=bool)
            hit[np.concatenate([plan.support for plan in plans])] = True
            band = np.flatnonzero(hit)
            where = [np.searchsorted(band, plan.support) for plan in plans]
            self._band_plan = (band, list(zip(keys, plans, where)))
        return self._band_plan

    def _coeffs_from_band(self, Fb: np.ndarray):
        """Yield ((eps, j), coefficients) of every block, scaling block last,
        from spectra read at band_support() (Fb: leading axes, then the
        band)."""
        for key, plan, where in self._band()[1]:
            yield key, plan.coefficients(np.take(Fb, where, axis=-1))

    def fourier(self, f: GridFunction) -> np.ndarray:
        if f.spec != self.spec:
            raise GridMismatchError("grid function does not match basis grid")
        return _fft_last(f.data, self.spec.n) / self.spec.size

    def from_fourier(self, F: np.ndarray) -> GridFunction:
        return GridFunction(self.spec, _fft_last(F, self.spec.n, inverse=True)
                            * self.spec.size)

    def analyze(self, f: GridFunction) -> CoeffField:
        if f.spec != self.spec:
            raise GridMismatchError("grid function does not match basis grid")
        return self.analyze_stack(f.data)

    def analyze_stack(self, data: np.ndarray) -> CoeffField:
        """Analyze every grid function in `data` (leading batch axes, possibly
        none, then the grid shape) with one batched FFT, read at the band
        support, and one fold and inverse FFT per block; the blocks carry
        the same leading axes.  A bare grid gets the bits of the same grid
        as a batch of one."""
        n = self.spec.n
        _check_stack(self.spec, data)
        lead = data.shape[:data.ndim - n]
        Fb = np.take(_fft_last(data, n).reshape(lead + (-1,)), self.band_support(),
                     axis=-1)
        Fb /= self.spec.size
        blocks = dict(self._coeffs_from_band(Fb))
        scaling = blocks.pop(((0,) * n, self.j_min))
        return CoeffField._from_blocks(self.spec, self.family, self.j_min,
                                       self.j_max, blocks, scaling)

    def synthesize(self, c: CoeffField) -> GridFunction:
        return GridFunction(self.spec, self.synthesize_stack(c))

    def synthesize_stack(self, c: CoeffField) -> np.ndarray:
        """Samples of every field of a stacked c (leading batch axes, possibly
        none, then the grid shape), one batched transform per block, each
        added on its window's support only: bit for bit the full-grid sum of
        the blocks' Fourier terms, block by block.  An all-zero block is
        skipped; one that is zero in some rows only adds exact zeros there,
        which leaves those rows' bits unchanged."""
        if c.spec != self.spec or c.j_min != self.j_min or c.j_max != self.j_max:
            raise IndexOutOfBandError("coefficient field does not match basis band")
        n = self.spec.n
        F = np.zeros(c.batch_shape + (self.spec.size,), dtype=complex)
        blocks = list(c.detail.items()) + [(((0,) * n, self.j_min), c.scaling)]
        for (eps, j), arr in blocks:
            if np.any(arr):
                self._plan(eps, j).add_synthesis(F, arr)
        return _fft_last(F.reshape(c.batch_shape + self.spec.shape), n,
                         inverse=True) * self.spec.size

    def scaling_coefficients(self, f: GridFunction, j: int) -> np.ndarray:
        """<f, Phi^0_{j,k}> for all k at one level (levels up to j_max + 1)."""
        if not (self.j_min <= j <= self.j_max + 1):
            raise BandRangeError(f"scaling level {j} outside [{self.j_min}, {self.j_max + 1}]")
        plan = self._plan((0,) * self.spec.n, j)
        return plan.coefficients(self.fourier(f).reshape(-1)[plan.support])

    def project(self, f: GridFunction, j: int, kind: str) -> GridFunction:
        """P_j (scaling space at level j) or Q_j (detail space at level j):
        each block's coefficients, synthesized into one spectrum."""
        F = self.fourier(f).reshape(-1)
        if kind == "P":
            if not (self.j_min <= j <= self.j_max + 1):
                raise BandRangeError(f"P level {j} outside [{self.j_min}, {self.j_max + 1}]")
            types = [(0,) * self.spec.n]
        elif kind == "Q":
            if not (self.j_min <= j <= self.j_max):
                raise BandRangeError(f"Q level {j} outside [{self.j_min}, {self.j_max}]")
            types = self.detail_type_list()
        else:
            raise ParameterError(f"kind must be 'P' or 'Q', got {kind!r}")
        G = np.zeros_like(F)
        for eps in types:
            plan = self._plan(eps, j)
            plan.add_synthesis(G, plan.coefficients(F[plan.support]))
        return self.from_fourier(G.reshape(self.spec.shape))

    def band_cap(self) -> int:
        """Largest |m| per axis on which the truncated ladder resolves exactly."""
        return (1 << (self.j_max + 1)) // 3

    def band_limit(self, f: GridFunction) -> GridFunction:
        """Restrict f to frequencies the basis reproduces exactly (round-trip safe)."""
        F = self.fourier(f)
        m = self.spec.frequencies()
        keep = np.abs(m) <= self.band_cap()
        mask = keep
        for _ in range(self.spec.n - 1):
            mask = np.multiply.outer(mask, keep)
        return self.from_fourier(F * mask)


# -- Daubechies basis ----------------------------------------------------------

# Standard orthonormal lowpass filters (minimal phase), sum h = sqrt(2).
DAUBECHIES_FILTERS = {
    2: [0.48296291314453414, 0.8365163037378079, 0.22414386804201338,
        -0.12940952255126038],
    3: [0.3326705529500826, 0.8068915093110926, 0.4598775021184916,
        -0.1350110200102546, -0.08544127388202666, 0.035226291885709536],
    4: [0.2303778133088965, 0.7148465705529156, 0.6308807679298589,
        -0.027983769416859854, -0.18703481171909308, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032],
    6: [0.11154074335010946, 0.4946238903984531, 0.7511339080210954,
        0.3152503517091976, -0.22626469396543982, -0.12976686756726194,
        0.09750160558732305, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614961, 0.004777257510945511, -0.0010773010853084796],
    8: [0.05441584224310401, 0.31287159091429997, 0.6756307362972898,
        0.5853546836542067, -0.015829105256349306, -0.2840155429615469,
        0.00047248457391328277, 0.12874742662047846, -0.017369301001807546,
        -0.04408825393079475, 0.013981027917398282, 0.008746094047405777,
        -0.004870352993451574, -0.0003917403733769470, 0.0006754494064505694,
        -0.00011747678412476953],
}


def _dwt_stack(a: np.ndarray, filt: np.ndarray, axis: int) -> np.ndarray:
    """Periodic convolution-decimation along grid axis `axis` of a (rows,) +
    grid stack: out[..., l, ...] = sum_m filt[m] a[..., 2l+m, ...]."""
    w = np.moveaxis(a, axis + 1, 1)
    (B, M), L = w.shape[:2], len(filt)
    idx = (2 * np.arange(M // 2)[:, None] + np.arange(L)[None, :]) % M
    # Each row keeps the layout np.tensordot(filt, row[idx], axes=(0, 1)) gives
    # it, so np.matmul makes the row's own BLAS call: bit for bit the same.
    if w.size == B * M:     # nothing trails the axis: column-major (L, K)
        bt = np.ascontiguousarray(w.reshape(B, M)[:, idx]).transpose(0, 2, 1)
    else:                   # row-major (L, K * trailing)
        bt = np.ascontiguousarray(w[:, idx.T]).reshape(B, L, -1)
    out = np.matmul(filt.reshape(1, L), bt).reshape((B, M // 2) + w.shape[2:])
    return np.ascontiguousarray(np.moveaxis(out, 1, axis + 1))


def _idwt_axis(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray,
               axis: int) -> np.ndarray:
    """Adjoint of the convolution-decimation: zero-stuff and filter, periodic.

    Tap m adds hm * lo[k] + gm * hi[k] at the output index (2k + m) mod M,
    which is out[p::2] at (k + q) mod (M/2) with m mod M = 2q + p: two slice
    adds per tap.  The zero-stuffed samples between them would add only
    +-0 to an accumulator that starts at +0 and so never holds -0."""
    lo = np.moveaxis(np.asarray(lo, dtype=complex), axis, 0)
    hi = np.moveaxis(np.asarray(hi, dtype=complex), axis, 0)
    half = lo.shape[0]
    out = np.zeros((2 * half,) + lo.shape[1:], dtype=complex)
    for m, (hm, gm) in enumerate(zip(h, g)):
        q, p = divmod(m % (2 * half), 2)
        q %= half
        tap = hm * lo + gm * hi
        dst = out[p::2]
        dst[q:] += tap[:half - q]
        dst[:q] += tap[half - q:]
    return np.moveaxis(out, 0, axis)


class DaubechiesBasis(_Basis):
    """Periodic orthonormal Daubechies cascade; m0 vanishing moments."""

    family = "daubechies"

    def __init__(self, spec: GridSpec, m0: int = 6):
        if m0 not in DAUBECHIES_FILTERS:
            raise ParameterError(
                f"no frozen filter for m0={m0}; available: {sorted(DAUBECHIES_FILTERS)}"
            )
        self.spec = spec
        self.m0 = m0
        self.h = np.asarray(DAUBECHIES_FILTERS[m0])
        # quadrature-mirror highpass g[m] = (-1)^m h[L-1-m]
        L = len(self.h)
        self.g = ((-1.0) ** np.arange(L)) * self.h[::-1]
        self.j_min = spec.j_min
        self.j_max = spec.J - 1
        # support exponent M: filter length 2 m0 fits in [-2^M, 2^M]
        self.support_exponent = int(np.ceil(np.log2(2 * m0)))

    def analyze(self, f: GridFunction) -> CoeffField:
        if f.spec != self.spec:
            raise GridMismatchError("grid function does not match basis grid")
        return self.analyze_stack(f.data)

    def analyze_stack(self, data: np.ndarray) -> CoeffField:
        """The cascade on every grid function in `data` (leading batch axes,
        possibly none, then the grid shape) at once, one matmul per filter,
        axis and level; the blocks carry the same leading axes."""
        n = self.spec.n
        _check_stack(self.spec, data)
        lead = data.shape[:data.ndim - n]
        approx = np.asarray(data, dtype=complex).reshape((-1,) + self.spec.shape) \
            * 2.0 ** (-n * self.spec.J / 2.0)
        detail = {}
        for j in range(self.j_max, self.j_min - 1, -1):
            blocks = {(): approx}
            for axis in range(n):
                blocks = {pre + (bit,): _dwt_stack(arr, filt, axis)
                          for pre, arr in blocks.items()
                          for bit, filt in ((0, self.h), (1, self.g))}
            approx = blocks.pop((0,) * n)
            for eps, arr in blocks.items():
                detail[(eps, j)] = arr.reshape(lead + arr.shape[1:])
        return CoeffField._from_blocks(self.spec, self.family, self.j_min,
                                       self.j_max, detail,
                                       approx.reshape(lead + approx.shape[1:]))

    def synthesize(self, c: CoeffField) -> GridFunction:
        if c.spec != self.spec or c.j_min != self.j_min or c.j_max != self.j_max:
            raise IndexOutOfBandError("coefficient field does not match basis band")
        if c.batch_shape:
            raise GridMismatchError(f"synthesize takes one field, not a {c.batch_shape} stack")
        approx = c.scaling.astype(complex)
        for j in range(self.j_min, self.j_max + 1):
            blocks = {(0,) * self.spec.n: approx}
            for eps in self.detail_type_list():
                blocks[eps] = c.detail[(eps, j)]
            for axis in range(self.spec.n - 1, -1, -1):
                nxt = {}
                for pre in set(key[:axis] for key in blocks):
                    lo = blocks[pre + (0,)]
                    hi = blocks[pre + (1,)]
                    nxt[pre] = _idwt_axis(lo, hi, self.h, self.g, axis)
                blocks = nxt
            approx = blocks[()]
        data = approx * 2.0 ** (self.spec.n * self.spec.J / 2.0)
        return GridFunction(self.spec, data)

    def project(self, f: GridFunction, j: int, kind: str) -> GridFunction:
        c = self.analyze(f)
        out = c.zeros_like()
        if kind == "P":
            if not (self.j_min <= j <= self.j_max + 1):
                raise BandRangeError(f"P level {j} outside band")
            out.scaling = c.scaling.copy()
            for (eps, jj) in c.detail:
                if jj < j:
                    out.detail[(eps, jj)] = c.detail[(eps, jj)].copy()
        elif kind == "Q":
            if not (self.j_min <= j <= self.j_max):
                raise BandRangeError(f"Q level {j} outside band")
            for eps in self.detail_type_list():
                out.detail[(eps, j)] = c.detail[(eps, j)].copy()
        else:
            raise ParameterError(f"kind must be 'P' or 'Q', got {kind!r}")
        return self.synthesize(out)

    def band_limit(self, f: GridFunction) -> GridFunction:
        return GridFunction(self.spec, f.data.copy())


def build_basis(family: str, spec: GridSpec, profile: str = "polynomial",
                m0: int = 6):
    """Factory for the two supported families."""
    family = family.lower()
    if family == "meyer":
        return MeyerBasis(spec, profile=profile)
    if family == "daubechies":
        return DaubechiesBasis(spec, m0=m0)
    raise ParameterError(f"unknown wavelet family {family!r}")


# -- paraproduct ---------------------------------------------------------------

@dataclass
class ParaproductParts:
    """The five relative-frequency blocks of a pointwise product."""

    low_high: GridFunction
    diagonal: GridFunction
    band_up: GridFunction      # 0 < j - j' <= 3
    band_down: GridFunction    # 0 < j' - j <= 3
    high_low: GridFunction

    def total(self) -> GridFunction:
        return (
            self.low_high + self.diagonal + self.band_up
            + self.band_down + self.high_low
        )

    def as_list(self) -> list[GridFunction]:
        return [self.low_high, self.diagonal, self.band_up,
                self.band_down, self.high_low]


def paraproduct(basis, u: GridFunction, v: GridFunction) -> ParaproductParts:
    """Split u*v by relative frequency position of the factors.

    The scaling block at j_min stands in for every level below the band;
    scaling x detail products ride with the low-high / high-low sums and the
    scaling x scaling product is split evenly between those two parts, which
    keeps the five-part sum equal to u*v for band-limited inputs.
    """
    if u.spec != basis.spec or v.spec != basis.spec:
        raise GridMismatchError("inputs do not match basis grid")
    j_lo, j_hi = basis.j_min, basis.j_max
    if j_hi < j_lo + 3:
        raise ParameterError(
            f"paraproduct needs at least four detail levels; band is [{j_lo}, {j_hi}]"
        )
    Qu = {j: basis.project(u, j, "Q") for j in range(j_lo, j_hi + 1)}
    Qv = {j: basis.project(v, j, "Q") for j in range(j_lo, j_hi + 1)}
    Su = basis.project(u, j_lo, "P")
    Sv = basis.project(v, j_lo, "P")

    # running P_j u built from the ladder P_{j+1} = P_j + Q_j
    Pu = {j_lo: Su}
    Pv = {j_lo: Sv}
    for j in range(j_lo, j_hi):
        Pu[j + 1] = Pu[j] + Qu[j]
        Pv[j + 1] = Pv[j] + Qv[j]

    zero = GridFunction.zeros(basis.spec)
    low_high, diagonal, band_up, band_down, high_low = (
        zero.copy(), zero.copy(), zero.copy(), zero.copy(), zero.copy(),
    )
    for j in range(j_lo, j_hi + 1):
        low_high = low_high + Pu[max(j - 3, j_lo)] * Qv[j]
        high_low = high_low + Qu[j] * Pv[max(j - 3, j_lo)]
        diagonal = diagonal + Qu[j] * Qv[j]
        for jp in range(max(j_lo, j - 3), j):
            band_up = band_up + Qu[j] * Qv[jp]
        for jp in range(j + 1, min(j_hi, j + 3) + 1):
            band_down = band_down + Qu[j] * Qv[jp]
    cross = Su * Sv
    low_high = low_high + 0.5 * cross
    high_low = high_low + 0.5 * cross
    return ParaproductParts(low_high, diagonal, band_up, band_down, high_low)


# -- serialization --------------------------------------------------------------

def coeff_field_to_json(c: CoeffField) -> str:
    """One record per nonzero coefficient, block by block (scaling, then
    the detail blocks in band order), each block in C order.
    ParameterError for a field with leading axes."""
    if c.batch_shape:
        raise ParameterError("only a single field can be written as JSON")
    records = []
    for eps, j, block in [((0,) * c.spec.n, c.j_min, c.scaling)] + [
            (eps, j, arr) for (eps, j), arr in c.detail.items()]:
        flat = np.flatnonzero(block)
        vals = block.reshape(-1)[flat]
        for k, re, im in zip(np.transpose(np.unravel_index(flat, block.shape)).tolist(),
                             vals.real.tolist(), vals.imag.tolist()):
            records.append({"eps": list(eps), "j": j, "k": k, "re": re, "im": im})
    doc = {
        "family": c.family,
        "n": c.spec.n, "J": c.spec.J,
        "j_min": c.j_min, "j_max": c.j_max,
        "coefficients": records,
    }
    return json.dumps(doc, sort_keys=True)


def coeff_field_from_json(text: str) -> CoeffField:
    """Inverse of coeff_field_to_json; each record must index the band, finitely."""
    try:
        doc = json.loads(text)
        spec = GridSpec(n=doc["n"], J=doc["J"], j_min=doc["j_min"])
        if not doc["j_min"] <= doc["j_max"] < spec.J:
            raise ParameterError(f"band [{doc['j_min']}, {doc['j_max']}] outside J={spec.J}")
        c = CoeffField(spec, doc["family"], doc["j_min"], doc["j_max"])
        for rec in doc["coefficients"]:
            idx = WaveletIndex(tuple(rec["eps"]), rec["j"], tuple(rec["k"]))
            value = rec["re"] + 1j * rec["im"]
            if not np.isfinite(value):
                raise ParameterError(f"non-finite coefficient {value} at {idx}")
            c.set(idx, value)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"malformed coefficient JSON: {exc!r}") from None
    return c


def _file_blocks(c: CoeffField) -> list:
    """(eps, j, block) in file order: scaling, then detail by sorted (eps, j)."""
    return [((0,) * c.spec.n, c.j_min, c.scaling)] + [
        (eps, j, c.detail[(eps, j)]) for eps, j in sorted(c.detail)]


def write_coeff_field(c: CoeffField, path: str) -> None:
    """Binary layout: the grid header with flag 2, or 3 for a field on a
    time grid; j_min, j_max (u32); with flag 3 t_min, t_max (f8), L (u32)
    and beta (f8, 0.0 for None); the family name (u32 length, bytes); the
    block count (u32), then per block in `_file_blocks` order j (u32), eps
    (n bytes) and its (re, im) pairs."""
    tg = c.tg
    if c.batch_shape != (() if tg is None else (tg.L,)):
        raise ParameterError("only a single field or a time field can be written")
    fam = c.family.encode()
    with open(path, "wb") as fh:
        _write_header(fh, c.spec.n, c.spec.J, 2 if tg is None else 3)
        fh.write(struct.pack("<II", c.j_min, c.j_max))
        if tg is None:
            fh.write(struct.pack("<I", len(fam)) + fam)
        else:
            beta = 0.0 if c.beta is None else c.beta
            fh.write(struct.pack("<ddIdI", tg.t_min, tg.t_max, tg.L, beta, len(fam)) + fam)
        blocks = _file_blocks(c)
        fh.write(struct.pack("<I", len(blocks)))
        for eps, j, arr in blocks:
            fh.write(struct.pack("<I", j) + bytes(eps))
            _write_pairs(fh, arr)


def read_coeff_field(path: str) -> CoeffField:
    """Inverse of write_coeff_field.  The sizes the header implies are
    checked against the file before any block is allocated; a bad band,
    time grid or beta, a block out of order and a short or long file raise
    ParameterError.  A beta of 0.0 reads as None."""
    with open(path, "rb") as fh:
        n, J, flag = _read_header(fh, (2, 3))
        j_min, j_max = _unpack(fh, "<II")
        spec = GridSpec(n=n, J=J, j_min=j_min)
        if not j_min <= j_max < J:
            raise ParameterError(f"band [{j_min}, {j_max}] outside J={J}")
        tg, beta = None, 0.0
        if flag == 2:
            (flen,) = _unpack(fh, "<I")
        else:
            t_min, t_max, L, beta, flen = _unpack(fh, "<ddIdI")
            tg = TimeGrid(t_min, t_max, L)
            if not (beta == 0.0 or 0 < beta < np.inf):
                raise ParameterError(f"beta must be finite and positive, got {beta}")
        try:
            family = _read_exact(fh, flen).decode()
        except UnicodeDecodeError:
            raise ParameterError("family name is not UTF-8") from None
        lead = () if tg is None else (tg.L,)
        rows = 1 if tg is None else tg.L
        # the block count, then per block its j, eps and pairs
        sizes = [4 + n + 16 * rows * (1 << (n * j)) for j in range(j_min, j_max + 1)]
        if _remaining(fh) != 4 + sizes[0] + ((1 << n) - 1) * sum(sizes):
            raise ParameterError("file size does not match its header")
        c = CoeffField(spec, family, j_min, j_max, tg=tg, beta=beta or None)
        blocks = _file_blocks(c)
        if _unpack(fh, "<I") != (len(blocks),):
            raise ParameterError(f"expected {len(blocks)} blocks")
        for eps, j, _ in blocks:
            if _unpack(fh, "<I") != (j,) or tuple(_read_exact(fh, n)) != eps:
                raise ParameterError(f"expected block eps={eps}, j={j} next")
            arr = _read_pairs(fh, lead + (1 << j,) * n)
            if any(eps):
                c.detail[(eps, j)] = arr
            else:
                c.scaling = arr
        return c
