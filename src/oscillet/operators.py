"""Almost-diagonal operator machinery on wavelet coefficients.

A matrix acts on detail coefficient fields.  Two storages coexist:

* scattered entries, grouped per level-pair block as COO index arrays,
  which is what the random generator produces;
* circulant blocks, one kernel per (eps, j, eps', j') with the entry a
  function of the shifted position difference, which is what the Riesz
  transform produces on the Meyer basis (it commutes with translations at
  each scale).

Every stored entry is measured against the decay envelope

    E = 2^{-|j-j'| (n/2 + N0)} * ( (2^{-j} + 2^{-j'})
        / (2^{-j} + 2^{-j'} + dist) )^{n + N0},

with `dist` the periodic minimal-image distance between the cube anchors
k 2^{-j} and k' 2^{-j'} (matrices of periodic operators wrap, so the flat
distance of the plane is replaced by the torus metric).

A circulant block is applied as a product of spectra.  One apply visits the
source blocks in order (level j', type eps', zero-stuffed or not) and takes
one forward FFT per source and chunk of at most CHUNK_BYTES of its rows,
used at once by every destination block that reads it, so one source
spectrum chunk is alive at a time; each kernel's FFT (for j' = j + 1 that of
the flipped and rolled kernel) is kept on the matrix after its first apply.
Every step is row-independent, and each destination receives its adds in
source order, which is the order `riesz_matrix` stores them in, so the
result has the bits of the block-by-block evaluation.

The boundedness experiment runs each J of its sweep as one stack: the
samples are the rows of one random field (`_random_detail_field` with a
list of seeds, normalized by one stacked TLM call), applied by one
`apply_matrix` and normed by one stacked TLM call per side; every row has
the bits of its own sample's evaluation.  The random matrix is generated
once, at the sweep's finest J.  Each block is drawn from (seed, j, j', type
pair) alone, so a coarser J's matrix is the truncation to the blocks with
j, j' <= J - 2, in the generator's insertion order: the matrix the
generator gives at that J, bit for bit, with the same apply add order and
the same order of decay violations.  The truncations share the finest
matrix's arrays, which are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import GridFunction, GridSpec, flat_positions, min_image
from .norms import SpaceParams, tlm_wavelet_norm
from .wavelet import CoeffField, chunk_rows, detail_types

TWO_PI = 2.0 * np.pi

BlockKey = tuple[tuple[int, ...], int, tuple[int, ...], int]   # eps, j, eps', j'


def envelope(j: int, j_prime: int, dist: np.ndarray, N0: float, n: int) -> np.ndarray:
    """The decay envelope at scale pair (j, j') and anchor distance(s)."""
    s = 2.0**-j + 2.0**-j_prime
    return (
        2.0 ** (-abs(j - j_prime) * (n / 2.0 + N0))
        * (s / (s + np.asarray(dist, dtype=float))) ** (n + N0)
    )


class AlmostDiagonalMatrix:
    """Sparse or circulant coefficient matrix with declared decay metadata."""

    def __init__(self, spec: GridSpec, j_min: int, j_max: int,
                 N0: float, C: float, band: float = np.inf):
        self.spec = spec
        self.j_min = j_min
        self.j_max = j_max
        self.N0 = N0
        self.C = C
        self.band = band
        # block -> (rows, cols, vals) with flat position indices
        self.coo: dict[BlockKey, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # block -> kernel table over the shifted position difference
        self.circulant: dict[BlockKey, np.ndarray] = {}
        # block -> (kernel, its spectrum), filled by the first apply
        self._spectra: dict[BlockKey, tuple[np.ndarray, np.ndarray]] = {}

    def kernel_spectrum(self, key: BlockKey, kern: np.ndarray) -> np.ndarray:
        """The FFT that circulant block `key` (kernel `kern`) multiplies its
        source spectrum by; built on first use and kept while the block
        holds the same kernel array."""
        kept = self._spectra.get(key)
        if kept is None or kept[0] is not kern:
            eps, j, eps_p, j_p = key
            kept = self._spectra[key] = (kern, _kernel_spectrum(kern, j, j_p,
                                                                self.spec.n))
        return kept[1]

    # -- entry iteration ---------------------------------------------------

    def iter_entry_groups(self):
        """Yields (j, j', dist_array, values_array) per stored block; for
        circulant blocks one entry per kernel offset with its multiplicity
        implied (each offset realizes 2^{n min(j,j')} identical entries)."""
        n = self.spec.n
        for (eps, j, eps_p, j_p), (rows, cols, vals) in self.coo.items():
            pk = flat_positions(j, n)[rows] * 2.0**-j
            pk_p = flat_positions(j_p, n)[cols] * 2.0**-j_p
            diff = min_image(pk - pk_p, 1.0)
            yield j, j_p, np.sqrt(np.sum(diff**2, axis=-1)), vals
        for (eps, j, eps_p, j_p), kern in self.circulant.items():
            L = kern.shape[0]
            delta = flat_positions(int(np.log2(L)), n)
            diff = min_image(delta.astype(float), float(L)) * 2.0 ** -max(j, j_p)
            yield j, j_p, np.sqrt(np.sum(diff**2, axis=-1)), kern.reshape(-1)


@dataclass
class DecayValidation:
    C_min: float
    violations: list
    n_entries: int

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_decay(mat: AlmostDiagonalMatrix, N0: float | None = None,
                   C: float | None = None, tol: float = 1e-12) -> DecayValidation:
    """Tightest admissible constant, and entries exceeding the declared one."""
    N0 = mat.N0 if N0 is None else N0
    C = mat.C if C is None else C
    C_min = 0.0
    violations = []
    count = 0
    for j, j_p, dist, vals in mat.iter_entry_groups():
        env = envelope(j, j_p, dist, N0, mat.spec.n)
        ratio = np.abs(vals) / env
        count += vals.size
        if ratio.size:
            C_min = max(C_min, float(np.max(ratio)))
            bad = ratio > C * (1.0 + tol)
            if np.any(bad):
                worst = np.argsort(ratio[bad])[::-1][:8]
                for w in worst:
                    violations.append((j, j_p, float(dist[bad][w]),
                                       float(ratio[bad][w])))
    return DecayValidation(C_min, violations, count)


# -- random generator --------------------------------------------------------

@dataclass(frozen=True)
class CzoGeneratorParams:
    """Shape of the random admissible (or deliberately violating) matrix."""

    N0: float
    C: float
    band: float = 4
    window_cells: float = 8.0   # position reach in units of the coarser scale
    density: float = 0.1
    saturation: float = 1.0     # 1 = exactly saturate the envelope


def generate_random_czo(spec: GridSpec, j_min: int, j_max: int,
                        params: CzoGeneratorParams, seed: int) -> AlmostDiagonalMatrix:
    """Entries of modulus saturation * C * envelope with random signs on a
    seeded fraction of the in-window index pairs.

    Deterministic per seed, and block draws are seeded per (j, j', type
    pair), so the matrices generated at different resolutions share their
    common coarse blocks; a J sweep then measures the same operator seen
    at finer and finer truncation."""
    n = spec.n
    mat = AlmostDiagonalMatrix(spec, j_min, j_max, params.N0,
                               params.C * params.saturation, params.band)
    if params.C == 0.0:
        return mat
    types = detail_types(n)
    for j in range(j_min, j_max + 1):
        for j_p in range(j_min, j_max + 1):
            if abs(j - j_p) > params.band:
                continue
            pk = flat_positions(j, n) * 2.0**-j
            pk_p = flat_positions(j_p, n) * 2.0**-j_p
            diff = min_image(pk[:, None, :] - pk_p[None, :, :], 1.0)
            dist = np.sqrt(np.sum(diff**2, axis=-1))
            window = params.window_cells * 2.0 ** -min(j, j_p)
            rows, cols = np.nonzero(dist <= window)
            if rows.size == 0:
                continue
            env = envelope(j, j_p, dist[rows, cols], params.N0, n)
            for ei, eps in enumerate(types):
                for ei_p, eps_p in enumerate(types):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(seed, spawn_key=(j, j_p, ei, ei_p)))
                    keep = rng.random(rows.size) < params.density
                    if not np.any(keep):
                        continue
                    signs = rng.choice([-1.0, 1.0], size=int(np.sum(keep)))
                    vals = signs * params.saturation * params.C * env[keep]
                    mat.coo[(eps, j, eps_p, j_p)] = (
                        rows[keep].copy(), cols[keep].copy(), vals)
    return mat


# -- application ----------------------------------------------------------------

def _check_band(mat: AlmostDiagonalMatrix, c: CoeffField):
    if c.spec != mat.spec or c.j_min < mat.j_min or c.j_max > mat.j_max:
        raise GridMismatchError("coefficient field band incompatible with matrix")


def _kernel_spectrum(kern: np.ndarray, j: int, j_p: int, n: int) -> np.ndarray:
    """The FFT a circulant block multiplies its source spectrum by: the
    kernel's, or for j' = j + 1 that of the flipped and rolled kernel."""
    if j_p == j + 1:
        # entry(k, k') = kern[(k' - 2k) mod L'] -> correlate then stride 2
        rev = kern
        for ax in range(n):
            rev = np.flip(rev, axis=ax)
            rev = np.roll(rev, 1, axis=ax)
        return np.fft.fftn(rev)
    if abs(j - j_p) > 1:
        raise ParameterError("circulant blocks exist only for |j - j'| <= 1")
    # j' = j: convolve; j' = j - 1: entry(k, k') = kern[(k - 2k') mod L] ->
    # zero-stuff the source, then convolve
    return np.fft.fftn(kern)


def _source_spectrum(blockin: np.ndarray, stuffed: bool, n: int) -> np.ndarray:
    """FFT over the trailing n axes of a source block, zero-stuffed to
    twice its size per axis when `stuffed` (a j' = j - 1 block reads it)."""
    axes = tuple(range(blockin.ndim - n, blockin.ndim))
    if stuffed:
        up_shape = blockin.shape[:-n] + tuple(2 * s for s in blockin.shape[-n:])
        up = np.zeros(up_shape, dtype=complex)
        up[(Ellipsis,) + (slice(None, None, 2),) * n] = blockin
        blockin = up
    return np.fft.fftn(blockin, axes=axes)


def _source_order(item) -> tuple:
    """(j', eps', zero-stuffed) of a circulant block (key, kernel): the order
    in which `_apply` visits the source blocks."""
    (eps, j, eps_p, j_p), _ = item
    return j_p, eps_p, j_p == j - 1


def apply_matrix(mat: AlmostDiagonalMatrix, c: CoeffField) -> CoeffField:
    """Exact sparse/circulant matrix-vector product; linear in c."""
    return _apply(mat, c)


def apply_matrix_time(mat: AlmostDiagonalMatrix, tcf: CoeffField) -> CoeffField:
    """Row-wise application to a field on a time grid."""
    return _apply(mat, tcf)


def _apply(mat: AlmostDiagonalMatrix, c: CoeffField) -> CoeffField:
    """The product applied to every row of c's leading batch axes (c itself
    when it has none); the result keeps c's time grid and beta."""
    _check_band(mat, c)
    out = c.zeros_like()
    n = c.spec.n

    def block(field, eps, j):
        return field.scaling if not any(eps) else field.detail[(eps, j)]

    for (eps, j, eps_p, j_p), (rows, cols, vals) in mat.coo.items():
        src = block(c, eps_p, j_p).reshape(-1, (1 << j_p) ** n)
        acc = np.zeros((len(src), (1 << j) ** n), dtype=complex)
        np.add.at(acc.T, rows, vals[:, None] * src.T[cols])
        dst = block(out, eps, j)
        dst += acc.reshape(dst.shape)
    # source by source: one forward FFT per (source block, zero-stuffed or
    # not) and chunk of rows, used at once by every destination block that
    # reads it
    lead = len(c.batch_shape)
    total = int(np.prod(c.batch_shape))
    stride = (Ellipsis,) + (slice(None, None, 2),) * n

    def by_row(arr):
        return arr.reshape((-1,) + arr.shape[lead:]) if lead else arr[None]

    for (j_p, eps_p, stuffed), group in groupby(
            sorted(mat.circulant.items(), key=_source_order), key=_source_order):
        group = list(group)
        src = by_row(block(c, eps_p, j_p))
        size = (2 << j_p if stuffed else 1 << j_p) ** n     # values per row
        step = chunk_rows(size)
        for start in range(0, total, step):
            part = slice(start, start + step)
            spectrum = _source_spectrum(src[part], stuffed, n)
            for key, kern in group:
                eps, j = key[:2]
                res = np.fft.ifftn(mat.kernel_spectrum(key, kern) * spectrum,
                                   axes=tuple(range(1, n + 1)))
                if j_p == j + 1:
                    res = res[stride]
                dst = by_row(block(out, eps, j))[part]
                dst += res
    return out


# -- Riesz transforms --------------------------------------------------------------

def riesz_apply(f: GridFunction, l: int) -> GridFunction:
    """Fourier multiplier -i xi_l / |xi| on the lattice; zero mode to zero."""
    spec = f.spec
    if not (1 <= l <= spec.n):
        raise ParameterError(f"direction {l} outside 1..{spec.n}")
    mult = _riesz_symbol(spec, l)
    return GridFunction(spec, np.fft.ifftn(mult * np.fft.fftn(f.data)))


def _riesz_symbol(spec: GridSpec, l: int) -> np.ndarray:
    """-i m_l / |m| on the lattice in FFT order; 0 at the zero mode."""
    axis = [1] * spec.n
    axis[l - 1] = -1
    m_l = spec.frequencies().reshape(axis)
    norm = np.sqrt(spec.lattice_norm2())
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norm > 0, -1j * m_l / norm, 0.0)


def riesz_matrix(basis, l: int, N0: float = 2.0) -> AlmostDiagonalMatrix:
    """<Phi^eps_{j,k}, R_l Phi^{eps'}_{j',k'}> as circulant blocks; entries
    vanish beyond |j - j'| >= 2 because adjacent Meyer annuli are the only
    overlapping supports.  Meyer only: compactly supported families have
    full-band Riesz matrices and are rejected."""
    if basis.family != "meyer":
        raise ParameterError("Riesz matrices are realized on the Meyer basis only")
    from .wavelet import _fold

    spec = basis.spec
    n = spec.n
    rho = _riesz_symbol(spec, l)
    mat = AlmostDiagonalMatrix(spec, basis.j_min, basis.j_max, N0,
                               C=0.0, band=1)
    eps0 = (0,) * n
    # (j', eps') order, the scaling block first: each destination's sources
    # are stored in `_source_order`, the order in which `_apply` adds them,
    # so its bits are those of the block-by-block evaluation
    blocks: list[tuple[tuple, int]] = [(eps0, basis.j_min)]
    for j in basis.detail_levels:
        for eps in basis.detail_type_list():
            blocks.append((eps, j))
    for eps, j in blocks:
        Wj = basis._tensor_window(eps, j)
        for eps_p, j_p in blocks:
            if abs(j - j_p) > 1:
                continue
            Wp = basis._tensor_window(eps_p, j_p)
            G = (2.0 ** (-n * (j + j_p) / 2.0)
                 * Wj * np.conj(Wp) * np.conj(rho))
            if not np.any(G):
                continue
            Lmax = 1 << max(j, j_p)
            folded = _fold(G, Lmax, n)
            if j_p == j + 1:
                kern = (Lmax**n) * np.fft.ifftn(folded)
            else:
                kern = np.fft.fftn(folded)
            if np.max(np.abs(kern)) < 1e-15:
                continue
            mat.circulant[(eps, j, eps_p, j_p)] = kern
    val = validate_decay(mat, N0=N0, C=np.inf)
    mat.C = val.C_min
    return mat


# -- experiments -------------------------------------------------------------------

@dataclass
class BoundednessReport:
    operator: str
    norm_kind: str
    per_sample: list          # (J, sample, in_norm, out_norm, ratio)
    max_ratio_by_J: dict
    growth_per_J: float
    certified: bool
    passed: bool
    notes: list = field(default_factory=list)


def _random_detail_field(basis, sp: SpaceParams, seed: int | Sequence[int],
                         top_margin: int = 1,
                         draws: dict | None = None) -> CoeffField:
    """Detail coefficients with per-level variance 2^{-j(2 gamma1 + n)},
    rescaled to unit Morrey norm: for a list of seeds one stacked field
    with a row per seed, normalized by one stacked TLM call, and for one
    seed (an int) the one-row stack's row.  Levels draw from per-level
    seeds so the same seed at a finer resolution extends the coarse field;
    `draws`, a dict shared by the calls of one J sweep, keeps each (seed,
    level, type)'s standard normal draws so that a finer J reuses them.

    The finest `top_margin` levels stay empty: content then lives where the
    truncated ladder resolves exactly, so frequency multipliers (heat,
    Riesz) keep the field inside the basis span."""
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    n, rows = basis.spec.n, len(seeds)
    draws = {} if draws is None else draws
    blocks = {}
    for j in basis.detail_levels:
        sigma = 2.0 ** (-j * (2 * sp.gamma1 + n) / 2.0)
        for ei, eps in enumerate(basis.detail_type_list()):
            if j > basis.j_max - top_margin:
                blocks[(eps, j)] = np.zeros((rows,) + (1 << j,) * n, dtype=complex)
                continue
            for s in seeds:
                if (s, j, ei) not in draws:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(s, spawn_key=(j, ei)))
                    draws[(s, j, ei)] = rng.standard_normal((1 << j,) * n)
            normal = np.array([draws[(s, j, ei)] for s in seeds])
            blocks[(eps, j)] = sigma * normal + 0j
    scaling = np.zeros((rows,) + (1 << basis.j_min,) * n, dtype=complex)
    c = CoeffField._from_blocks(basis.spec, basis.family, basis.j_min, basis.j_max,
                                blocks, scaling)
    norms = tlm_wavelet_norm(c, sp)
    # a zero row stays as it is
    factor = np.divide(1.0, norms, out=np.ones(rows), where=norms > 0)
    c = c.scaled(factor.reshape((rows,) + (1,) * n))
    return c[0] if single else c


def _truncate(mat: AlmostDiagonalMatrix, spec: GridSpec,
              j_max: int) -> AlmostDiagonalMatrix:
    """The COO blocks of `mat` with j, j' <= j_max, in its insertion order,
    as a matrix on `spec`; the blocks' arrays are shared, and marked
    read-only.  For a `generate_random_czo` matrix this is the matrix the
    generator gives on `spec` up to j_max, bit for bit: every block is
    drawn from (seed, j, j', type pair) alone."""
    out = AlmostDiagonalMatrix(spec, mat.j_min, j_max, mat.N0, mat.C, mat.band)
    for key, arrays in mat.coo.items():
        if key[1] <= j_max and key[3] <= j_max:
            for arr in arrays:
                arr.flags.writeable = False
            out.coo[key] = arrays
    return out


def czo_boundedness_experiment(params: CzoGeneratorParams, sp: SpaceParams,
                               samples: int, seed: int,
                               J_sweep: Sequence[int] = (8, 9, 10),
                               n: int = 1, j_min: int = 0,
                               growth_limit: float = 0.10,
                               declared_N0: float | None = None,
                               profile: str = "polynomial",
                               draws: dict | None = None) -> BoundednessReport:
    """Morrey-norm ratios of random admissible matrices across the J sweep,
    on the Meyer basis with transition profile `profile`.  The matrix is
    generated once, at the sweep's finest J; each J's is its truncation to
    that J's band.  Per J the samples are one stack, applied once and
    normed by one TLM call on each side.  `draws` keeps the samples'
    standard normal draws (see `_random_detail_field`); sweeps over the
    same seeds, n and levels may share one dict.

    A matrix violating the declared envelope still runs but the report is
    tagged uncertified (negative control)."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    from .wavelet import build_basis

    per_sample = []
    max_by_J = {}
    draws = {} if draws is None else draws
    certified = True
    notes = []
    if sp.p <= 1 or sp.q <= 1:
        notes.append("quasi-Banach exponents (p or q <= 1): exploratory run")
    bases = [(J, build_basis("meyer", GridSpec(n=n, J=J, j_min=j_min), profile=profile))
             for J in J_sweep]
    top = max(bases, key=lambda item: item[0])[1]
    finest = generate_random_czo(top.spec, top.j_min, top.j_max, params, seed=seed)
    seeds = [seed + 104729 * s for s in range(samples)]
    for J, basis in bases:
        mat = _truncate(finest, basis.spec, basis.j_max)
        check_N0 = params.N0 if declared_N0 is None else declared_N0
        val = validate_decay(mat, N0=check_N0, C=params.C)
        if not val.ok:
            certified = False
            notes.append(
                f"J={J}: {len(val.violations)} entries exceed the declared "
                f"envelope at N0={check_N0} (C_min={val.C_min:.3g})")
        g = _random_detail_field(basis, sp, seeds, draws=draws)
        out = apply_matrix(mat, g)
        ratios = []
        for s, (in_norm, out_norm) in enumerate(zip(
                tlm_wavelet_norm(g, sp).tolist(), tlm_wavelet_norm(out, sp).tolist())):
            ratio = out_norm / in_norm if in_norm > 0 else 0.0
            ratios.append(ratio)
            per_sample.append((J, s, in_norm, out_norm, ratio))
        max_by_J[J] = max(ratios)
    growth = ratio_growth(max_by_J)
    passed = certified and growth < growth_limit
    return BoundednessReport("random-czo", "tlm", per_sample, max_by_J,
                             growth, certified, passed, notes)


def ratio_growth(by_J: dict) -> float:
    """Worst growth per unit J of a quantity measured across a J sweep: the
    max over consecutive sweep points a < b of (v_b / v_a)^{1/(b-a)} - 1.
    A zero followed by a zero adds no growth (a zero operator does not
    grow); a zero followed by a positive value is infinite growth."""
    Js = sorted(by_J)
    worst = 0.0
    for a, b in zip(Js[:-1], Js[1:]):
        if by_J[a] <= 0:
            if by_J[b] > 0:
                return np.inf
            continue
        worst = max(worst, (by_J[b] / by_J[a]) ** (1.0 / (b - a)) - 1.0)
    return worst


def riesz_tent_experiment(tcf, tp, mat: AlmostDiagonalMatrix) -> dict:
    """Tent-part ratios of one Riesz application (`mat`, from
    `riesz_matrix`), plus the cross-part attribution of part III against
    parts III+IV of the input."""
    from .tent import tent_norms

    out = apply_matrix_time(mat, tcf)
    rep_in = tent_norms(tcf, tp)
    rep_out = tent_norms(out, tp)
    ratios = {}
    for name, vin, vout in zip(
            ("I", "II", "III", "IV"), rep_in.values, rep_out.values):
        ratios[name] = (vout / vin) if vin > 0 else (np.inf if vout > 0 else None)
    iii_in = rep_in.part_iii.value + rep_in.part_iv.value
    cross = rep_out.part_iii.value / iii_in if iii_in > 0 else None
    return {
        "ratios": ratios,
        "cross_part_iii": cross,
        "input_parts": rep_in.values,
        "output_parts": rep_out.values,
    }


# -- serialization ------------------------------------------------------------------

def write_matrix_jsonl(mat: AlmostDiagonalMatrix, path: str) -> None:
    """One entry per line with both indices, value, and envelope slack."""
    import json

    n = mat.spec.n
    with open(path, "w") as fh:
        header = {"kind": "almost-diagonal", "n": n, "J": mat.spec.J,
                  "j_min": mat.j_min, "j_max": mat.j_max,
                  "N0": mat.N0, "C": mat.C,
                  "band": (None if mat.band == np.inf else mat.band)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for (eps, j, eps_p, j_p), (rows, cols, vals) in sorted(mat.coo.items()):
            pk = flat_positions(j, n)
            pk_p = flat_positions(j_p, n)
            for r, cidx, v in zip(rows, cols, vals):
                d = min_image(pk[r] * 2.0**-j - pk_p[cidx] * 2.0**-j_p, 1.0)
                dist = float(np.sqrt(np.sum(d**2)))
                env = float(envelope(j, j_p, dist, mat.N0, n)) * mat.C
                rec = {"eps": list(eps), "j": j, "k": [int(x) for x in pk[r]],
                       "eps2": list(eps_p), "j2": j_p,
                       "k2": [int(x) for x in pk_p[cidx]],
                       "re": float(np.real(v)), "im": float(np.imag(v)),
                       "envelope_slack": (env - abs(float(np.abs(v))))}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_matrix_jsonl(path: str) -> AlmostDiagonalMatrix:
    """Inverse of write_matrix_jsonl.  ParameterError for a malformed line,
    a header off n in {1, 2}, 0 <= j_min <= j_max < J, finite N0 and C and a
    band null or >= 0, a type or level off the band, a position off its
    level, a non-finite value or an entry given twice."""
    import json

    try:
        with open(path) as fh:
            head = json.loads(fh.readline())
            n, J, j_min, j_max, band = (head[k] for k in ("n", "J", "j_min",
                                                          "j_max", "band"))
            numbers = [head["N0"], head["C"], 0.0 if band is None else band]
            if head["kind"] != "almost-diagonal" or n not in (1, 2) \
                    or any(type(v) is not int for v in (n, J, j_min, j_max)) \
                    or not 0 <= j_min <= j_max < J or numbers[2] < 0 \
                    or not np.all(np.isfinite(np.array(numbers, dtype=float))):
                raise ParameterError(f"bad matrix header {head}")
            mat = AlmostDiagonalMatrix(GridSpec(n=n, J=J, j_min=j_min), j_min,
                                       j_max, head["N0"], head["C"],
                                       np.inf if band is None else band)
            grouped: dict[BlockKey, dict] = {}
            for line, text in enumerate(fh, start=2):
                rec = json.loads(text)
                key = (tuple(rec["eps"]), rec["j"], tuple(rec["eps2"]), rec["j2"])
                entry = []
                for eps, j, k in ((*key[:2], rec["k"]), (*key[2:], rec["k2"])):
                    if eps not in detail_types(n) or not j_min <= j <= j_max:
                        raise ParameterError(f"line {line}: block {eps}, {j} "
                                             f"outside the band of n={n}")
                    # ValueError or TypeError for a position off its level
                    entry.append(int(np.ravel_multi_index(k, (1 << j,) * n)))
                value = rec["re"] + 1j * rec["im"]
                if not np.isfinite(value) or tuple(entry) in grouped.get(key, ()):
                    raise ParameterError(f"line {line}: non-finite or repeated "
                                         f"entry {value}")
                grouped.setdefault(key, {})[tuple(entry)] = value
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:   # JSONDecodeError too
        raise ParameterError(f"malformed matrix file: {exc!r}") from None
    for key, block in grouped.items():
        rows, cols = (np.array(v) for v in zip(*block))
        mat.coo[key] = (rows, cols, np.array(list(block.values())))
    return mat
