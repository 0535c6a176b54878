import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import assume, given, settings, strategies as st

from oscillet import norms, wavelet
from oscillet.errors import (
    DegenerateRegimeWarning,
    GridMismatchError,
    MomentConditioningError,
    ParameterError,
)
from oscillet.grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_contains,
    cube_sample_slices,
    enumerate_cubes,
)
from oscillet.norms import (
    CutoffFamily,
    SpaceParams,
    kernel_bound_report,
    kernel_sum,
    oscillation_norm,
    oscillation_norm_report,
    tl_norm,
    tlm_wavelet_norm,
    tlm_wavelet_norm_report,
    vector_maximal,
)
from oscillet.operators import _random_detail_field
from oscillet.wavelet import WaveletIndex, build_basis
from conftest import band_limited


def brute_force_tlm(c, sp):
    """Direct evaluation of the cube sup from the definition; O(everything)."""
    spec = c.spec
    best = 0.0
    x_cells = None
    for cube in enumerate_cubes(spec, spec.j_min, spec.J - 1):
        integrand = np.zeros(spec.shape)
        for (eps, j), arr in c.detail.items():
            if j < cube.j:
                continue
            for flat in range(arr.size):
                k = np.unravel_index(flat, arr.shape)
                inner = DyadicCube(j, tuple(int(v) for v in k))
                if not cube_contains(cube, inner):
                    continue
                w = 2.0 ** (sp.q * j * (sp.gamma1 + spec.n / 2.0))
                integrand[cube_sample_slices(spec, inner)] += (
                    w * np.abs(arr[k]) ** sp.q)
        val = (spec.cell_volume * np.sum(integrand ** (sp.p / sp.q))) ** (1 / sp.p)
        val *= 2.0 ** (-cube.j * (sp.gamma2 - spec.n / sp.p))
        best = max(best, val)
    return best


def full_tlm_table(c, sp):
    """The TLM norm from the definition's cube-level split: per cube level
    j0, one kernel call on the suffix aggregate of the levels j >= j0 (the
    coarsest one below the band, 0.0 above it).  Returns the value, the
    first cube attaining it in level and position order, and the per-level
    table."""
    q, n = sp.q, c.spec.n
    V = dict(norms._suffix_combine(norms._level_aggregates(c, sp.gamma1, q), q))
    table, best, best_cube = {}, 0.0, None
    for j0 in range(c.spec.j_min, c.spec.J):
        avail = [j for j in V if j >= j0]
        if not avail:
            table[j0] = 0.0
            continue
        Vj = V[min(avail)]
        integrand = Vj if q == np.inf else Vj ** (1.0 / q)
        [(vals, flat)] = norms._morrey_cube_max(integrand[None], (j0,), sp, c.spec)
        table[j0] = float(vals[0])
        if table[j0] > best:
            k = np.unravel_index(int(flat[0]), (1 << j0,) * n)
            best, best_cube = table[j0], DyadicCube(j0, tuple(map(int, k)))
    return best, best_cube, table


class TestTlNorm:
    def test_zero(self, meyer1d):
        c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        assert tl_norm(c, 0.3, 2.0, 2.0) == 0.0

    def test_single_coefficient_closed_form(self, meyer1d):
        for j, g1, p, q in [(4, 0.25, 2.0, 2.0), (3, -0.4, 3.0, 1.5),
                            (5, 0.0, 1.5, np.inf)]:
            c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
            c.set(WaveletIndex((1,), j, (1,)), 1.0)
            expected = 2.0 ** (j * (g1 + 0.5)) * 2.0 ** (-j / p)
            assert tl_norm(c, g1, p, q) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        base = tl_norm(c, 0.1, 2.0, 2.0)
        assert tl_norm(c.scaled(-3.5), 0.1, 2.0, 2.0) == pytest.approx(
            3.5 * base, rel=1e-12)


class TestTlmNorm:
    def test_zero_and_single(self, meyer1d):
        c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        sp = SpaceParams(0.25, 0.2, 2.0, 2.0)
        assert tlm_wavelet_norm(c, sp) == 0.0
        j, k = 4, 9
        c.set(WaveletIndex((1,), j, (k,)), 1.0)
        rep = tlm_wavelet_norm_report(c, sp)
        # gamma2 < n/p: the sup sits at the coefficient's own cube
        assert rep.value == pytest.approx(2.0 ** (j * (0.25 + 0.5 - 0.2)), rel=1e-12)
        assert rep.argmax_cube == DyadicCube(j, (k,))

    @pytest.mark.parametrize("sp", [
        SpaceParams(0.0, 0.3, 2.0, 2.0),
        SpaceParams(-0.3, 0.1, 1.5, 3.0),
        SpaceParams(0.5, 0.6, 3.0, 2.0),
    ])
    def test_brute_force_oracle(self, sp):
        spec = GridSpec(n=1, J=6, j_min=0)
        basis = build_basis("meyer", spec)
        rng = np.random.default_rng(7)
        c = basis.analyze(basis.band_limit(
            GridFunction(spec, rng.standard_normal(spec.shape))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = tlm_wavelet_norm(c, sp)
        assert fast == pytest.approx(brute_force_tlm(c, sp), rel=1e-10)

    def test_brute_force_oracle_2d(self, meyer2d, rng):
        sp = SpaceParams(0.1, 0.4, 2.0, 2.0)
        c = meyer2d.analyze(band_limited(meyer2d, rng))
        assert tlm_wavelet_norm(c, sp) == pytest.approx(
            brute_force_tlm(c, sp), rel=1e-10)

    def test_collapse_is_exact(self, meyer1d, rng):
        for seed in range(5):
            c = meyer1d.analyze(band_limited(meyer1d,
                                             np.random.default_rng(seed)))
            sp = SpaceParams(0.12, 1.0 / 2.0, 2.0, 2.0)
            assert tlm_wavelet_norm(c, sp) == tl_norm(c, 0.12, 2.0, 2.0)

    @settings(max_examples=40)
    @given(family=st.sampled_from(["meyer", "daubechies"]),
           n=st.sampled_from([1, 2]), J=st.integers(2, 8),
           gamma1=st.floats(-0.5, 0.5), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
           q=st.sampled_from([1.0, 1.5, 2.0, 4.0]), seed=st.integers(0, 2**16))
    def test_collapse_identity_at_gamma2_n_over_p(self, family, n, J, gamma1,
                                                  p, q, seed):
        """At gamma2 = n/p the Morrey weight is 1 and the torus is the cube
        of the sup: the TLM norm is the TL norm."""
        basis = build_basis(family, GridSpec(n, J if n == 1 else min(J, 6), 0))
        data = np.random.default_rng(seed).standard_normal(basis.spec.shape)
        c = basis.analyze_stack(data)
        assert tlm_wavelet_norm(c, SpaceParams(gamma1, n / p, p, q)) == \
            pytest.approx(tl_norm(c, gamma1, p, q), rel=1e-12)

    def test_degenerate_regime_flag(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        with pytest.warns(DegenerateRegimeWarning):
            tlm_wavelet_norm(c, SpaceParams(0.0, 0.9, 2.0, 2.0))

    @pytest.mark.parametrize("family, n, J", [("meyer", 1, 8), ("daubechies", 1, 7),
                                              ("meyer", 2, 5), ("daubechies", 2, 4)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, 1.5), (1.5, np.inf),
                                      (1.0, 2.0)])
    def test_pruned_report_equals_the_full_table(self, family, n, J, p, q):
        """`per_level` is the table of every cube level's kernel value, bit
        for bit, and value and argmax_cube are its first maximum."""
        basis = build_basis(family, GridSpec(n, J, 0))
        sp = SpaceParams(0.1, 0.2, p, q)
        for seed in range(3):
            data = np.random.default_rng(seed).standard_normal(basis.spec.shape)
            c = basis.analyze_stack(data + 1j * (seed - 1) * data[::-1])
            rep = tlm_wavelet_norm_report(c, sp)
            value, cube, table = full_tlm_table(c, sp)
            assert list(rep.per_level) == list(table)
            assert [x.hex() for x in rep.per_level.values()] \
                == [x.hex() for x in table.values()]
            assert rep.value == value and type(rep.value) is float
            assert rep.argmax_cube == cube

    def test_cli_tlm_report_is_the_unpruned_one(self, tmp_path, capsys):
        """`oscillet norm --kind tlm` prints the value, argmax cube and
        per-level table of the full-table oracle, byte for byte."""
        import json
        from oscillet.cli import main as cli_main
        from oscillet.cli import _save_coeffs
        basis = build_basis("meyer", GridSpec(1, 8, 0))
        data = np.random.default_rng(4).standard_normal(basis.spec.shape)
        c = basis.analyze_stack(data)
        _save_coeffs(c, str(tmp_path / "c.bin"))
        argv = ["norm", "--kind", "tlm", "--gamma1", "0", "--gamma2", "0.3",
                "--p", "2", "--q", "2", "--in", str(tmp_path / "c.bin")]
        out = tmp_path / "tlm.json"
        assert cli_main(argv + ["--report", str(out)]) == 0
        capsys.readouterr()
        value, cube, table = full_tlm_table(c, SpaceParams(0.0, 0.3, 2.0, 2.0))
        want = {"kind": "tlm", "gamma1": 0.0, "gamma2": 0.3, "p": 2.0, "q": 2.0,
                "value": value, "argmax_cube": {"j": cube.j, "k": list(cube.k)},
                "per_level": {str(j0): v for j0, v in table.items()}}
        assert out.read_bytes() \
            == (json.dumps(want, sort_keys=True, indent=1) + "\n").encode()
        assert len(table) == 8

    def test_monotone_in_cube_family(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        rep = tlm_wavelet_norm_report(c, SpaceParams(0.0, 0.3, 2.0, 2.0))
        assert sorted(rep.per_level) == list(range(0, 8))
        small = max(rep.per_level[j0] for j0 in range(0, 4))
        assert rep.value == max(rep.per_level.values()) >= small

    @settings(max_examples=30)
    @given(family=st.sampled_from(["meyer", "daubechies"]),
           n=st.sampled_from([1, 2]), J=st.integers(3, 9), j_min=st.integers(1, 3),
           re=st.floats(-1e3, 1e3), im=st.floats(-1e3, 1e3),
           shifts=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
           seed=st.integers(0, 2**16))
    def test_homogeneous_and_dyadic_shift_invariant(self, family, n, J, j_min,
                                                    re, im, shifts, seed):
        """||z f|| = |z| ||f|| at complex z, and a shift by a multiple of
        2^{-j_min} per axis (the coarsest cube side) moves every detail
        block and every cube the sup runs over onto another of its level,
        so it leaves the norm as it is."""
        z = complex(re, im)
        assume(abs(z) >= 1e-3)
        J = max(J if n == 1 else min(J, 6), j_min + 2)
        basis = build_basis(family, GridSpec(n, J, j_min))
        sp = SpaceParams(0.1, 0.2, 2.0, 1.5)
        data = np.random.default_rng(seed).standard_normal(basis.spec.shape)
        norm = tlm_wavelet_norm(basis.analyze_stack(data), sp)
        assert norm > 0
        assert tlm_wavelet_norm(basis.analyze_stack(z * data), sp) == \
            pytest.approx(abs(z) * norm, rel=1e-12)
        step = basis.spec.samples_per_axis >> j_min
        moved = np.roll(data, [step * m for m in shifts[:n]], axis=tuple(range(n)))
        assert tlm_wavelet_norm(basis.analyze_stack(moved), sp) == \
            pytest.approx(norm, rel=1e-12)

    def test_quasinorm_axioms(self, meyer1d, rng):
        sp = SpaceParams(0.2, 0.3, 2.0, 2.0)
        u = meyer1d.analyze(band_limited(meyer1d, rng))
        v = meyer1d.analyze(band_limited(meyer1d, rng))
        nu, nv = tlm_wavelet_norm(u, sp), tlm_wavelet_norm(v, sp)
        assert tlm_wavelet_norm(u.scaled(2.0), sp) == pytest.approx(2 * nu, rel=1e-12)
        assert tlm_wavelet_norm(u + v, sp) <= nu + nv + 1e-8


class TestOscillationNorm:
    def test_polynomial_is_zero(self, meyer1d):
        spec = meyer1d.spec
        x = spec.meshgrid()[0]
        poly = GridFunction(spec, 0.7 - 1.3 * x + 0.5 * x**2 + 0.2 * x**3)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        val = oscillation_norm(poly, sp, CutoffFamily(n=1), 3, meyer1d,
                               cube_levels=range(0, 6))
        assert val < 1e-6

    def test_zero(self, meyer1d):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        val = oscillation_norm(GridFunction.zeros(meyer1d.spec), sp,
                               CutoffFamily(n=1), 3, meyer1d,
                               cube_levels=range(0, 4))
        assert val == 0.0

    def test_cutoff_independence(self, meyer1d, rng):
        # two admissible bumps: the norms stay within a fixed bracket
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cut_a = CutoffFamily(n=1)
        cut_b = CutoffFamily(n=1, plateau_radius=1.2, support_radius=2.6)
        ratios = []
        for seed in range(6):
            c = _random_detail_field(meyer1d, sp, seed)
            f = meyer1d.synthesize(c)
            va = oscillation_norm(f, sp, cut_a, 1, meyer1d)
            vb = oscillation_norm(f, sp, cut_b, 1, meyer1d)
            ratios.append(va / vb)
        assert max(ratios) / min(ratios) < 2.0

    def test_basis_independence_bracket(self, spec1d):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        meyer = build_basis("meyer", spec1d)
        daub = build_basis("daubechies", spec1d, m0=6)
        ratios = []
        for seed in range(6):
            c = _random_detail_field(meyer, sp, seed)
            f = meyer.synthesize(c)
            vm = tlm_wavelet_norm(meyer.analyze(f), sp)
            vd = tlm_wavelet_norm(daub.analyze(f), sp)
            ratios.append(vm / vd)
        assert max(ratios) / min(ratios) < 2.0
        assert 0.25 < min(ratios) and max(ratios) < 4.0

    def test_refine_does_not_exceed_moment_solution(self, meyer1d, rng):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        f = meyer1d.synthesize(_random_detail_field(meyer1d, sp, 5))
        rep = oscillation_norm_report(f, sp, CutoffFamily(n=1), 2, meyer1d,
                                      cube_levels=range(0, 3), refine=True)
        assert rep.refined_value is not None
        assert rep.refined_value <= rep.value + 1e-12


def oracle_chart(spec, cutoff, cube):
    """The sample slices covering supp(phi_Q), clipped to [0, 1)^n, and the
    scaled coordinates (x - x_Q)/r along each axis."""
    N, r = spec.samples_per_axis, cube.side
    R = cutoff.support_radius * r
    slices, axes = [], []
    for ci in cube.center:
        lo = max(0, int(np.floor((ci - R) * N)))
        hi = min(N, int(np.ceil((ci + R) * N)) + 1)
        slices.append(slice(lo, hi))
        axes.append((np.arange(lo, hi) / N - ci) / r)
    return slices, axes


def per_cube_oracle(f, sp, cutoff, m0, basis, cube):
    """The oscillation of one cube from the definition: its own chart, an
    lstsq moment fit, one full-grid analyze and tl_norm, the Morrey weight."""
    spec = f.spec
    slices, axes = oracle_chart(spec, cutoff, cube)
    grids = np.meshgrid(*axes, indexing="ij")
    weight = cutoff.evaluate(np.sqrt(sum(g**2 for g in grids)))
    fvals = f.data[tuple(slices)]
    monos = []
    for expo in norms._monomial_exponents(spec.n, m0):
        mono = np.ones_like(grids[0])
        for g, d in zip(grids, expo):
            if d:
                mono = mono * g**d
        monos.append(mono)
    G = np.array([[np.sum(weight * ma * mb) for mb in monos] for ma in monos])
    b = np.array([np.sum(weight * ma * fvals) for ma in monos])
    coeffs = np.linalg.lstsq(G, b, rcond=None)[0]
    poly = np.zeros_like(grids[0], dtype=complex)
    for coeff, mono in zip(coeffs, monos):
        poly += coeff * mono
    g = np.zeros(spec.shape, dtype=complex)
    g[tuple(slices)] = weight * (fvals - poly)
    tl = tl_norm(basis.analyze(GridFunction(spec, g)), sp.gamma1, sp.p, sp.q)
    return 2.0 ** (-cube.j * (sp.gamma2 - spec.n / sp.p)) * tl


def oracle_table(f, sp, cutoff, m0, basis):
    return [(cube, per_cube_oracle(f, sp, cutoff, m0, basis, cube))
            for cube in enumerate_cubes(f.spec, f.spec.j_min, f.spec.J - 1)]


class TestLevelBatchedOscillation:
    """The level-batched evaluation against the cube-by-cube definition."""

    @pytest.mark.parametrize("J", [7, 9])
    @pytest.mark.parametrize("m0", [1, 3])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_meyer_bitwise(self, J, m0, p):
        # at J=9 a chunk holds 32 cubes: levels 0-4 fit in one chunk,
        # levels 5-8 take several
        spec = GridSpec(n=1, J=J, j_min=0)
        basis = build_basis("meyer", spec)
        sp = SpaceParams(0.1, 0.2, p, 2.0)
        f = basis.synthesize(_random_detail_field(basis, sp, J + m0))
        rep = oscillation_norm_report(f, sp, CutoffFamily(n=1), m0, basis)
        assert rep.per_cube == oracle_table(f, sp, CutoffFamily(n=1), m0, basis)

    def test_partial_last_chunk_bitwise(self, monkeypatch):
        # three cubes per chunk: every level past the second ends in a
        # partial chunk, and the cut-off below clips boundary charts to
        # several different widths
        spec = GridSpec(n=1, J=7, j_min=0)
        basis = build_basis("meyer", spec)
        monkeypatch.setattr(wavelet, "CHUNK_BYTES", 3 * 16 * spec.size)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cut = CutoffFamily(n=1, plateau_radius=1.2, support_radius=2.6)
        f = basis.synthesize(_random_detail_field(basis, sp, 4))
        rep = oscillation_norm_report(f, sp, cut, 2, basis)
        assert rep.per_cube == oracle_table(f, sp, cut, 2, basis)

    @pytest.mark.parametrize("family, n, J", [("daubechies", 1, 7),
                                              ("meyer", 2, 5)])
    def test_other_families_and_dimensions(self, family, n, J):
        spec = GridSpec(n=n, J=J, j_min=0)
        basis = build_basis(family, spec)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        f = GridFunction(spec, np.random.default_rng(J).standard_normal(
            spec.shape))
        rep = oscillation_norm_report(f, sp, CutoffFamily(n=n), 1, basis)
        want = oracle_table(f, sp, CutoffFamily(n=n), 1, basis)
        assert [cube for cube, _ in rep.per_cube] == [cube for cube, _ in want]
        assert [v for _, v in rep.per_cube] == pytest.approx(
            [v for _, v in want], rel=1e-12)

    @pytest.mark.parametrize("n, J, j0", [(1, 8, 5), (2, 5, 3)])
    def test_one_lstsq_per_distinct_chart(self, n, J, j0, monkeypatch):
        # boundary cubes have clipped charts of their own; every interior
        # cube shares one chart, so one multi-RHS solve serves them all
        spec = GridSpec(n=n, J=J, j_min=0)
        basis = build_basis("meyer", spec)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cutoff = CutoffFamily(n=n)
        f = basis.synthesize(_random_detail_field(basis, sp, 3))
        cubes = list(enumerate_cubes(spec, j0, j0))
        charts = {tuple(u.tobytes() for u in oracle_chart(spec, cutoff, cube)[1])
                  for cube in cubes}
        assert 1 < len(charts) < len(cubes)
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args[1].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        oscillation_norm_report(f, sp, cutoff, 1, basis, cube_levels=[j0])
        assert len(calls) == len(charts)
        assert sum(shape[1] for shape in calls) == len(cubes)
        # a batch shares the charts: as many solves, a column per sample
        del calls[:]
        fs = [f, 2.0 * f, GridFunction(spec, f.data + 1.0)]
        oscillation_norm_report(fs, sp, cutoff, 1, basis, cube_levels=[j0])
        assert len(calls) == len(charts)
        assert sum(shape[1] for shape in calls) == 3 * len(cubes)

    def test_first_ill_conditioned_cube_is_named(self):
        spec = GridSpec(n=1, J=8, j_min=0)
        basis = build_basis("meyer", spec)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        f = basis.synthesize(_random_detail_field(basis, sp, 2))
        tiny = CutoffFamily(n=1, plateau_radius=1e-3, support_radius=2e-3)
        with pytest.raises(MomentConditioningError) as err:
            oscillation_norm_report(f, sp, tiny, 3, basis, cube_levels=[7])
        assert err.value.cube == DyadicCube(j=7, k=(0,))


def chart_key(spec, cutoff, cube):
    """The oracle chart's sample box, as its offset from the cube's first
    sample per axis and its width per axis."""
    slices, _ = oracle_chart(spec, cutoff, cube)
    step = 1 << (spec.J - cube.j)
    return tuple((sl.start - ki * step, sl.stop - sl.start)
                 for sl, ki in zip(slices, cube.k))


class TestSweepOscillation:
    """One call over the grids of a J sweep against one call per grid."""

    @pytest.mark.parametrize("n, J, j0", [(1, 7, 4), (1, 8, 2), (2, 4, 2),
                                          (2, 5, 3)])
    def test_charts_depend_on_J_minus_j0_only(self, n, J, j0):
        # the chart of a level-j0 cube on the 2^J grid and the chart with
        # the same key of a level-(j0+1) cube on the 2^(J+1) grid: the same
        # coordinates, bump weight and Gram matrix, bit for bit
        cutoff = CutoffFamily(n=n)

        def charts(J, j0):
            spec = GridSpec(n=n, J=J, j_min=0)
            out = {}
            for cube in enumerate_cubes(spec, j0, j0):
                key = chart_key(spec, cutoff, cube)
                if key in out:
                    continue
                axes = oracle_chart(spec, cutoff, cube)[1]
                grids = np.meshgrid(*axes, indexing="ij")
                weight = cutoff.evaluate(np.sqrt(sum(g**2 for g in grids)))
                monos = [np.prod([g**d for g, d in zip(grids, e)], axis=0)
                         for e in norms._monomial_exponents(n, 3)]
                gram = np.array([[np.sum(weight * a * b) for b in monos]
                                 for a in monos])
                out[key] = (axes, weight, gram)
                # the library's chart of the cube is the oracle's
                _, u, radius = norms._cube_chart(spec, j0, cube.k, cutoff)
                for got, want in zip(u, grids):
                    assert_array_equal(got, want.reshape(-1))
                assert_array_equal(cutoff.evaluate(radius), weight.reshape(-1))
            return out

        coarse, fine = charts(J, j0), charts(J + 1, j0 + 1)
        shared = coarse.keys() & fine.keys()
        # the interior chart and some boundary-clipped ones
        assert len(shared) > 1
        for key in shared:
            for got, want in zip(fine[key][0], coarse[key][0]):
                assert_array_equal(got, want)
            assert_array_equal(fine[key][1], coarse[key][1])
            assert_array_equal(fine[key][2], coarse[key][2])

    @staticmethod
    def sweep(family, n, Js, counts):
        bases = [build_basis(family, GridSpec(n=n, J=J, j_min=0)) for J in Js]
        rng = np.random.default_rng(10 * n + len(family))
        return bases, [[GridFunction(b.spec, rng.standard_normal(b.spec.shape))
                        for _ in range(count)] for b, count in zip(bases, counts)]

    @pytest.mark.parametrize("family, n, Js", [
        ("meyer", 1, (6, 7, 8)), ("daubechies", 1, (6, 7, 8)),
        ("meyer", 2, (3, 4, 5)), ("daubechies", 2, (3, 4, 5))])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_sweep_matches_one_call_per_grid(self, family, n, Js, p):
        # p = 3 has no bound: every row is evaluated
        bases, fss = self.sweep(family, n, Js, (2, 3, 1))
        sp = SpaceParams(0.0, 0.3, p, 2.0)
        cutoff = CutoffFamily(n=n)
        got = oscillation_norm_report(fss, sp, cutoff, 1, bases)
        assert [len(reps) for reps in got] == [2, 3, 1]
        for basis, fs, reps in zip(bases, fss, got):
            for rep, want in zip(reps, oscillation_norm_report(fs, sp, cutoff,
                                                               1, basis)):
                TestSampleBatch.assert_same(rep, want)

    def test_sweep_shapes(self, meyer1d):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cutoff = CutoffFamily(n=1)
        bases, fss = self.sweep("meyer", 1, (5, 6), (1, 2))
        assert oscillation_norm_report([], sp, cutoff, 1, []) == []
        reps = oscillation_norm_report([[], fss[1]], sp, cutoff, 1, bases)
        assert reps[0] == [] and len(reps[1]) == 2
        with pytest.raises(ParameterError):
            oscillation_norm_report(fss, sp, cutoff, 1, bases[:1])
        with pytest.raises(GridMismatchError):
            oscillation_norm_report([fss[0] + fss[1]], sp, cutoff, 1, bases[:1])

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0), (1, 2, 0)])
    def test_first_ill_conditioned_cube_follows_grid_order(self, order):
        # with this cut-off only the charts with J - j0 = 1 are singular,
        # and on each grid the last cube of its finest level comes first
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        bad = CutoffFamily(n=1, plateau_radius=0.3, support_radius=0.6)
        bases, fss = self.sweep("meyer", 1, (7, 8, 9), (1, 2, 1))
        bases, fss = [bases[i] for i in order], [fss[i] for i in order]
        with pytest.raises(MomentConditioningError) as own:
            oscillation_norm_report(fss[0], sp, bad, 2, bases[0])
        with pytest.raises(MomentConditioningError) as err:
            oscillation_norm_report(fss, sp, bad, 2, bases)
        J = bases[0].spec.J
        assert own.value.cube == DyadicCube(J - 1, ((1 << (J - 1)) - 1,))
        assert err.value.cube == own.value.cube


class TestSampleBatch:
    """A batch of samples against one call per sample, bit for bit."""

    @staticmethod
    def samples(family, n, J, count):
        basis = build_basis(family, GridSpec(n=n, J=J, j_min=0))
        rng = np.random.default_rng(100 * n + J)
        return basis, [GridFunction(basis.spec, rng.standard_normal(
            basis.spec.shape)) for _ in range(count)]

    @staticmethod
    def assert_same(got, want):
        assert [cube for cube, _ in got.per_cube] == \
            [cube for cube, _ in want.per_cube]
        assert_array_equal([v for _, v in got.per_cube],
                           [v for _, v in want.per_cube])
        assert_array_equal(got.value, want.value)
        assert got.argmax_cube == want.argmax_cube
        assert got.refined_value == want.refined_value

    @pytest.mark.parametrize("family, n, J", [
        ("meyer", 1, 8), ("daubechies", 1, 8), ("meyer", 2, 5),
        ("daubechies", 2, 5)])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_batch_matches_single_calls(self, family, n, J, count):
        # a chunk holds 64 rows at n=1, J=8 and 16 at n=2, J=5, so at these
        # counts sample boundaries fall inside chunks, at the coarse levels
        # (all samples in one chunk) and the fine ones alike
        basis, fs = self.samples(family, n, J, count)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cutoff = CutoffFamily(n=n)
        reps = oscillation_norm_report(fs, sp, cutoff, 1, basis)
        assert isinstance(reps, list) and len(reps) == count
        for f, rep in zip(fs, reps):
            self.assert_same(rep, oscillation_norm_report(f, sp, cutoff, 1, basis))

    @pytest.mark.parametrize("family, n, J, levels", [
        ("meyer", 1, 8, [6, 2]), ("daubechies", 1, 8, [3, 7]),
        ("meyer", 2, 5, [1, 3]), ("daubechies", 2, 5, [4, 0])])
    def test_level_subset_and_refine_per_sample(self, family, n, J, levels):
        basis, fs = self.samples(family, n, J, 3)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        cutoff = CutoffFamily(n=n)
        reps = oscillation_norm_report(fs, sp, cutoff, 2, basis,
                                       cube_levels=levels, refine=True)
        for f, rep in zip(fs, reps):
            want = oscillation_norm_report(f, sp, cutoff, 2, basis,
                                           cube_levels=levels, refine=True)
            assert want.refined_value is not None
            self.assert_same(rep, want)

    def test_empty_and_mixed_batches(self, meyer1d, meyer2d):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        assert oscillation_norm_report([], sp, CutoffFamily(n=1), 1, meyer1d) == []
        f1 = GridFunction.zeros(meyer1d.spec)
        f2 = GridFunction.zeros(meyer2d.spec)
        with pytest.raises(GridMismatchError):
            oscillation_norm_report([f1, f2], sp, CutoffFamily(n=1), 1, meyer1d)
        bad = GridFunction(meyer1d.spec, np.full(meyer1d.spec.shape, np.nan))
        with pytest.raises(ParameterError, match="non-finite"):
            oscillation_norm_report([f1, bad], sp, CutoffFamily(n=1), 1, meyer1d)


def full_sup(table):
    """The sup of a complete per-cube table and the first cube attaining
    it, as the report defines them: (0.0, None) when no value is
    positive."""
    best, best_cube = 0.0, None
    for cube, val in table:
        if val > best:
            best, best_cube = val, cube
    return best, best_cube


# the (p, q) of the bound's cases: each side of p = 2 and of q = 2
BOUND_PQ = [(2.0, 2.0), (1.5, np.inf), (1.0, 1.5), (2.0, 1.0), (3.0, 2.0)]


class TestBoundedOscillation:
    """Every cube's Bessel bound against its exact value, and the pruned
    sup against the complete table."""

    @staticmethod
    def samples(family, n, J):
        """White noise, a random detail field (the harness's input kind), a
        sample so small that its residuals' squares underflow, and one that
        vanishes on half the torus, where residuals are exactly zero."""
        basis = build_basis(family, GridSpec(n=n, J=J, j_min=0))
        spec = basis.spec
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        noise = np.random.default_rng(10 * n + J).standard_normal(spec.shape)
        smooth = basis.synthesize(_random_detail_field(basis, sp, J)).data
        half = noise * (spec.meshgrid()[0] >= 0.5)
        return basis, [GridFunction(spec, a)
                       for a in (noise, smooth, 1e-200 * noise, half)]

    @pytest.mark.parametrize("family", ["meyer", "daubechies"])
    @pytest.mark.parametrize("n, J", [(1, 6), (1, 8), (2, 3), (2, 4)])
    def test_bound_is_at_least_every_value(self, family, n, J):
        basis, fs = self.samples(family, n, J)
        fs = fs[:2]          # the other two have no finite bound to test
        cutoff = CutoffFamily(n=n)
        for (p, q), gamma1 in itertools.product(BOUND_PQ, (-0.2, 0.0, 0.5)):
            sp = SpaceParams(gamma1, 0.3, p, q)
            reps = oscillation_norm_report(fs, sp, cutoff, 1, basis)
            for rep in reps:
                rep.per_cube                       # every row evaluated
            rows, sup = reps[0]._rows, reps[0]._sup
            assert sup.done.all()
            assert np.all(sup.values <= rows.ceiling), (p, q, gamma1)
            if p > 2:
                # no bound: every row is evaluated, whatever its residual
                assert not np.any(rows.ceiling < np.inf)

    @pytest.mark.parametrize("family, n, J", [
        ("meyer", 1, 7), ("daubechies", 1, 7), ("meyer", 2, 4),
        ("daubechies", 2, 4)])
    @pytest.mark.parametrize("p, q, gamma1", [
        (2.0, 2.0, 0.0), (1.5, np.inf, -0.2), (1.0, 1.5, 0.5), (2.0, 1.0, 0.0),
        (3.0, 2.0, 0.5)])
    def test_pruned_sup_is_the_full_tables(self, family, n, J, p, q, gamma1):
        basis, fs = self.samples(family, n, J)
        sp = SpaceParams(gamma1, 0.3, p, q)
        reps = oscillation_norm_report(fs, sp, CutoffFamily(n=n), 1, basis)
        skipped = int(np.sum(~reps[0]._sup.done))
        assert (skipped == 0) if p > 2 else (skipped > 0)
        for rep in reps:
            value, cube = full_sup(rep.per_cube)
            assert_array_equal(rep.value, value)
            assert rep.argmax_cube == cube

    def test_a_tie_goes_to_the_first_cube(self, monkeypatch):
        # TL norms rounded down to multiples of 1/8 stay below the bound
        # and tie bitwise: at p = 1, gamma2 = 0 the Morrey weight 2^{j0}
        # puts the largest bound at the finest level, while the first cube
        # of the tie lies elsewhere
        basis = build_basis("daubechies", GridSpec(n=2, J=5, j_min=0))
        rng = np.random.default_rng(5)
        fs = [GridFunction(basis.spec, rng.standard_normal(basis.spec.shape))
              for _ in range(3)]
        tl = norms.tl_norm
        monkeypatch.setattr(norms, "tl_norm",
                            lambda c, *args: np.floor(tl(c, *args) * 8) / 8)
        sp = SpaceParams(0.0, 0.0, 1.0, 2.0)
        reps = oscillation_norm_report(fs, sp, CutoffFamily(n=2), 1, basis)
        rows, sup = reps[0]._rows, reps[0]._sup
        pass_one = [rows.cube(r[np.argmax(rows.ceiling[r])])
                    for r in map(sup.members, range(len(fs)))]
        assert not sup.done.all()
        for rep, first in zip(reps, pass_one):
            value, cube = full_sup(rep.per_cube)
            assert [c for c, v in rep.per_cube if v == value][1:]   # a tie
            assert rep.value == value and rep.argmax_cube == cube
        assert any(first != rep.argmax_cube for rep, first in zip(reps, pass_one))

    def test_few_rows_are_analyzed(self, monkeypatch):
        # the osc-1d shape at J = 8: 3 x 255 (sample, cube) rows
        spec = GridSpec(n=1, J=8, j_min=0)
        basis = build_basis("meyer", spec)
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        fs = [basis.synthesize(_random_detail_field(basis, sp, s))
              for s in range(3)]
        analyzed = []
        analyze = basis.analyze_stack
        monkeypatch.setattr(basis, "analyze_stack",
                            lambda data: analyzed.append(len(data)) or analyze(data))
        reps = oscillation_norm_report(fs, sp, CutoffFamily(n=1), 1, basis)
        pruned = sum(analyzed)
        assert 3 <= pruned <= 0.1 * 3 * 255
        # the complete tables analyze each skipped row once, and agree
        for rep in reps:
            assert full_sup(rep.per_cube) == (rep.value, rep.argmax_cube)
        assert sum(analyzed) == 3 * 255


class TestNonFiniteInput:
    @pytest.mark.parametrize("gamma1, gamma2", [
        (np.nan, 0.3), (0.0, np.nan), (np.inf, 0.3), (0.0, -np.inf)])
    def test_space_params_reject_nonfinite_gammas(self, gamma1, gamma2):
        with pytest.raises(ParameterError):
            SpaceParams(gamma1, gamma2, 2.0, 2.0)

    def test_nan_gamma1_is_not_a_zero_norm(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        with pytest.raises(ParameterError):
            tlm_wavelet_norm(c, SpaceParams(np.nan, 0.3, 2.0, 2.0))
        with pytest.raises(ParameterError):
            tl_norm(c, np.nan, 2.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tlm_rejects_nonfinite_coefficient(self, meyer1d, rng, bad):
        # the cube-sup > comparisons would pass over a NaN and return the
        # clean value
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        c.detail[((1,), 5)][3] = bad
        with pytest.raises(ParameterError):
            tlm_wavelet_norm(c, SpaceParams(0.0, 0.3, 2.0, 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_tl_rejects_nonfinite_coefficient(self, meyer1d, rng, bad):
        # a NaN norm would pass as a value; one bad row of a stack raises
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        c.detail[((1,), 5)][3] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            tl_norm(c, 0.0, 2.0, 2.0)
        stack = meyer1d.analyze_stack(np.stack([band_limited(meyer1d, rng).data] * 3))
        stack.detail[((1,), 2)][1, 0] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            tl_norm(stack, 0.0, 2.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_oscillation_rejects_nonfinite_sample(self, meyer1d, bad):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        f = meyer1d.synthesize(_random_detail_field(meyer1d, sp, 3))
        f.data[100] = bad
        with pytest.raises(ParameterError):
            oscillation_norm_report(f, sp, CutoffFamily(n=1), 1, meyer1d)


class TestVectorMaximal:
    def test_constant(self, spec1d):
        c = GridFunction(spec1d, np.full(spec1d.shape, 3.0))
        M = vector_maximal([c], 1.0)
        np.testing.assert_allclose(M.data.real, 3.0, atol=1e-14)

    def test_indicator_oracle(self, spec1d):
        # indicator of the level-3 cube k=5: direct ancestor enumeration
        ind = GridFunction.zeros(spec1d)
        cube = DyadicCube(3, (5,))
        ind.data[cube_sample_slices(spec1d, cube)] = 1.0
        M = vector_maximal([ind], 1.0)
        x_idx = [0, 40, 170, 255]
        for i in x_idx:
            expected = 0.0
            for j in range(0, spec1d.J + 1):
                k = i >> (spec1d.J - j)
                anc = DyadicCube(j, (k,))
                sl = cube_sample_slices(spec1d, anc)
                expected = max(expected, float(np.mean(ind.data[sl].real)))
            assert M.data[i].real == pytest.approx(expected, rel=1e-12)

    def test_dominates_pointwise(self, spec1d, rng):
        fs = [GridFunction(spec1d, rng.standard_normal(spec1d.shape))
              for _ in range(3)]
        M = vector_maximal(fs, 2.0)
        for f in fs:
            assert np.all(M.data.real >= np.abs(f.data) - 1e-12)

    def test_empty_sequence(self, spec1d):
        out = vector_maximal([], 1.0, spec=spec1d)
        assert np.all(out.data == 0.0)
        with pytest.raises(ParameterError):
            vector_maximal([], 1.0)


class TestKernelSum:
    def test_zero_field(self, meyer1d):
        c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        assert kernel_sum(c, 4, 5, (3,), 3.0, 0.0) == 0.0

    def test_distance_zero_single(self, meyer1d):
        c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        j_prime, j, k = 4, 6, (12,)
        # k' = 2^{j'-j} k = 3 exactly
        c.set(WaveletIndex((1,), j_prime, (3,)), -2.0)
        val = kernel_sum(c, j_prime, j, k, 3.0, 0.5)
        assert val == pytest.approx(2.0 ** (j_prime * (0.5 + 0.5)) * 2.0, rel=1e-12)

    def test_bound_report(self, meyer1d, rng):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        c = _random_detail_field(meyer1d, sp, 11)
        ratios = []
        for (j, j_prime, k) in [(5, 3, (7,)), (3, 5, (2,)), (4, 4, (9,))]:
            rep = kernel_bound_report(c, j_prime, j, k, gamma=3.0, s=0.0, A=1.0)
            assert rep.guaranteed
            assert np.isfinite(rep.ratio)
            ratios.append(rep.ratio)
        assert max(ratios) < 50.0

    def test_gamma_flag(self, meyer1d, rng):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        c = _random_detail_field(meyer1d, sp, 11)
        with pytest.warns(UserWarning):
            rep = kernel_bound_report(c, 4, 4, (3,), gamma=1.0, s=0.0, A=1.0)
        assert not rep.guaranteed

    @pytest.mark.parametrize("n, j, k", [(1, 2, (99,)), (1, 2, (4,)), (1, 2, (-1,)),
                                         (1, 2, (1, 2)), (1, 2, ()), (1, -1, (0,)),
                                         (2, 2, (1,)), (2, 3, (0, 8)), (2, -1, (0, 0))])
    def test_cube_outside_the_torus_raises(self, meyer1d, meyer2d, n, j, k):
        basis = meyer1d if n == 1 else meyer2d
        c = _random_detail_field(basis, SpaceParams(0.0, 0.3, 2.0, 2.0), 11)
        with pytest.raises(ParameterError):
            kernel_sum(c, 2, j, k, 4.0, 0.0)
        with pytest.raises(ParameterError):
            kernel_bound_report(c, 2, j, k, gamma=4.0, s=0.0, A=1.0)

    @pytest.mark.parametrize("j, k", [(2, (1.5,)), (2, (True,)), (2, (1.0,)),
                                      (2.0, (1,)), (True, (0,))])
    def test_non_integer_cube_raises(self, meyer1d, j, k):
        # 2^j k would place a finite kernel anywhere on the torus; a bool
        # would read as 0 or 1
        c = _random_detail_field(meyer1d, SpaceParams(0.0, 0.3, 2.0, 2.0), 11)
        with pytest.raises(ParameterError):
            kernel_sum(c, 2, j, k, 4.0, 0.0)


class TestQuasiNormAndSupAggregate:
    def test_quasi_banach_exponents(self, meyer1d, rng):
        # 0 < p, q < 1: the quasi-norm is computed (no triangle asserted)
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        sp = SpaceParams(0.1, 0.2, 0.8, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = tlm_wavelet_norm(c, sp)
        assert np.isfinite(v) and v > 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tlm_wavelet_norm(c.scaled(2.0), sp) == pytest.approx(
                2 * v, rel=1e-12)

    def test_q_inf_aggregate(self, meyer1d):
        # q = inf: pointwise sup over (eps, j); single coefficient closed form
        c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        j, k = 4, 3
        c.set(WaveletIndex((1,), j, (k,)), 1.0)
        sp = SpaceParams(0.25, 0.2, 2.0, np.inf)
        v = tlm_wavelet_norm(c, sp)
        assert v == pytest.approx(2.0 ** (j * (0.25 + 0.5 - 0.2)), rel=1e-12)


class TestOscillation2D:
    def test_polynomial_zero_2d(self):
        spec = GridSpec(n=2, J=4, j_min=0)
        basis = build_basis("meyer", spec)
        X, Y = spec.meshgrid()
        poly = GridFunction(spec, 0.5 + X - 2 * Y + 0.3 * X * Y)
        sp = SpaceParams(0.0, 0.4, 2.0, 2.0)
        val = oscillation_norm(poly, sp, CutoffFamily(n=2), 2, basis,
                               cube_levels=range(0, 3))
        assert val < 1e-6

    def test_ratio_sane_2d(self):
        spec = GridSpec(n=2, J=5, j_min=0)
        basis = build_basis("meyer", spec)
        sp = SpaceParams(0.0, 0.4, 2.0, 2.0)
        c = _random_detail_field(basis, sp, 31)
        f = basis.synthesize(c)
        wav = tlm_wavelet_norm(c, sp)
        osc = oscillation_norm(f, sp, CutoffFamily(n=2), 1, basis,
                               cube_levels=range(0, 4))
        assert 0.2 < osc / wav < 5.0
