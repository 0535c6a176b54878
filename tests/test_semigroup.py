import numpy as np
import pytest
from scipy.integrate import quad

from oscillet import semigroup
from oscillet.errors import ParameterError
from oscillet.grid import GridFunction, GridSpec, lp_norm, rel_l2_error
from oscillet.norms import SpaceParams
from oscillet.operators import _random_detail_field
from oscillet.semigroup import (
    SemigroupSpec,
    TimeGrid,
    calibrate_family,
    check_decay_bounds,
    check_dual_bound,
    default_time_grid,
    evolve_coefficients,
    fit_ctilde,
    frames_from_tcf,
    heat_apply,
    heat_frames,
    pi_phi_report,
)
from oscillet.wavelet import (
    CoeffField,
    WaveletIndex,
    build_basis,
    detail_types,
    read_coeff_field,
    write_coeff_field,
)
from conftest import band_limited


class TestHeatApply:
    def test_identity_at_zero(self, spec1d, rng):
        sg = SemigroupSpec(1.0, spec1d)
        f = GridFunction(spec1d, rng.standard_normal(spec1d.shape))
        np.testing.assert_allclose(heat_apply(sg, f, 0.0).data, f.data,
                                   atol=1e-14)

    def test_pure_mode(self, spec1d):
        sg = SemigroupSpec(1.0, spec1d)
        x = spec1d.meshgrid()[0]
        for m in (1, 5, -17):
            f = GridFunction(spec1d, np.exp(2j * np.pi * m * x))
            out = heat_apply(sg, f, 0.02)
            scale = np.exp(-0.02 * (2 * np.pi * abs(m)) ** 2)
            np.testing.assert_allclose(out.data, scale * f.data, atol=1e-12)

    def test_semigroup_law_and_contraction(self, spec1d, rng):
        for beta in (0.5, 1.0):
            sg = SemigroupSpec(beta, spec1d)
            f = GridFunction(spec1d, rng.standard_normal(spec1d.shape))
            lhs = heat_apply(sg, heat_apply(sg, f, 0.004), 0.006)
            rhs = heat_apply(sg, f, 0.010)
            assert rel_l2_error(lhs, rhs) < 1e-10
            assert lp_norm(heat_apply(sg, f, 0.5), 2) <= lp_norm(f, 2) + 1e-14

    def test_mass_conserved(self, spec1d, rng):
        sg = SemigroupSpec(0.75, spec1d)
        f = GridFunction(spec1d, rng.standard_normal(spec1d.shape))
        assert np.mean(heat_apply(sg, f, 1.3).data) == pytest.approx(
            np.mean(f.data), abs=1e-14)

    def test_negative_time(self, spec1d):
        sg = SemigroupSpec(1.0, spec1d)
        with pytest.raises(ParameterError):
            heat_apply(sg, GridFunction.zeros(spec1d), -0.1)


class TestTimeGrid:
    def test_weights_sum(self):
        tg = TimeGrid(1e-6, 4.0, 173)
        assert np.sum(tg.weights()) == pytest.approx(np.log(4.0 / 1e-6))

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 0.5, 10)


class TestEvolveCoefficients:
    def test_slices_match_direct_analysis(self, meyer1d, rng):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = TimeGrid(1e-4, 1.0, 5)
        f = band_limited(meyer1d, rng)
        tcf = evolve_coefficients(sg, meyer1d, f, tg)
        for ell, t in enumerate(tg.nodes()):
            direct = meyer1d.analyze(heat_apply(sg, f, t))
            sl = tcf[ell]
            for key in direct.detail:
                np.testing.assert_allclose(sl.detail[key], direct.detail[key],
                                           atol=1e-12)

    def test_cross_level_leakage_band(self, meyer1d):
        # heat of a single wavelet stays within |j - j'| <= 3 (here <= 1)
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = TimeGrid(1e-7, 0.5, 16)
        idx = WaveletIndex((1,), 4, (5,))
        tcf = evolve_coefficients(sg, meyer1d, meyer1d.basis_function(idx), tg)
        for (eps, j), arr in tcf.detail.items():
            if abs(j - idx.j) > 3:
                assert np.max(np.abs(arr)) < 1e-10
        # the original index dominates at the earliest node
        sl = tcf[0]
        assert abs(sl.get(idx)) > 0.9
        assert abs(sl.get(idx)) == pytest.approx(sl.max_abs(), rel=1e-12)

    def test_zero_field(self, meyer1d):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = TimeGrid(1e-4, 1.0, 3)
        tcf = evolve_coefficients(sg, meyer1d, GridFunction.zeros(meyer1d.spec), tg)
        assert all(np.max(np.abs(a)) == 0 for a in tcf.detail.values())


def evolve_oracle(sg, basis, f, tg):
    """The node-by-node evolution: one propagated spectrum per node."""
    F = basis.fourier(f)
    symbol = sg.symbol()
    out = CoeffField(sg.spec, basis.family, basis.j_min, basis.j_max, tg=tg)
    eps0 = (0,) * sg.spec.n
    for ell, t in enumerate(tg.nodes()):
        Ft = F * np.exp(-t * symbol)
        for eps, j in out.detail:
            out.detail[(eps, j)][ell] = basis._coeffs_from_fourier(Ft, eps, j)
        out.scaling[ell] = basis._coeffs_from_fourier(Ft, eps0, basis.j_min)
    return out


def heat_case(n, J, L):
    spec = GridSpec(n, J, 0)
    basis = build_basis("meyer", spec)
    f = basis.synthesize(_random_detail_field(
        basis, SpaceParams(-0.2, 0.1, 2.0, 2.0), 10 * n + J))
    return basis, SemigroupSpec(1.0, spec), f, default_time_grid(spec, 1.0, L=L)


class TestNodeBatchedHeat:
    """Chunks of nodes against the node-by-node evaluation, bit for bit; with
    `rows` set, a chunk holds that many nodes and the last one is partial."""

    @pytest.mark.parametrize("n, J, L", [(1, 8, 40), (2, 5, 11)])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_evolve_bitwise(self, monkeypatch, n, J, L, rows):
        basis, sg, f, tg = heat_case(n, J, L)
        if rows:
            monkeypatch.setattr(semigroup, "CHUNK_BYTES", rows * 16 * sg.spec.size)
        got = evolve_coefficients(sg, basis, f, tg)
        want = evolve_oracle(sg, basis, f, tg)
        assert got.detail.keys() == want.detail.keys()
        for key in want.detail:
            assert got.detail[key].tobytes() == want.detail[key].tobytes()
        assert got.scaling.tobytes() == want.scaling.tobytes()

    @pytest.mark.parametrize("n, J, L", [(1, 8, 40), (2, 5, 11)])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_frames_bitwise(self, monkeypatch, n, J, L, rows):
        basis, sg, f, tg = heat_case(n, J, L)
        if rows:
            monkeypatch.setattr(semigroup, "CHUNK_BYTES", rows * 16 * sg.spec.size)
        tcf = evolve_coefficients(sg, basis, f, tg)
        # a block that is zero at some nodes of a chunk only, and one that
        # is zero over whole chunks
        finest = (detail_types(n)[0], basis.j_max)
        tcf.detail[finest][1] = 0.0
        tcf.detail[(detail_types(n)[-1], basis.j_min)][:6] = 0.0
        frames = list(frames_from_tcf(basis, tcf))
        assert len(frames) == L
        for ell, frame in enumerate(frames):
            want = basis.synthesize(tcf[ell])
            assert frame.data.tobytes() == want.data.tobytes()


class TestNonFiniteHeatInput:
    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_semigroup_rejects_nonfinite_beta(self, spec1d, beta):
        with pytest.raises(ParameterError):
            SemigroupSpec(beta, spec1d)
        with pytest.raises(ParameterError):
            calibrate_family(beta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolve_rejects_nonfinite_sample(self, meyer1d, rng, bad):
        f = band_limited(meyer1d, rng)
        f.data[17] = bad
        with pytest.raises(ParameterError):
            evolve_coefficients(SemigroupSpec(1.0, meyer1d.spec), meyer1d, f,
                                TimeGrid(1e-4, 1.0, 8))


class TestCalibratedFamily:
    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_admissibility(self, beta):
        fam = calibrate_family(beta)
        assert fam.admissibility["moment_residual"] == 0.0
        assert fam.admissibility["calderon_residual"] < 1e-4
        assert np.isfinite(fam.C_beta) and fam.C_beta > 0

    def test_damped_integral_matches_C_beta(self):
        # independent quadrature of the defining scalar integral
        beta = 1.0
        fam = calibrate_family(beta)
        val, _ = quad(lambda t: fam.radial(np.array([t ** (1 / (2 * beta))]))[0]
                      * np.exp(-t) / t,
                      (2 * np.pi / 3) ** 2, (8 * np.pi / 3) ** 2, limit=300)
        assert val == pytest.approx(1.0 / fam.C_beta, rel=1e-8)


class TestPiPhi:
    def test_zero(self, meyer1d):
        tg = default_time_grid(meyer1d.spec, 1.0, L=32)
        fam = calibrate_family(1.0)
        frames = (GridFunction.zeros(meyer1d.spec) for _ in range(tg.L))
        rec, _ = pi_phi_report(fam, frames, tg, meyer1d.spec)
        assert lp_norm(rec, 2) == 0.0

    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_reconstruction_identity(self, beta, meyer1d, rng):
        sg = SemigroupSpec(beta, meyer1d.spec)
        fam = calibrate_family(beta)
        tg = default_time_grid(meyer1d.spec, beta, L=256)
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        c.scaling[:] = 0.0
        f = meyer1d.synthesize(c)
        rec, rep = pi_phi_report(fam, heat_frames(sg, f, tg), tg, meyer1d.spec)
        assert rel_l2_error(rec, f) < 1e-3
        assert rep.warning is None

    def test_mode_scalar_matches_calibration(self):
        # per-mode reconstruction multiplier equals 1 (condition (iii) rescaled)
        beta = 1.0
        fam = calibrate_family(beta)
        spec = GridSpec(1, 8, 0)
        tg = default_time_grid(spec, beta, L=512)
        nodes, w = tg.nodes(), tg.weights()
        for m in (1, 7, 40):
            xi = 2 * np.pi * m
            vals = (np.exp(-nodes * xi ** (2 * beta))
                    * fam.radial(nodes ** (1 / (2 * beta)) * xi))
            scalar = fam.C_beta * np.sum(w * vals)
            assert scalar == pytest.approx(1.0, abs=2e-3)

    def test_coarse_grid_warns(self, meyer1d):
        fam = calibrate_family(1.0)
        tg = TimeGrid(1e-2, 0.1, 8)   # misses both tails
        frames = (GridFunction.zeros(meyer1d.spec) for _ in range(tg.L))
        with pytest.warns(UserWarning):
            pi_phi_report(fam, frames, tg, meyer1d.spec)


def pi_phi_oracle(fam, frames, tg, spec):
    """The reconstruction node by node: the calibrated multiplier on the
    full grid and one FFT per frame, added in node order."""
    radius = 2 * np.pi * np.sqrt(spec.lattice_norm2())
    acc = np.zeros(spec.shape, dtype=complex)
    dead = 0
    for t, w, frame in zip(tg.nodes(), tg.weights(), frames):
        mult = fam.radial(t ** (1.0 / (2.0 * fam.beta)) * radius)
        if np.any(mult):
            acc += w * mult * np.fft.fftn(frame.data)
        else:
            dead += 1
    return np.fft.ifftn(fam.C_beta * acc), dead


class TestChunkedReconstruction:
    # the 2-d default grid leaves the corner modes short of the annulus
    @pytest.mark.filterwarnings("ignore:time grid does not cover")
    @pytest.mark.parametrize("n, J, L, rows", [(1, 8, 48, 5), (1, 10, 64, 7),
                                               (2, 5, 40, 3)])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_matches_node_loop(self, monkeypatch, n, J, L, rows, chunked):
        spec = GridSpec(n, J, 0)
        fam = calibrate_family(0.75)
        tg = default_time_grid(spec, fam.beta, L=L)
        rng = np.random.default_rng(J * L)
        data = (rng.standard_normal((L,) + spec.shape)
                + 1j * rng.standard_normal((L,) + spec.shape))
        frames = [GridFunction(spec, row) for row in data]
        if chunked:
            # chunk edges inside the run of live nodes, a partial last chunk
            monkeypatch.setattr(semigroup, "CHUNK_BYTES", rows * 16 * spec.size)
        table, _ = fam.multiplier_table(tg, spec)
        live = np.flatnonzero(np.any(table, axis=1))
        assert live.size > rows and live.size % rows
        want, dead = pi_phi_oracle(fam, frames, tg, spec)
        assert dead == L - live.size > 0      # some node adds nothing
        got, _ = pi_phi_report(fam, iter(frames), tg, spec)
        np.testing.assert_array_equal(got.data, want)
        # the table is built once per time grid and grid
        again, _ = pi_phi_report(fam, iter(frames), tg, spec)
        assert fam.multiplier_table(tg, spec)[0] is table
        np.testing.assert_array_equal(again.data, want)

    def test_one_table_per_time_grid_shared_by_a_rescaled_copy(self, meyer1d):
        fam = calibrate_family(1.0)
        tg = default_time_grid(meyer1d.spec, 1.0, L=32)
        table = fam.multiplier_table(tg, meyer1d.spec)
        assert not table[0].flags.writeable and not table[1].flags.writeable
        # C_beta is not an input of the table, beta is
        from dataclasses import replace
        assert replace(fam, C_beta=2.0).multiplier_table(tg, meyer1d.spec) is table
        other = replace(fam, beta=0.5)
        assert other.multiplier_table(tg, meyer1d.spec)[0] is not table[0]
        # a new time grid replaces the last table
        tg2 = default_time_grid(meyer1d.spec, 1.0, L=16)
        assert fam.multiplier_table(tg2, meyer1d.spec)[0].shape[0] == 16
        assert fam.multiplier_table(tg, meyer1d.spec)[0] is not table[0]

    def test_frame_count_is_checked(self, meyer1d):
        fam = calibrate_family(1.0)
        tg = default_time_grid(meyer1d.spec, 1.0, L=16)
        for count in (15, 17):
            frames = (GridFunction.zeros(meyer1d.spec) for _ in range(count))
            with pytest.raises(ParameterError, match=f"expected 16 frames, got {count}"):
                pi_phi_report(fam, frames, tg, meyer1d.spec)


class TestDecayBounds:
    def test_zero_data(self, meyer1d):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = TimeGrid(1e-5, 4.0, 16)
        zero = GridFunction.zeros(meyer1d.spec)
        tcf = evolve_coefficients(sg, meyer1d, zero, tg)
        rep = check_decay_bounds(tcf, meyer1d.analyze(zero), N=4.0)
        assert rep.max_r2 == 0.0
        assert np.all(rep.max_r1 == 0.0)
        assert rep.violations == 0

    def test_single_coefficient_stability(self):
        reports = []
        for J in (8, 9):
            spec = GridSpec(1, J, 0)
            basis = build_basis("meyer", spec)
            sg = SemigroupSpec(1.0, spec)
            tg = default_time_grid(GridSpec(1, 9, 0), 1.0, L=128)
            c0 = basis.analyze(GridFunction.zeros(spec))
            c0.set(WaveletIndex((1,), 3, (3,)), 1.0)
            tcf = evolve_coefficients(sg, basis, basis.synthesize(c0), tg)
            rep = check_decay_bounds(tcf, c0, N=4.0)
            reports.append((J, rep))
            assert rep.seam_residual < 1e-10
        ct, growth = fit_ctilde(reports)
        assert ct > 0
        r1 = [rep.max_r1[-1] for _, rep in reports]
        assert abs(r1[1] / r1[0] - 1) < 0.2


class TestDualBound:
    def test_zero(self, meyer1d):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = TimeGrid(1e-5, 4.0, 16)
        zero = GridFunction.zeros(meyer1d.spec)
        tcf = evolve_coefficients(sg, meyer1d, zero, tg)
        rep = check_dual_bound(meyer1d.analyze(zero), tcf, N=4.0)
        assert rep.max_ratio == 0.0
        assert rep.violations == 0

    def test_single_mode_finite_and_concentrated(self, meyer1d, rng):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        fam = calibrate_family(1.0)
        tg = default_time_grid(meyer1d.spec, 1.0, L=192)
        c0 = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        c0.set(WaveletIndex((1,), 4, (7,)), 1.0)
        tcf = evolve_coefficients(sg, meyer1d, meyer1d.synthesize(c0), tg)
        rec, _ = pi_phi_report(fam, frames_from_tcf(meyer1d, tcf), tg,
                               meyer1d.spec)
        c_rec = meyer1d.analyze(rec)
        rep_lo = check_dual_bound(c_rec, tcf, N=2.0)
        rep_hi = check_dual_bound(c_rec, tcf, N=6.0)
        assert np.isfinite(rep_lo.max_ratio) and rep_lo.max_ratio > 0
        # larger N concentrates the integrand near t ~ 2^{-2 j beta}
        assert rep_hi.concentration >= rep_lo.concentration


def test_time_field_serialization(tmp_path, meyer1d, rng):
    sg = SemigroupSpec(0.75, meyer1d.spec)
    tg = TimeGrid(1e-4, 2.0, 6)
    f = band_limited(meyer1d, rng)
    tcf = evolve_coefficients(sg, meyer1d, f, tg)
    path = tmp_path / "t.oslt"
    write_coeff_field(tcf, str(path))
    back = read_coeff_field(str(path))
    assert back.beta == 0.75
    assert back.tg == tg
    for key in tcf.detail:
        np.testing.assert_array_equal(back.detail[key], tcf.detail[key])


class TestTimeField:
    def test_rows_are_views_and_derived_fields_keep_tg_and_beta(self, meyer1d, rng):
        sg = SemigroupSpec(0.75, meyer1d.spec)
        tg = TimeGrid(1e-4, 1.0, 4)
        tcf = evolve_coefficients(sg, meyer1d, band_limited(meyer1d, rng), tg)
        assert (tcf.tg, tcf.beta, tcf.batch_shape) == (tg, 0.75, (4,))
        row, rows = tcf[2], tcf[1:3]
        assert (row.tg, row.batch_shape, rows.batch_shape) == (None, (), (2,))
        assert np.shares_memory(row.scaling, tcf.scaling)
        assert all(np.shares_memory(rows.detail[key], arr)
                   for key, arr in tcf.detail.items())
        for derived in (tcf.copy(), tcf.scaled(2.0), tcf.zeros_like(),
                        tcf.map_detail(lambda eps, j, arr: -arr), tcf + tcf):
            assert (derived.tg, derived.beta, derived.batch_shape) == (tg, 0.75, (4,))
        with pytest.raises(ParameterError):
            row[0]

    def test_missing_beta_or_time_grid_raises(self, meyer1d, rng):
        c0 = meyer1d.analyze(band_limited(meyer1d, rng))
        no_beta = CoeffField(meyer1d.spec, "meyer", 0, meyer1d.j_max,
                             tg=TimeGrid(1e-4, 1.0, 4))
        for tcf in (no_beta, c0):
            with pytest.raises(ParameterError):
                check_decay_bounds(tcf, c0, N=4.0)
            with pytest.raises(ParameterError):
                check_dual_bound(c0, tcf, N=4.0)
        from oscillet.tent import TentParams, tent_norms
        tp = TentParams(SpaceParams(-0.2, 0.1, 2.0, 2.0), 3.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            tent_norms(c0, tp)
