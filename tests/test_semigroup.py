import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oscillet import _quadpack, semigroup, wavelet
from oscillet.errors import ParameterError, QuadratureWarning
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
    heat_apply,
    pi_phi_report,
)
from oscillet.wavelet import (
    TWO_PI,
    CoeffField,
    MeyerWindow,
    WaveletIndex,
    build_basis,
    detail_types,
    read_coeff_field,
    write_coeff_field,
)
from conftest import band_limited, full_grid_coefficients


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
    """The node-by-node evolution: one propagated full-grid spectrum per
    node, each block from the full-grid product and fold."""
    F = basis.fourier(f)
    symbol = sg.symbol()
    out = CoeffField(sg.spec, basis.family, basis.j_min, basis.j_max, tg=tg)
    eps0 = (0,) * sg.spec.n
    for ell, t in enumerate(tg.nodes()):
        Ft = F * np.exp(-t * symbol)
        for eps, j in out.detail:
            out.detail[(eps, j)][ell] = full_grid_coefficients(basis, Ft, eps, j)
        out.scaling[ell] = full_grid_coefficients(basis, Ft, eps0, basis.j_min)
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

    # 2-d J=7 has a block whose fold is the full grid's pairwise sum
    @pytest.mark.parametrize("n, J, L", [(1, 8, 40), (1, 10, 40), (2, 5, 11),
                                         (2, 7, 5)])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_evolve_bitwise(self, monkeypatch, n, J, L, rows):
        basis, sg, f, tg = heat_case(n, J, L)
        if rows:
            # evolve stacks the spectra on the band support only
            band = basis.band_support().size
            monkeypatch.setattr(wavelet, "CHUNK_BYTES", rows * 16 * band)
            assert L > rows and L % rows
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
            monkeypatch.setattr(wavelet, "CHUNK_BYTES", rows * 16 * sg.spec.size)
        tcf = evolve_coefficients(sg, basis, f, tg)
        # a block that is zero at some nodes of a chunk only, and one that
        # is zero over whole chunks
        finest = (detail_types(n)[0], basis.j_max)
        tcf.detail[finest][1] = 0.0
        tcf.detail[(detail_types(n)[-1], basis.j_min)][:6] = 0.0
        size = wavelet.chunk_rows(sg.spec.size)
        count = 0
        for start in range(0, L, size):
            stack = basis.synthesize_stack(tcf[start:start + size])
            for ell, data in enumerate(stack, start):
                want = basis.synthesize(tcf[ell])
                assert data.tobytes() == want.data.tobytes()
                count += 1
        assert count == L


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


def scipy_calibration(beta, profile="polynomial", n_check=5):
    """(C_beta, admissibility) of calibrate_family computed with
    scipy.integrate.quad, as the calibration did before its QUADPACK port."""
    window = MeyerWindow(profile)
    scale = 1.0 / np.sqrt(2.0 * beta * np.log(2.0))

    def w(r):
        return scale * window.omega(np.asarray([r], dtype=float))[0]

    lo, hi = (TWO_PI / 3.0) ** (2 * beta), (8.0 * np.pi / 3.0) ** (2 * beta)
    val, err = quad(lambda t: w(t ** (1.0 / (2 * beta))) * np.exp(-t) / t, lo, hi,
                    limit=200)
    resid_ii = 0.0
    for r0 in np.exp(np.linspace(np.log(0.3), np.log(200.0), n_check)):
        tlo = (TWO_PI / (3.0 * r0)) ** (2 * beta)
        thi = (8.0 * np.pi / (3.0 * r0)) ** (2 * beta)
        v, _ = quad(lambda t: w(t ** (1.0 / (2 * beta)) * r0) ** 2 / t, tlo, thi,
                    limit=200)
        resid_ii = max(resid_ii, abs(v - 1.0))
    rr = np.linspace(0, TWO_PI / 3.0 * 0.999, 64)
    return 1.0 / val, {
        "moment_residual": float(np.max(np.abs(window.omega(rr)))),
        "calderon_residual": resid_ii,
        "damped_integral": val,
        "damped_integral_quad_error": err,
    }


class TestCalibrationBits:
    @pytest.mark.parametrize("profile", ["polynomial", "smooth"])
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.75, 1.0, 1.7, 2.5])
    def test_equals_the_scipy_calibration(self, beta, profile):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # and ier == 0: no warning
            fam = calibrate_family(beta, profile)
        C_beta, admissibility = scipy_calibration(beta, profile)
        assert fam.C_beta.hex() == C_beta.hex()
        assert fam.admissibility.keys() == admissibility.keys()
        for name, value in admissibility.items():
            assert float(fam.admissibility[name]).hex() == float(value).hex(), name

    def test_a_short_quadrature_warns_with_its_flag(self, monkeypatch):
        quad_port = _quadpack.quad

        def limited(f, a, b, limit):
            return quad_port(f, a, b, limit=2)

        monkeypatch.setattr(_quadpack, "quad", limited)
        with pytest.warns(QuadratureWarning, match="ier=1"):
            calibrate_family(1.0)


def zero_lift(basis, tg, beta):
    return CoeffField(basis.spec, basis.family, basis.j_min, basis.j_max, tg=tg,
                      beta=beta)


class TestPiPhi:
    def test_zero(self, meyer1d):
        tg = default_time_grid(meyer1d.spec, 1.0, L=32)
        fam = calibrate_family(1.0)
        rec, _ = pi_phi_report(fam, meyer1d, zero_lift(meyer1d, tg, 1.0))
        assert lp_norm(rec, 2) == 0.0

    def test_needs_a_time_grid(self, meyer1d, rng):
        fam = calibrate_family(1.0)
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        with pytest.raises(ParameterError, match="time grid"):
            pi_phi_report(fam, meyer1d, c)

    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_reconstruction_identity(self, beta, meyer1d, rng):
        sg = SemigroupSpec(beta, meyer1d.spec)
        fam = calibrate_family(beta)
        tg = default_time_grid(meyer1d.spec, beta, L=256)
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        c.scaling[:] = 0.0
        f = meyer1d.synthesize(c)
        tcf = evolve_coefficients(sg, meyer1d, f, tg)
        rec, rep = pi_phi_report(fam, meyer1d, tcf)
        assert rel_l2_error(rec, f) < 1e-3
        assert rep.warning is None

    # max |rec - closed form| / max |f| over seeds 0-63, rounded up at one
    # significant digit: 3.71e-13, 3.50e-11, 2.15e-14 and 1.34e-12
    @pytest.mark.parametrize("n, J, beta, tol", [
        (1, 8, 0.5, 4e-13), (1, 8, 1.0, 4e-11),
        (2, 5, 0.5, 3e-14), (2, 5, 1.0, 2e-12)])
    def test_equals_the_closed_form_multiplier(self, n, J, beta, tol):
        """For f in the Meyer span with its spectrum where the level
        j_max + 1 scaling window is 1 (|m_i| <= 2^{j_max+1}/3), the heat flow
        keeps f in the span, and the reconstruction of its lift is f-hat
        times m = C_beta sum_l w_l phi-hat(t_l^{1/(2 beta)}|xi|)
        e^{-t_l |xi|^{2 beta}}, up to rounding amplified by C_beta.  Past
        that part of the span the heat flow leaves it: the frequencies m
        and m -+ 2^{j_max+1} share one coefficient and decay at different
        rates."""
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        fam = calibrate_family(beta)
        tg = TimeGrid(2.0 ** (-2 * beta * (J + 2)), 4.0, 64)
        N = spec.samples_per_axis
        inside = np.abs(np.fft.fftfreq(N, 1.0 / N)) <= (1 << (basis.j_max + 1)) / 3
        flat = np.logical_and.reduce(np.meshgrid(*[inside] * n, indexing="ij"))
        r = TWO_PI * np.sqrt(spec.lattice_norm2())
        m = fam.C_beta * sum(
            w * fam.radial(t ** (1 / (2 * beta)) * r) * np.exp(-t * r ** (2 * beta))
            for t, w in zip(tg.nodes(), tg.weights()))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            F = (rng.standard_normal(spec.shape)
                 + 1j * rng.standard_normal(spec.shape)) * flat
            f = GridFunction(spec, np.fft.ifftn(F))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rec, _ = pi_phi_report(fam, basis, evolve_coefficients(
                    SemigroupSpec(beta, spec), basis, f, tg))
            err = np.max(np.abs(rec.data - np.fft.ifftn(F * m)))
            assert err <= tol * np.max(np.abs(f.data))

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
        with pytest.warns(UserWarning):
            pi_phi_report(fam, meyer1d, zero_lift(meyer1d, tg, 1.0))


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


def random_lift(basis, tg, beta, rng):
    """A field on tg with complex normal coefficients in every block."""
    tcf = zero_lift(basis, tg, beta)
    for arr in [*tcf.detail.values(), tcf.scaling]:
        arr[:] = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
    return tcf


def reconstruct_counting(monkeypatch, fam, basis, tcf):
    """pi_phi_report(fam, basis, tcf) and the row count of each
    synthesize_stack call it made."""
    counts = []
    stack = basis.synthesize_stack

    def counting_stack(c):
        counts.append(int(np.prod(c.batch_shape)))
        return stack(c)

    with monkeypatch.context() as m:
        m.setattr(basis, "synthesize_stack", counting_stack)
        got, _ = pi_phi_report(fam, basis, tcf)
    return got, counts


def zero_some_nodes(tcf, live, rows):
    """Zero a block of tcf at one live node inside a chunk of `rows` live
    nodes, and another over the first two such chunks."""
    keys = list(tcf.detail)
    tcf.detail[keys[-1]][live[1]] = 0.0
    tcf.detail[keys[0]][live[:2 * rows]] = 0.0


class TestChunkedReconstruction:
    # the 2-d default grid leaves the corner modes short of the annulus
    @pytest.mark.filterwarnings("ignore:time grid does not cover")
    @pytest.mark.parametrize("n, J, L, rows", [(1, 8, 48, 5), (1, 10, 64, 7),
                                               (2, 5, 40, 3)])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_matches_node_loop(self, monkeypatch, n, J, L, rows, chunked):
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        fam = calibrate_family(0.75)
        tg = default_time_grid(spec, fam.beta, L=L)
        tcf = random_lift(basis, tg, fam.beta, np.random.default_rng(J * L))
        if chunked:
            # chunk edges inside the run of live nodes, a partial last chunk
            monkeypatch.setattr(wavelet, "CHUNK_BYTES", rows * 16 * spec.size)
        table, _ = fam.multiplier_table(tg, spec)
        live = np.flatnonzero(np.any(table, axis=1))
        assert live.size > rows and live.size % rows
        zero_some_nodes(tcf, live, rows)
        frames = [basis.synthesize(tcf[ell]) for ell in range(L)]
        want, dead = pi_phi_oracle(fam, frames, tg, spec)
        assert dead == L - live.size > 0      # some node adds nothing
        got, counts = reconstruct_counting(monkeypatch, fam, basis, tcf)
        np.testing.assert_array_equal(got.data, want)
        assert sum(counts) == live.size
        if chunked:
            assert counts == [rows] * (live.size // rows) + [live.size % rows]
        # the table is built once per time grid and grid
        again, _ = pi_phi_report(fam, basis, tcf)
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


class TestDeadNodeFrames:
    @pytest.mark.parametrize("n, J, L", [(1, 9, 192), (1, 10, 192), (2, 5, 40)])
    def test_skipping_dead_nodes_keeps_the_reconstruction(self, monkeypatch, n,
                                                          J, L):
        rows = 7 if n == 1 else 3
        basis, sg, f, tg = heat_case(n, J, L)
        fam = calibrate_family(1.0)
        tcf = evolve_coefficients(sg, basis, f, tg)
        live = np.flatnonzero(np.any(fam.multiplier_table(tg, basis.spec)[0],
                                     axis=1))
        assert 0 < live.size < L and live.size > 2 * rows
        # chunk edges inside the run of live nodes
        monkeypatch.setattr(wavelet, "CHUNK_BYTES", rows * 16 * basis.spec.size)
        zero_some_nodes(tcf, live, rows)
        frames = [basis.synthesize(tcf[ell]) for ell in range(L)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want, dead = pi_phi_oracle(fam, frames, tg, basis.spec)
            got, counts = reconstruct_counting(monkeypatch, fam, basis, tcf)
        assert dead == L - live.size
        assert sum(counts) == live.size
        assert got.data.tobytes() == want.tobytes()


def pairwise_max_r1(tcf, c0, N, ctilde_grid):
    """check_decay_bounds' max_r1 as max(logR + ct tau) over every positive
    (coefficient, node) pair of the high regime; also the number of pairs
    that underflowed to zero."""
    denoms = semigroup.coupling_denominators(c0, N, band=3)
    nodes = tcf.tg.nodes()
    atol = 1e-12 * max(c0.max_abs(), 1e-300)
    ratios, taus = [np.zeros(0)], [np.zeros(0)]
    for (eps, j), block in tcf.detail.items():
        D = denoms[j]
        tau = nodes * 2.0 ** (2.0 * tcf.beta * j)
        ok = D > atol
        R = np.abs(block.reshape(tcf.tg.L, -1))[:, ok] / D[None, ok]
        hi = tau >= 1.0
        ratios.append(R[hi].reshape(-1))
        taus.append(np.repeat(tau[hi], int(np.sum(ok))))
    Rh, Th = np.concatenate(ratios), np.concatenate(taus)
    pos = Rh > 0
    logR, Tp = np.log(Rh[pos]), Th[pos]
    return np.array([
        float(np.exp(np.clip(np.max(logR + ct * Tp), -745, 709)))
        if logR.size else 0.0
        for ct in ctilde_grid
    ]), int(np.sum(~pos))


class TestDecayBounds:
    def test_one_max_per_node_is_the_pairwise_max(self):
        grid = np.arange(0.05, 2.0001, 0.05)
        underflowed = 0
        for J in (8, 9):
            basis = build_basis("meyer", GridSpec(1, J, 0))
            single = basis.analyze(GridFunction.zeros(basis.spec))
            single.set(WaveletIndex((1,), 3, (3,)), 1.0)
            rand = _random_detail_field(basis, SpaceParams(-0.2, 0.1, 2.0, 2.0), 59)
            for c0 in (single, rand):
                f = basis.synthesize(c0)
                for beta in (0.5, 1.0):
                    tg = default_time_grid(GridSpec(1, 9, 0), beta, L=64)
                    # t up to 40: the finest levels underflow to zero
                    for tg in (tg, TimeGrid(tg.t_min, 40.0, 64)):
                        tcf = evolve_coefficients(SemigroupSpec(beta, basis.spec),
                                                  basis, f, tg)
                        # rows reversed in time: the ratios grow with tau, so
                        # the max lies at the last node of a block
                        for field in (tcf, tcf.map_detail(
                                lambda eps, j, arr: arr[::-1].copy())):
                            rep = check_decay_bounds(field, c0, N=4.0)
                            want, zeros = pairwise_max_r1(field, c0, 4.0, grid)
                            underflowed += zeros
                            assert rep.max_r1.tobytes() == want.tobytes()
        assert underflowed > 0

    def test_empty_high_regime(self, meyer1d, rng):
        # every tau below 1: no pair of the high regime
        c0 = meyer1d.analyze(band_limited(meyer1d, rng))
        tcf = evolve_coefficients(SemigroupSpec(1.0, meyer1d.spec), meyer1d,
                                  meyer1d.synthesize(c0), TimeGrid(1e-12, 1e-10, 8))
        rep = check_decay_bounds(tcf, c0, N=4.0)
        want, _ = pairwise_max_r1(tcf, c0, 4.0, rep.ctilde_grid)
        assert rep.max_r1.tobytes() == want.tobytes()
        assert rep.n_pairs == 0 and not np.any(rep.max_r1)

    def test_shared_denominators_equal_a_per_call_recomputation(self, monkeypatch):
        basis, _, _, tg = heat_case(1, 8, 24)
        c0 = _random_detail_field(basis, SpaceParams(-0.2, 0.1, 2.0, 2.0), 5)
        f = basis.synthesize(c0)
        built = []
        build = semigroup.coupling_denominators

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(semigroup, "coupling_denominators", counting)
        shared = semigroup.coupling_denominators(c0, 4.0)
        for beta in (0.5, 1.0):
            tcf = evolve_coefficients(SemigroupSpec(beta, basis.spec), basis, f, tg)
            got = check_decay_bounds(tcf, c0, N=4.0, denominators=shared)
            want = check_decay_bounds(tcf, c0, N=4.0)
            for name, value in vars(want).items():
                np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
        # one build for the shared set, one per unshared call
        assert len(built) == 3
        assert shared.keys() == set(c0.levels)

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


def dual_bound_ratios(c_rec, tcf, N, band=3):
    """check_dual_bound's max_ratio and violations, each detail block's
    right side summed over its own kernel matrices."""
    spec, beta = tcf.spec, tcf.beta
    nodes, weights = tcf.tg.nodes(), tcf.tg.weights()
    T = {}
    for j in tcf.levels:
        tau = nodes * 2.0 ** (2 * beta * j)
        damp = np.maximum(tau, 1.0 / tau) ** (-N)
        total = semigroup._level_power_sum(tcf, j, 1.0).reshape(tcf.tg.L, -1)
        T[j] = (damp[:, None] * total * weights[:, None]).sum(axis=0)
    atol = 1e-12 * max(c_rec.max_abs(), 1e-300)
    max_ratio, violations = 0.0, 0
    for (eps, j), arr in c_rec.detail.items():
        rhs = np.zeros((1 << j) ** spec.n)
        for jp in tcf.levels:
            if abs(j - jp) <= band:
                rhs += semigroup.cross_level_kernel_matrix(spec, j, jp, N) @ T[jp]
        lhs = np.abs(arr.reshape(-1))
        ok = rhs > atol
        violations += int(np.sum(lhs[~ok] > atol))
        if np.any(ok):
            max_ratio = max(max_ratio, float(np.max(lhs[ok] / rhs[ok])))
    return max_ratio, violations


class TestDualBound:
    @pytest.mark.parametrize("n, J", [(1, 8), (2, 5)])
    def test_one_right_side_per_level(self, monkeypatch, n, J):
        # each level's right side and kernel matrices are built once, shared
        # by the level's detail types, with the bits of a per-block sum
        basis, sg, f, tg = heat_case(n, J, 24)
        tcf = evolve_coefficients(sg, basis, f, tg)
        c_rec = basis.analyze(f)
        want = dual_bound_ratios(c_rec, tcf, 4.0)
        kernels = []
        kernel = semigroup.cross_level_kernel_matrix

        def counting(spec, j, j_prime, N):
            kernels.append((j, j_prime))
            return kernel(spec, j, j_prime, N)

        monkeypatch.setattr(semigroup, "cross_level_kernel_matrix", counting)
        rep = check_dual_bound(c_rec, tcf, N=4.0)
        assert (rep.max_ratio, rep.violations) == want and rep.max_ratio > 0
        assert kernels == [(j, jp) for j in tcf.levels for jp in tcf.levels
                           if abs(j - jp) <= 3]

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
        rec, _ = pi_phi_report(fam, meyer1d, tcf)
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
        picked = tcf[np.array([1, 2])]
        assert picked.batch_shape == (2,)
        assert not np.shares_memory(picked.scaling, tcf.scaling)
        for key, arr in rows.detail.items():
            assert picked.detail[key].tobytes() == arr.tobytes()
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
