import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillet.errors import DegenerateRegimeWarning, ParameterError
from oscillet.grid import GridFunction, GridSpec, lp_norm
from oscillet.norms import SpaceParams
from oscillet.operators import (
    AlmostDiagonalMatrix,
    CzoGeneratorParams,
    _random_detail_field,
    apply_matrix,
    apply_matrix_time,
    czo_boundedness_experiment,
    envelope,
    generate_random_czo,
    read_matrix_jsonl,
    riesz_apply,
    riesz_matrix,
    ratio_growth,
    riesz_tent_experiment,
    validate_decay,
    write_matrix_jsonl,
)
from oscillet.semigroup import SemigroupSpec, TimeGrid, evolve_coefficients
from oscillet.tent import TentParams
from oscillet.wavelet import CoeffField, WaveletIndex, build_basis
from conftest import band_limited


def identity_matrix(basis) -> AlmostDiagonalMatrix:
    spec = basis.spec
    mat = AlmostDiagonalMatrix(spec, basis.j_min, basis.j_max, N0=6.0, C=1.0)
    for j in basis.detail_levels:
        count = (1 << j) ** spec.n
        idx = np.arange(count)
        for eps in basis.detail_type_list():
            mat.coo[(eps, j, eps, j)] = (idx, idx, np.ones(count, dtype=complex))
    return mat


class TestValidateDecay:
    def test_identity_cmin_one(self, meyer1d):
        val = validate_decay(identity_matrix(meyer1d))
        assert val.C_min == pytest.approx(1.0, rel=1e-12)
        assert val.ok

    def test_zero_matrix(self, spec1d):
        mat = AlmostDiagonalMatrix(spec1d, 0, 6, N0=2.0, C=1.0)
        val = validate_decay(mat)
        assert val.C_min == 0.0
        assert val.ok

    def test_generator_round_trip(self, spec1d):
        mat = generate_random_czo(spec1d, 0, 6,
                                  CzoGeneratorParams(N0=6.0, C=0.7), seed=3)
        val = validate_decay(mat)
        assert val.ok
        assert val.C_min == pytest.approx(0.7, rel=1e-9)


class TestGenerator:
    def test_zero_amplitude(self, spec1d):
        mat = generate_random_czo(spec1d, 0, 6,
                                  CzoGeneratorParams(N0=4.0, C=0.0), seed=3)
        assert not mat.coo

    def test_deterministic(self, spec1d):
        params = CzoGeneratorParams(N0=6.0, C=1.0)
        a = generate_random_czo(spec1d, 0, 6, params, seed=11)
        b = generate_random_czo(spec1d, 0, 6, params, seed=11)
        assert set(a.coo) == set(b.coo)
        for key in a.coo:
            np.testing.assert_array_equal(a.coo[key][2], b.coo[key][2])

    def test_row_mass_shrinks_with_N0(self, spec1d):
        def offdiag_mass(N0):
            mat = generate_random_czo(
                spec1d, 0, 6, CzoGeneratorParams(N0=N0, C=1.0, density=1.0),
                seed=5)
            total = 0.0
            for (eps, j, eps_p, j_p), (rows, cols, vals) in mat.coo.items():
                mask = np.ones(len(vals), dtype=bool)
                if j == j_p:
                    mask = rows != cols
                total += float(np.sum(np.abs(vals[mask])))
            return total

        assert offdiag_mass(4.0) < offdiag_mass(1.0)


class TestApply:
    def test_identity(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        out = apply_matrix(identity_matrix(meyer1d), c)
        for key in c.detail:
            np.testing.assert_allclose(out.detail[key], c.detail[key],
                                       atol=1e-14)

    def test_linearity(self, meyer1d, rng):
        mat = generate_random_czo(meyer1d.spec, 0, meyer1d.j_max,
                                  CzoGeneratorParams(N0=4.0, C=1.0), seed=1)
        u = meyer1d.analyze(band_limited(meyer1d, rng))
        v = meyer1d.analyze(band_limited(meyer1d, rng))
        lhs = apply_matrix(mat, u.scaled(2.0) + v.scaled(-1.5 + 0.5j))
        rhs = apply_matrix(mat, u).scaled(2.0) + apply_matrix(mat, v).scaled(-1.5 + 0.5j)
        for key in lhs.detail:
            np.testing.assert_allclose(lhs.detail[key], rhs.detail[key],
                                       atol=1e-12)

    def test_dense_oracle(self):
        spec = GridSpec(1, 5, 0)
        basis = build_basis("meyer", spec)
        mat = generate_random_czo(spec, 0, 3,
                                  CzoGeneratorParams(N0=2.0, C=1.0, density=0.6),
                                  seed=2)
        rng = np.random.default_rng(0)
        c = basis.analyze(basis.band_limit(
            GridFunction(spec, rng.standard_normal(spec.shape))))
        fast = apply_matrix(mat, c)
        slow = c.zeros_like()
        for (eps, j, eps_p, j_p), (rows, cols, vals) in mat.coo.items():
            src = c.detail[(eps_p, j_p)].reshape(-1)
            dst = slow.detail[(eps, j)].reshape(-1)
            for r, cc, v in zip(rows, cols, vals):
                dst[r] += v * src[cc]
        for key in fast.detail:
            np.testing.assert_allclose(fast.detail[key], slow.detail[key],
                                       atol=1e-10)


class TestRieszApply:
    def test_hilbert_on_cosine(self, spec1d):
        x = spec1d.meshgrid()[0]
        f = GridFunction(spec1d, np.cos(2 * np.pi * x))
        out = riesz_apply(f, 1)
        np.testing.assert_allclose(out.data.real, np.sin(2 * np.pi * x),
                                   atol=1e-12)

    def test_sum_of_squares(self, spec2d, rng):
        f = GridFunction(spec2d, rng.standard_normal(spec2d.shape))
        total = GridFunction.zeros(spec2d)
        for l in (1, 2):
            total = total + riesz_apply(riesz_apply(f, l), l)
        target = -(f.data - np.mean(f.data))
        assert np.max(np.abs(total.data - target)) < 1e-10

    @settings(max_examples=40)
    @given(n=st.sampled_from([1, 2]), J=st.integers(1, 10),
           complex_input=st.booleans(), seed=st.integers(0, 2**16))
    def test_sum_of_squares_is_minus_the_mean_free_part(self, n, J,
                                                          complex_input, seed):
        """sum_l R_l^2 = -(I - mean) on every grid."""
        spec = GridSpec(n, J if n == 1 else min(J, 6), 0)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(spec.shape)
        if complex_input:
            data = data + 1j * rng.standard_normal(spec.shape)
        f = GridFunction(spec, data)
        total = sum((riesz_apply(riesz_apply(f, l), l).data
                     for l in range(1, n + 1)), np.zeros(spec.shape))
        target = -(data - np.mean(data))
        assert np.max(np.abs(total - target)) < 1e-12 * max(1.0, np.max(np.abs(data)))

    def test_l2_contraction(self, spec1d, rng):
        f = GridFunction(spec1d, rng.standard_normal(spec1d.shape))
        assert lp_norm(riesz_apply(f, 1), 2) <= lp_norm(f, 2) + 1e-12

    def test_direction_range(self, spec1d):
        with pytest.raises(ParameterError):
            riesz_apply(GridFunction.zeros(spec1d), 2)


class TestRieszMatrix:
    def test_band_vanishing(self, meyer1d):
        # direct inner products vanish for |j - j'| >= 2
        from oscillet.grid import l2_inner
        phi_a = meyer1d.basis_function(WaveletIndex((1,), 3, (2,)))
        for j_far, k_far in ((5, 11), (6, 40)):
            phi_b = meyer1d.basis_function(WaveletIndex((1,), j_far, (k_far,)))
            ip = l2_inner(phi_a, riesz_apply(phi_b, 1))
            assert abs(ip) < 1e-10
        mat = riesz_matrix(meyer1d, 1)
        assert all(abs(j - jp) <= 1 for (_, j, _, jp) in mat.circulant)

    def test_two_path_agreement(self, meyer1d, rng):
        mat = riesz_matrix(meyer1d, 1)
        f = band_limited(meyer1d, rng)
        via_matrix = apply_matrix(mat, meyer1d.analyze(f))
        via_mult = meyer1d.analyze(riesz_apply(f, 1))
        worst = max(np.max(np.abs(via_matrix.detail[k] - via_mult.detail[k]))
                    for k in via_matrix.detail)
        assert worst < 1e-8
        np.testing.assert_allclose(via_matrix.scaling, via_mult.scaling,
                                   atol=1e-8)

    def test_two_path_agreement_2d(self, meyer2d, rng):
        for l in (1, 2):
            mat = riesz_matrix(meyer2d, l)
            f = band_limited(meyer2d, rng)
            via_matrix = apply_matrix(mat, meyer2d.analyze(f))
            via_mult = meyer2d.analyze(riesz_apply(f, l))
            worst = max(np.max(np.abs(via_matrix.detail[k] - via_mult.detail[k]))
                        for k in via_matrix.detail)
            assert worst < 1e-8

    def test_antisymmetry_1d(self, meyer1d):
        # the Hilbert transform is skew-adjoint and real: the same-level
        # kernel satisfies K[-delta] = -K[delta]
        mat = riesz_matrix(meyer1d, 1)
        for (eps, j, eps_p, j_p), kern in mat.circulant.items():
            if j != j_p or eps != eps_p:
                continue
            assert np.max(np.abs(kern.imag)) < 1e-12
            flipped = np.roll(kern[::-1], 1)
            np.testing.assert_allclose(flipped, -kern, atol=1e-12)

    def test_envelope_validates(self, meyer1d):
        mat = riesz_matrix(meyer1d, 1)
        for N0 in (1.0, 2.0):
            val = validate_decay(mat, N0=N0, C=np.inf)
            assert np.isfinite(val.C_min)
            assert val.C_min < 100.0

    def test_rejects_daubechies(self, daub1d):
        with pytest.raises(ParameterError):
            riesz_matrix(daub1d, 1)


class TestComposition:
    def test_product_stays_almost_diagonal(self):
        # compose two admissible matrices at a tiny band: the product's
        # entries still sit under the envelope at a slightly lower order
        spec = GridSpec(1, 5, 0)
        params = CzoGeneratorParams(N0=3.0, C=1.0, density=0.8)
        a = generate_random_czo(spec, 0, 3, params, seed=1)
        b = generate_random_czo(spec, 0, 3, params, seed=2)

        def to_dense(mat, basis):
            keys = [(eps, j) for j in range(0, 4) for eps in [(1,)]]
            offsets, total = {}, 0
            for key in keys:
                offsets[key] = total
                total += 1 << key[1]
            D = np.zeros((total, total), dtype=complex)
            for (eps, j, eps_p, j_p), (rows, cols, vals) in mat.coo.items():
                D[offsets[(eps, j)] + rows, offsets[(eps_p, j_p)] + cols] += vals
            return D, offsets, total

        basis = build_basis("meyer", spec)
        Da, off, total = to_dense(a, basis)
        Db, _, _ = to_dense(b, basis)
        Dc = Da @ Db
        prod = AlmostDiagonalMatrix(spec, 0, 3, N0=2.5, C=1.0)
        for j in range(0, 4):
            for j_p in range(0, 4):
                block = Dc[off[((1,), j)]:off[((1,), j)] + (1 << j),
                           off[((1,), j_p)]:off[((1,), j_p)] + (1 << j_p)]
                rows, cols = np.nonzero(np.abs(block) > 1e-14)
                if rows.size:
                    prod.coo[((1,), j, (1,), j_p)] = (rows, cols,
                                                      block[rows, cols])
        val = validate_decay(prod, N0=2.5, C=np.inf)
        assert np.isfinite(val.C_min)
        assert val.C_min < 30.0


class TestBoundednessExperiments:
    def test_identity_ratios_one(self, meyer1d, rng):
        from oscillet.norms import tlm_wavelet_norm
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        mat = identity_matrix(meyer1d)
        c = _random_detail_field(meyer1d, sp, 9)
        out = apply_matrix(mat, c)
        assert tlm_wavelet_norm(out, sp) == pytest.approx(
            tlm_wavelet_norm(c, sp), rel=1e-12)

    def test_admissible_small(self):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        rep = czo_boundedness_experiment(
            CzoGeneratorParams(N0=6.0, C=1.0), sp, samples=4, seed=42,
            J_sweep=(7, 8))
        assert rep.certified
        assert rep.growth_per_J < 0.10
        assert rep.passed

    def test_violating_control_flagged(self):
        sp = SpaceParams(1.5, 0.3, 2.0, 2.0)
        params = CzoGeneratorParams(N0=0.2, C=1.0, band=np.inf,
                                    window_cells=np.inf, saturation=3.0)
        rep = czo_boundedness_experiment(params, sp, samples=4, seed=42,
                                         J_sweep=(7, 8), declared_N0=6.0)
        assert not rep.certified
        assert rep.growth_per_J > 0.50

    def test_degenerate_regime_warns(self):
        # the experiment leaves its caller's warning filters alone, so the
        # TLM norm's gamma2 > n/p warning reaches the caller, as in
        # `oscillet norm`
        sp = SpaceParams(0.0, 0.8, 2.0, 2.0)
        with pytest.warns(DegenerateRegimeWarning):
            czo_boundedness_experiment(CzoGeneratorParams(N0=6.0, C=1.0), sp,
                                       samples=1, seed=0, J_sweep=(6,))


class TestRieszTent:
    def test_zero_field_vacuous(self, meyer2d):
        tg = TimeGrid(1e-4, 2.0, 8)
        tcf = CoeffField(meyer2d.spec, "meyer", 0, meyer2d.j_max, tg=tg, beta=1.0)
        tp = TentParams(SpaceParams(-0.2, 0.1, 2.0, 2.0), 3.0, 1.0, 1.0)
        result = riesz_tent_experiment(tcf, tp, riesz_matrix(meyer2d, 1))
        assert all(v is None for v in result["ratios"].values())

    def test_heat_lifted_ratios_finite(self, meyer2d):
        import warnings
        sp = SpaceParams(-0.2, 0.1, 2.0, 2.0)
        sg = SemigroupSpec(1.0, meyer2d.spec)
        tg = TimeGrid(2.0 ** (-2 * 6), 4.0, 48)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = meyer2d.synthesize(_random_detail_field(meyer2d, sp, 21))
            tcf = evolve_coefficients(sg, meyer2d, f, tg)
            tp = TentParams(sp, 3.0, 1.0, 1.0)
            result = riesz_tent_experiment(tcf, tp, riesz_matrix(meyer2d, 1))
        for name, r in result["ratios"].items():
            if r is not None:
                assert np.isfinite(r)
        assert result["cross_part_iii"] is not None


def test_matrix_jsonl_roundtrip(tmp_path, spec1d):
    mat = generate_random_czo(spec1d, 0, 5,
                              CzoGeneratorParams(N0=4.0, C=0.5), seed=8)
    path = tmp_path / "m.jsonl"
    write_matrix_jsonl(mat, str(path))
    back = read_matrix_jsonl(str(path))
    assert back.N0 == mat.N0
    assert set(back.coo) == set(mat.coo)
    for key in mat.coo:
        ra, ca, va = mat.coo[key]
        rb, cb, vb = back.coo[key]
        order_a = np.lexsort((ca, ra))
        order_b = np.lexsort((cb, rb))
        np.testing.assert_array_equal(ra[order_a], rb[order_b])
        np.testing.assert_allclose(va[order_a], vb[order_b], atol=1e-15)


def test_apply_matrix_time_matches_slicewise(meyer1d, rng):
    # batched time application of a scattered and of a circulant (Riesz)
    # matrix equals the per-slice product bit for bit: one kernel serves both
    from oscillet.semigroup import SemigroupSpec, TimeGrid, evolve_coefficients

    czo = generate_random_czo(meyer1d.spec, 0, meyer1d.j_max,
                              CzoGeneratorParams(N0=4.0, C=1.0), seed=6)
    sg = SemigroupSpec(1.0, meyer1d.spec)
    tg = TimeGrid(1e-5, 1.0, 5)
    f = band_limited(meyer1d, rng)
    tcf = evolve_coefficients(sg, meyer1d, f, tg)
    for mat in (czo, riesz_matrix(meyer1d, 1)):
        fast = apply_matrix_time(mat, tcf)
        assert (fast.tg, fast.beta) == (tg, 1.0)
        for ell in range(tg.L):
            slow = apply_matrix(mat, tcf[ell])
            for key in slow.detail:
                np.testing.assert_array_equal(fast.detail[key][ell], slow.detail[key])
            np.testing.assert_array_equal(fast.scaling[ell], slow.scaling)


def test_ratio_growth_at_zero():
    # a zero operator does not grow; growing from zero is infinite growth
    assert ratio_growth({8: 0.0, 9: 0.0, 10: 0.0}) == 0.0
    assert ratio_growth({8: 0.0, 9: 0.0, 10: 2.0}) == np.inf
    assert ratio_growth({8: 0.0, 9: 1.0}) == np.inf
    assert ratio_growth({8: 1.0, 9: 0.0}) == 0.0
    assert ratio_growth({8: 1.0, 10: 4.0, 11: 2.0}) == pytest.approx(1.0)
