import json

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
    _source_order,
    _truncate,
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


ADMISSIBLE = CzoGeneratorParams(N0=6.0, C=1.0)
CONTROL = CzoGeneratorParams(N0=0.2, C=1.0, band=np.inf, window_cells=np.inf,
                             saturation=3.0)


@pytest.mark.parametrize("params", [ADMISSIBLE, CONTROL])
@pytest.mark.parametrize("n, sweep", [(1, (6, 7, 8)), (2, (3, 4, 5))])
def test_truncation_is_the_generator_at_each_J(params, n, sweep):
    """Every block is drawn from (seed, j, j', type pair) alone, so the
    finest matrix cut to a coarser band is that band's matrix: the same
    keys in the same order and the same arrays, bit for bit, shared and
    read-only."""
    top = max(sweep)
    finest = generate_random_czo(GridSpec(n, top, 0), 0, top - 2, params, seed=5)
    for J in sweep:
        spec = GridSpec(n, J, 0)
        cut = _truncate(finest, spec, J - 2)
        fresh = generate_random_czo(spec, 0, J - 2, params, seed=5)
        assert (cut.spec, cut.j_min, cut.j_max, cut.N0, cut.C, cut.band) \
            == (fresh.spec, fresh.j_min, fresh.j_max, fresh.N0, fresh.C, fresh.band)
        assert list(cut.coo) == list(fresh.coo)
        for key, arrays in cut.coo.items():
            assert all(a is b for a, b in zip(arrays, finest.coo[key]))
            for a, b in zip(arrays, fresh.coo[key]):
                assert a.dtype == b.dtype and not a.flags.writeable
                np.testing.assert_array_equal(a, b, strict=True)
                assert a.tobytes() == b.tobytes()


def test_stacked_random_field_rows_are_the_one_seed_fields(meyer1d):
    sp = SpaceParams(0.1, 0.3, 2.0, 1.5)
    seeds = [4, 17, 4 + 104729]
    draws = {}
    stack = _random_detail_field(meyer1d, sp, seeds, draws=draws)
    assert stack.batch_shape == (3,)
    assert {s for s, _, _ in draws} == set(seeds)
    for row, seed in enumerate(seeds):
        one = _random_detail_field(meyer1d, sp, seed)
        assert one.batch_shape == ()
        for key, block in one.detail.items():
            assert stack.detail[key][row].tobytes() == block.tobytes()
        assert stack.scaling[row].tobytes() == one.scaling.tobytes()
        # the one-seed field from its definition: seeded normals per (level,
        # type), scaled by 2^{-j(2 gamma1 + n)/2}, the finest level empty,
        # divided by the field's TLM norm
        raw = CoeffField(meyer1d.spec, "meyer", 0, meyer1d.j_max)
        for (eps, j), block in raw.detail.items():
            if j < meyer1d.j_max:
                normal = np.random.default_rng(np.random.SeedSequence(
                    seed, spawn_key=(j, 0))).standard_normal(1 << j)
                block[:] = 2.0 ** (-j * (2 * sp.gamma1 + 1) / 2.0) * normal
        from oscillet.norms import tlm_wavelet_norm
        norm = tlm_wavelet_norm(raw, sp)
        for key, block in raw.detail.items():
            assert (block * (1.0 / norm)).tobytes() == one.detail[key].tobytes()


def per_sample_czo(params, sp, samples, seed, J_sweep, declared_N0=None):
    """The experiment evaluated sample by sample: per J a freshly generated
    matrix, and per sample one field, one apply and two TLM calls."""
    from oscillet.norms import tlm_wavelet_norm
    per_sample, max_by_J, certified, notes = [], {}, True, []
    for J in J_sweep:
        spec = GridSpec(1, J, 0)
        basis = build_basis("meyer", spec)
        mat = generate_random_czo(spec, 0, basis.j_max, params, seed=seed)
        check_N0 = params.N0 if declared_N0 is None else declared_N0
        val = validate_decay(mat, N0=check_N0, C=params.C)
        if not val.ok:
            certified = False
            notes.append(
                f"J={J}: {len(val.violations)} entries exceed the declared "
                f"envelope at N0={check_N0} (C_min={val.C_min:.3g})")
        ratios = []
        for s in range(samples):
            g = _random_detail_field(basis, sp, seed + 104729 * s)
            out = apply_matrix(mat, g)
            in_norm, out_norm = tlm_wavelet_norm(g, sp), tlm_wavelet_norm(out, sp)
            ratio = out_norm / in_norm if in_norm > 0 else 0.0
            ratios.append(ratio)
            per_sample.append((J, s, in_norm, out_norm, ratio))
        max_by_J[J] = max(ratios)
    growth = ratio_growth(max_by_J)
    return per_sample, max_by_J, growth, certified, certified and growth < 0.10, notes


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("params, sp, declared_N0", [
    (ADMISSIBLE, SpaceParams(0.0, 0.3, 2.0, 2.0), None),
    (CONTROL, SpaceParams(1.5, 0.3, 2.0, 2.0), 6.0),
])
def test_stacked_czo_experiment_is_the_per_sample_one(seed, params, sp, declared_N0):
    rep = czo_boundedness_experiment(params, sp, samples=5, seed=seed,
                                     J_sweep=(6, 7, 8), declared_N0=declared_N0)
    got = (rep.per_sample, rep.max_ratio_by_J, rep.growth_per_J, rep.certified,
           rep.passed, rep.notes)
    want = per_sample_czo(params, sp, 5, seed, (6, 7, 8), declared_N0)
    assert repr(got) == repr(want)
    assert all(type(x) is float for row in rep.per_sample for x in row[2:])


class TestApply:
    def test_identity(self, meyer1d, rng):
        c = meyer1d.analyze(band_limited(meyer1d, rng))
        out = apply_matrix(identity_matrix(meyer1d), c)
        for key in c.detail:
            np.testing.assert_allclose(out.detail[key], c.detail[key],
                                       atol=1e-14)

    @pytest.mark.parametrize("a, b", [(2.0, -1.5 + 0.5j), (0.3j, 1.2 - 1.6j),
                                      (-1e-3 + 1.7j, 1.0)])
    @pytest.mark.parametrize("n, J", [(1, 6), (1, 8), (2, 4), (2, 5)])
    def test_linearity(self, n, J, a, b, rng):
        basis = build_basis("meyer", GridSpec(n, J, 0))
        mat = generate_random_czo(basis.spec, 0, basis.j_max,
                                  CzoGeneratorParams(N0=4.0, C=1.0), seed=1)
        u = basis.analyze(band_limited(basis, rng))
        v = basis.analyze(band_limited(basis, rng))
        lhs = apply_matrix(mat, u.scaled(a) + v.scaled(b))
        rhs = apply_matrix(mat, u).scaled(a) + apply_matrix(mat, v).scaled(b)
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


def apply_circulant_block(kern, j, j_p, blockin, n):
    """One circulant block on its own: the kernel's and the source's FFT,
    their product and the inverse FFT, nothing shared."""
    axes = tuple(range(blockin.ndim - n, blockin.ndim))
    stride = (Ellipsis,) + (slice(None, None, 2),) * n
    if j == j_p:
        return np.fft.ifftn(
            np.fft.fftn(kern) * np.fft.fftn(blockin, axes=axes), axes=axes)
    if j_p == j + 1:
        rev = kern
        for ax in range(n):
            rev = np.flip(rev, axis=ax)
            rev = np.roll(rev, 1, axis=ax)
        out = np.fft.ifftn(
            np.fft.fftn(rev) * np.fft.fftn(blockin, axes=axes), axes=axes)
        return out[stride]
    up = np.zeros(blockin.shape[:-n] + tuple(2 * s for s in blockin.shape[-n:]),
                  dtype=complex)
    up[stride] = blockin
    return np.fft.ifftn(np.fft.fftn(kern) * np.fft.fftn(up, axes=axes), axes=axes)


def apply_by_blocks(mat, c):
    out = c.zeros_like()
    n = c.spec.n

    def block(field, eps, j):
        return field.scaling if not any(eps) else field.detail[(eps, j)]

    for (eps, j, eps_p, j_p), kern in mat.circulant.items():
        dst = block(out, eps, j)
        dst += apply_circulant_block(kern, j, j_p, block(c, eps_p, j_p), n).reshape(
            dst.shape)
    return out


def riesz_case(n, J, L):
    basis = build_basis("meyer", GridSpec(n, J, 0))
    f = basis.synthesize(_random_detail_field(
        basis, SpaceParams(-0.2, 0.1, 2.0, 2.0), 3 * J + n))
    tcf = evolve_coefficients(SemigroupSpec(1.0, basis.spec), basis, f,
                              TimeGrid(1e-5, 1.0, L))
    return basis, riesz_matrix(basis, n), tcf


@pytest.mark.parametrize("n, J, L", [(1, 8, 6), (2, 5, 4), (2, 6, 3)])
def test_shared_spectra_apply_is_the_per_block_product(n, J, L):
    basis, mat, tcf = riesz_case(n, J, L)
    kinds = {j_p - j for _, j, _, j_p in mat.circulant}
    assert kinds == {-1, 0, 1}
    want = apply_by_blocks(mat, tcf)
    # the second apply reads the kernel spectra the first one kept
    for _ in range(2):
        got = apply_matrix_time(mat, tcf)
        for key in want.detail:
            np.testing.assert_array_equal(got.detail[key], want.detail[key])
        np.testing.assert_array_equal(got.scaling, want.scaling)
    one = apply_matrix(mat, tcf[1])
    want_one = apply_by_blocks(mat, tcf[1])
    for key in want.detail:
        np.testing.assert_array_equal(one.detail[key], want_one.detail[key])


@pytest.mark.parametrize("basis", ["meyer1d", "meyer2d"])
def test_riesz_matrix_stores_each_destinations_sources_in_apply_order(
        request, basis):
    # _apply adds a destination's sources in _source_order; it has the bits
    # of the block-by-block evaluation only because riesz_matrix stores them
    # in that order
    mat = riesz_matrix(request.getfixturevalue(basis), 1)
    by_dest = {}
    for item in mat.circulant.items():
        by_dest.setdefault(item[0][:2], []).append(_source_order(item))
    assert len(by_dest) > 1
    for order in by_dest.values():
        assert order == sorted(order)


@pytest.mark.parametrize("n, J", [(1, 8), (2, 6)])
def test_one_forward_fft_per_source_and_kernel_spectra_kept(monkeypatch, n, J):
    basis, mat, tcf = riesz_case(n, J, 2)
    sources = {(eps_p, j_p, j_p == j - 1) for _, j, eps_p, j_p in mat.circulant}
    if (n, J) == (2, 6):
        assert (len(sources), len(mat.circulant)) == (22, 53)
    calls = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        calls.append(args[0].shape)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    first = apply_matrix_time(mat, tcf)
    assert len(calls) == len(sources) + len(mat.circulant)
    del calls[:]
    second = apply_matrix_time(mat, tcf)
    # a second apply builds no kernel FFT: every transform is of a source
    assert len(calls) == len(sources)
    assert all(shape[0] == tcf.tg.L for shape in calls)
    for key in first.detail:
        np.testing.assert_array_equal(first.detail[key], second.detail[key])


@pytest.mark.parametrize("n, J", [(1, 8), (2, 6)])
def test_chunks_of_rows_are_the_unchunked_apply(monkeypatch, n, J):
    # the finest sources' rows go two at a time, so 5 rows end in a
    # partial chunk of one; the coarser ones take more rows per chunk
    from oscillet import wavelet

    basis, mat, tcf = riesz_case(n, J, 5)
    monkeypatch.setattr(wavelet, "CHUNK_BYTES", 1 << 40)
    whole = apply_matrix_time(mat, tcf)
    monkeypatch.setattr(wavelet, "CHUNK_BYTES", 2 * 16 * (1 << basis.j_max) ** n)
    rows = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        rows.append(args[0].shape[0])
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    chunked = apply_matrix_time(mat, tcf)
    assert {2, 1} <= set(rows) and max(rows) == 5
    want = apply_by_blocks(mat, tcf)
    for key in whole.detail:
        np.testing.assert_array_equal(chunked.detail[key], whole.detail[key])
        np.testing.assert_array_equal(chunked.detail[key], want.detail[key])
    np.testing.assert_array_equal(chunked.scaling, whole.scaling)


def _matrix_lines(tmp_path, spec1d):
    mat = generate_random_czo(spec1d, 0, 5, CzoGeneratorParams(N0=4.0, C=0.5),
                              seed=8)
    path = tmp_path / "m.jsonl"
    write_matrix_jsonl(mat, str(path))
    head, *recs = (json.loads(line) for line in path.read_text().splitlines())
    return path, head, recs


MATRIX_DEFECTS = {
    "kind": lambda h, r: h.update(kind="dense"),
    "n=3": lambda h, r: h.update(n=3),
    "n missing": lambda h, r: h.pop("n"),
    "n float": lambda h, r: h.update(n=1.0),
    "j_max >= J": lambda h, r: h.update(j_max=h["J"]),
    "N0 nan": lambda h, r: h.update(N0=float("nan")),
    "band < 0": lambda h, r: h.update(band=-1.0),
    "scaling type": lambda h, r: r[3].update(eps=[0]),
    "type length": lambda h, r: r[3].update(eps2=[1, 1]),
    "j above band": lambda h, r: r[3].update(j=6),
    "j2 below band": lambda h, r: r[3].update(j2=-1),
    "j not int": lambda h, r: r[3].update(j=2.0),
    "k outside level": lambda h, r: r[3].update(k=[1 << r[3]["j"]]),
    "k2 negative": lambda h, r: r[3].update(k2=[-1]),
    "k length": lambda h, r: r[3].update(k=[0, 0]),
    "k float": lambda h, r: r[3].update(k=[0.5]),
    "re nan": lambda h, r: r[3].update(re=float("nan")),
    "im inf": lambda h, r: r[3].update(im=float("inf")),
    "duplicate": lambda h, r: r.append(dict(r[3], re=0.25)),
    "missing key": lambda h, r: r[3].pop("im"),
    "not a record": lambda h, r: r.append([1, 2]),
}


@pytest.mark.parametrize("defect", list(MATRIX_DEFECTS) + ["bad json", "empty"])
def test_matrix_jsonl_rejects_bad_files(tmp_path, spec1d, defect):
    path, head, recs = _matrix_lines(tmp_path, spec1d)
    if defect in MATRIX_DEFECTS:
        MATRIX_DEFECTS[defect](head, recs)
    lines = [json.dumps(x) for x in [head, *recs]]
    if defect == "bad json":
        lines[4] = lines[4][:-1]
    path.write_text("" if defect == "empty" else "\n".join(lines) + "\n")
    with pytest.raises(ParameterError):
        read_matrix_jsonl(str(path))


def test_matrix_jsonl_keeps_the_file_order(tmp_path, spec1d):
    # the entries of a block in file order, bit for bit
    path, head, recs = _matrix_lines(tmp_path, spec1d)
    mat = read_matrix_jsonl(str(path))
    for key, (rows, cols, vals) in mat.coo.items():
        want = [r for r in recs if (tuple(r["eps"]), r["j"], tuple(r["eps2"]),
                                    r["j2"]) == key]
        assert rows.tolist() == [r["k"][0] for r in want]
        assert cols.tolist() == [r["k2"][0] for r in want]
        assert vals.tolist() == [complex(r["re"], r["im"]) for r in want]


class TestRieszHeatCommutation:
    """The Riesz matrix applied to the heat lift of f against the heat lift
    of the band-limited Riesz transform of f: both are the lift of R_l f,
    which pins riesz-tent's tent inputs without the report bytes.  The
    tolerances are about four times the largest relative difference
    measured over l and beta (1-d J=7 5.3e-14, J=9 2.5e-12; 2-d J=5
    4.2e-15, J=6 6.2e-15; L = 16 nodes); the 1-d difference grows with
    J."""

    @pytest.mark.parametrize("n, J, tol", [(1, 7, 2e-13), (1, 9, 1e-11),
                                           (2, 5, 2e-14), (2, 6, 3e-14)])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_matrix_on_the_lift_is_the_lift_of_the_transform(self, n, J, tol,
                                                             beta):
        from oscillet.semigroup import default_time_grid
        basis = build_basis("meyer", GridSpec(n, J, 0))
        rng = np.random.default_rng(J)
        f = basis.band_limit(GridFunction(basis.spec,
                                          rng.standard_normal(basis.spec.shape)))
        tg = default_time_grid(basis.spec, beta, L=16)
        sg = SemigroupSpec(beta, basis.spec)
        lifted = evolve_coefficients(sg, basis, f, tg)
        for l in range(1, n + 1):
            left = apply_matrix_time(riesz_matrix(basis, l), lifted)
            right = evolve_coefficients(sg, basis,
                                        basis.band_limit(riesz_apply(f, l)), tg)
            assert left.detail.keys() == right.detail.keys()
            scale = max(float(np.max(np.abs(a))) for a in right.detail.values())
            assert scale > 0
            for key, want in right.detail.items():
                assert np.max(np.abs(left.detail[key] - want)) <= tol * scale, key
