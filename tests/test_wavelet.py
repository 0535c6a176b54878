import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillet.errors import (
    BasisConstructionError,
    GridMismatchError,
    IndexOutOfBandError,
    ParameterError,
)
from oscillet.grid import GridFunction, GridSpec, l2_inner, lp_norm, rel_l2_error
from oscillet import wavelet
from oscillet.wavelet import (
    DAUBECHIES_FILTERS,
    MeyerWindow,
    WaveletIndex,
    build_basis,
    coeff_field_from_json,
    coeff_field_to_json,
    paraproduct,
    read_coeff_field,
    write_coeff_field,
)
from conftest import band_limited, full_grid_coefficients

TWO_PI = 2 * np.pi


class TestMeyerWindow:
    def test_plateau_and_support(self):
        w = MeyerWindow()
        assert w.psi0(np.array([0.0]))[0] == 1.0
        assert w.psi0(np.array([TWO_PI / 3 * 0.99]))[0] == 1.0
        assert w.psi0(np.array([2 * TWO_PI / 3 + 1e-9]))[0] == 0.0
        assert w.omega(np.array([np.pi / 2]))[0] == 0.0
        assert w.omega(np.array([TWO_PI / 3 * 0.5]))[0] == 0.0
        vals = w.psi0(np.linspace(-10, 10, 501))
        assert np.all((0 <= vals) & (vals <= 1))

    @pytest.mark.parametrize("profile", ["polynomial", "smooth"])
    def test_window_identities(self, profile):
        # both identities on a fine sample of [2pi/3, 4pi/3]
        w = MeyerWindow(profile)
        xi = np.linspace(TWO_PI / 3, 2 * TWO_PI / 3, 4097)
        id1 = w.omega(xi) ** 2 + w.omega(2 * xi) ** 2
        id2 = w.omega(xi) ** 2 + w.omega(TWO_PI - xi) ** 2
        assert np.max(np.abs(id1 - 1)) < 1e-10
        assert np.max(np.abs(id2 - 1)) < 1e-10

    def test_psi1_phase(self):
        w = MeyerWindow()
        xi = np.array([2.5, -2.5, 5.0])
        np.testing.assert_allclose(w.psi1(xi), w.omega(xi) * np.exp(-0.5j * xi))


def test_nyquist_guard():
    with pytest.raises(BasisConstructionError):
        build_basis("meyer", GridSpec(n=1, J=3, j_min=2))
    with pytest.raises(ParameterError):
        build_basis("haar", GridSpec(n=1, J=5, j_min=0))


class TestMeyerBasis:
    def test_gram_identity_spot(self, meyer1d, rng):
        idxs = [WaveletIndex((1,), j, (int(rng.integers(0, 1 << j)),))
                for j in meyer1d.detail_levels]
        idxs.append(WaveletIndex((0,), 0, (0,)))
        for a in idxs:
            ca = meyer1d.analyze(meyer1d.basis_function(a))
            for b in idxs:
                expected = 1.0 if a == b else 0.0
                assert abs(ca.get(b) - expected) < 1e-10

    def test_analyze_delta_and_zero(self, meyer1d):
        idx = WaveletIndex((1,), 4, (9,))
        c = meyer1d.analyze(meyer1d.basis_function(idx))
        assert abs(c.get(idx) - 1.0) < 1e-8
        total = c.energy()
        assert abs(total - 1.0) < 1e-8
        z = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
        assert z.max_abs() == 0.0

    def test_analyze_matches_inner_products(self, meyer1d, rng):
        f = band_limited(meyer1d, rng)
        c = meyer1d.analyze(f)
        for idx in [WaveletIndex((1,), 2, (1,)), WaveletIndex((1,), 5, (17,)),
                    WaveletIndex((0,), 0, (0,))]:
            phi = meyer1d.basis_function(idx)
            brute = l2_inner(f, phi)
            assert abs(c.get(idx) - brute) < 1e-10

    def test_roundtrip_and_parseval(self, meyer1d, rng):
        f = band_limited(meyer1d, rng)
        c = meyer1d.analyze(f)
        g = meyer1d.synthesize(c)
        assert rel_l2_error(g, f) < 1e-8
        assert abs(c.energy() - lp_norm(f, 2) ** 2) < 1e-8
        # real input: imaginary residue stays tiny
        assert np.max(np.abs(g.data.imag)) < 1e-10

    def test_roundtrip_2d(self, meyer2d, rng):
        f = band_limited(meyer2d, rng)
        assert rel_l2_error(meyer2d.synthesize(meyer2d.analyze(f)), f) < 1e-8

    def test_basis_function_grid_independent(self):
        # the same periodized wavelet sampled on two grids agrees on the
        # shared nodes: synthesis realizes a genuine function, not an
        # artifact of the resolution
        idx = WaveletIndex((1,), 3, (2,))
        coarse = build_basis("meyer", GridSpec(1, 7, 0))
        fine = build_basis("meyer", GridSpec(1, 8, 0))
        a = coarse.basis_function(idx)
        b = fine.basis_function(idx)
        np.testing.assert_allclose(a.data, b.data[::2], atol=1e-12)

    def test_mode_band_limitation(self, meyer1d):
        # a pure lattice mode with 2 pi m / 2^j inside the level-j annulus
        # only excites neighbouring levels
        spec = meyer1d.spec
        m = 24   # 2 pi 24 / 2^5 in (2pi/3, 8pi/3) -> levels 4..6
        x = spec.meshgrid()[0]
        f = GridFunction(spec, np.exp(2j * np.pi * m * x))
        c = meyer1d.analyze(f)
        active = {j for (eps, j), arr in c.detail.items()
                  if np.max(np.abs(arr)) > 1e-10}
        assert active <= {4, 5, 6}
        assert 5 in active

    def test_telescoping(self, meyer1d, rng):
        f = band_limited(meyer1d, rng)
        total = meyer1d.project(f, 0, "P")
        for j in meyer1d.detail_levels:
            total = total + meyer1d.project(f, j, "Q")
        assert rel_l2_error(total, f) < 1e-8

    def test_projection_examples(self, meyer1d, rng):
        idx = WaveletIndex((1,), 3, (5,))
        phi = meyer1d.basis_function(idx)
        assert rel_l2_error(meyer1d.project(phi, 3, "Q"), phi) < 1e-8
        assert lp_norm(meyer1d.project(phi, 5, "Q"), 2) < 1e-8
        f = band_limited(meyer1d, rng)
        lhs = meyer1d.project(f, 4, "P")
        rhs = meyer1d.project(f, 3, "P") + meyer1d.project(f, 3, "Q")
        assert rel_l2_error(lhs, rhs) < 1e-8
        P = meyer1d.project(f, 3, "P")
        assert rel_l2_error(meyer1d.project(P, 3, "P"), P) < 1e-8

    def test_meyer_vanishing_moments(self, meyer1d):
        # the zeroth moment vanishes identically; higher discrete moments are
        # limited by the wrapped tails, which drop below 1e-6 from level 6 on
        spec = meyer1d.spec
        x = spec.axis_coordinates()
        psi5 = meyer1d.basis_function(WaveletIndex((1,), 5, (11,)))
        assert abs(spec.cell_volume * np.sum(psi5.data.real)) < 1e-12
        psi = meyer1d.basis_function(WaveletIndex((1,), 6, (40,)))
        for alpha in range(0, 6):
            mo = spec.cell_volume * np.sum(x**alpha * psi.data.real)
            assert abs(mo) < 1e-6


class TestDaubechies:
    def test_filter_orthonormality(self, daub1d):
        h = daub1d.h
        assert abs(np.sum(h) - np.sqrt(2)) < 1e-12
        assert abs(np.sum(h * h) - 1.0) < 1e-12
        for s in range(1, 6):
            assert abs(np.sum(h[: len(h) - 2 * s] * h[2 * s:])) < 1e-12

    def test_roundtrip_parseval(self, daub1d, rng):
        spec = daub1d.spec
        f = GridFunction(spec, rng.standard_normal(spec.shape))
        c = daub1d.analyze(f)
        assert rel_l2_error(daub1d.synthesize(c), f) < 1e-6
        assert abs(c.energy() - lp_norm(f, 2) ** 2) < 1e-8

    def test_gram_spot(self, daub1d, rng):
        idxs = [WaveletIndex((1,), 4, (3,)), WaveletIndex((1,), 6, (40,)),
                WaveletIndex((0,), 0, (0,))]
        for a in idxs:
            ca = daub1d.analyze(daub1d.basis_function(a))
            for b in idxs:
                expected = 1.0 if a == b else 0.0
                assert abs(ca.get(b) - expected) < 1e-6

    def test_vanishing_moments(self, daub1d):
        # level fine enough that the support does not wrap: all discrete
        # moments below the filter order vanish
        spec = daub1d.spec
        x = spec.axis_coordinates()
        psi = daub1d.basis_function(WaveletIndex((1,), 5, (10,)))
        for alpha in range(daub1d.m0):
            mo = spec.cell_volume * np.sum(x**alpha * psi.data.real)
            assert abs(mo) < 1e-6

    def test_roundtrip_2d(self, spec2d, rng):
        basis = build_basis("daubechies", spec2d, m0=4)
        f = GridFunction(spec2d, rng.standard_normal(spec2d.shape))
        assert rel_l2_error(basis.synthesize(basis.analyze(f)), f) < 1e-6


class TestParaproduct:
    def test_zero_factor(self, meyer1d, rng):
        v = band_limited(meyer1d, rng)
        parts = paraproduct(meyer1d, GridFunction.zeros(meyer1d.spec), v)
        for part in parts.as_list():
            assert lp_norm(part, 2) == 0.0

    def test_constant_factor(self, meyer1d, rng):
        spec = meyer1d.spec
        u = GridFunction(spec, np.full(spec.shape, 2.0 + 0j))
        v = band_limited(meyer1d, rng)
        parts = paraproduct(meyer1d, u, v)
        assert lp_norm(parts.diagonal, 2) < 1e-8
        assert lp_norm(parts.band_up, 2) < 1e-8
        assert lp_norm(parts.band_down, 2) < 1e-8
        uv = GridFunction(spec, u.data * v.data)
        assert rel_l2_error(parts.total(), uv) < 1e-6

    def test_sum_reproduces_product(self, meyer1d, rng):
        u = band_limited(meyer1d, rng)
        v = band_limited(meyer1d, rng)
        parts = paraproduct(meyer1d, u, v)
        uv = GridFunction(meyer1d.spec, u.data * v.data)
        assert rel_l2_error(parts.total(), uv) < 1e-6

    def test_band_too_small(self):
        basis = build_basis("meyer", GridSpec(n=1, J=4, j_min=0))
        f = GridFunction.zeros(basis.spec)
        with pytest.raises(ParameterError):
            paraproduct(basis, f, f)


def test_coeff_serialization(tmp_path, meyer1d, rng):
    f = band_limited(meyer1d, rng)
    c = meyer1d.analyze(f)
    text = coeff_field_to_json(c)
    c2 = coeff_field_from_json(text)
    for key in c.detail:
        np.testing.assert_allclose(c2.detail[key], c.detail[key], atol=1e-15)
    path = tmp_path / "c.oslc"
    write_coeff_field(c, str(path))
    c3 = read_coeff_field(str(path))
    for key in c.detail:
        np.testing.assert_array_equal(c3.detail[key], c.detail[key])
    np.testing.assert_array_equal(c3.scaling, c.scaling)


def test_roundtrip_with_coarse_floor(rng):
    # j_min > 0: the scaling block sits at level 2 and carries every mode
    # below the detail band
    spec = GridSpec(n=1, J=8, j_min=2)
    basis = build_basis("meyer", spec)
    f = band_limited(basis, rng)
    c = basis.analyze(f)
    assert c.scaling.shape == (4,)
    assert rel_l2_error(basis.synthesize(c), f) < 1e-8


def test_smooth_profile_roundtrip(rng):
    spec = GridSpec(n=1, J=8, j_min=0)
    basis = build_basis("meyer", spec, profile="smooth")
    f = band_limited(basis, rng)
    c = basis.analyze(f)
    assert rel_l2_error(basis.synthesize(c), f) < 1e-8
    assert abs(c.energy() - lp_norm(f, 2) ** 2) < 1e-8


@pytest.mark.parametrize("idx", [
    WaveletIndex((1,), 3, (-1,)), WaveletIndex((1,), 3, (8,)),
    WaveletIndex((1,), 3, (1, 2)), WaveletIndex((1,), 7, (0,)),
    WaveletIndex((0,), 1, (0,)), WaveletIndex((2,), 3, (0,)),
])
def test_get_and_set_reject_indices_outside_the_band(meyer1d, idx):
    c = meyer1d.analyze(GridFunction.zeros(meyer1d.spec))
    with pytest.raises(IndexOutOfBandError):
        c.set(idx, 1.0)
    with pytest.raises(IndexOutOfBandError):
        c.get(idx)
    assert c.max_abs() == 0.0


# -- the batched Daubechies cascade against the row-by-row one -----------------

def _dwt_axis(a, filt, axis):
    """Periodic convolution-decimation of one grid function along one axis:
    out[l] = sum_m filt[m] a[2l+m], one np.tensordot per call."""
    a = np.moveaxis(a, axis, 0)
    M = a.shape[0]
    idx = (2 * np.arange(M // 2)[:, None] + np.arange(len(filt))[None, :]) % M
    return np.moveaxis(np.tensordot(filt, a[idx], axes=(0, 1)), 0, axis)


def cascade_by_rows(basis, data):
    """(detail dict, scaling) of the cascade run on one row of `data` at a
    time, stacked back onto its leading axes: the oracle of analyze_stack."""
    spec = basis.spec
    n = spec.n
    lead = data.shape[:data.ndim - n]
    rows = []
    for row in np.asarray(data, dtype=complex).reshape((-1,) + spec.shape):
        approx = row * 2.0 ** (-n * spec.J / 2.0)
        detail = {}
        for j in range(basis.j_max, basis.j_min - 1, -1):
            blocks = {(): approx}
            for axis in range(n):
                blocks = {pre + (bit,): _dwt_axis(arr, filt, axis)
                          for pre, arr in blocks.items()
                          for bit, filt in ((0, basis.h), (1, basis.g))}
            approx = blocks.pop((0,) * n)
            detail.update({(eps, j): arr for eps, arr in blocks.items()})
        rows.append((detail, approx))

    def stacked(blocks):
        return np.stack(blocks).reshape(lead + blocks[0].shape)

    return ({key: stacked([d[key] for d, _ in rows]) for key in rows[0][0]},
            stacked([a for _, a in rows]))


def assert_matches_rows(basis, data):
    detail, scaling = cascade_by_rows(basis, data)
    c = basis.analyze_stack(data)
    assert c.batch_shape == data.shape[:data.ndim - basis.spec.n]
    assert set(c.detail) == set(detail)
    for key, arr in detail.items():
        np.testing.assert_array_equal(c.detail[key], arr)
    np.testing.assert_array_equal(c.scaling, scaling)


def random_stack(rng, shape, complex_input):
    data = rng.standard_normal(shape)
    return data + 1j * rng.standard_normal(shape) if complex_input else data


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("m0", sorted(DAUBECHIES_FILTERS))
@pytest.mark.parametrize("n,J,j_min", [(1, 3, 0), (1, 6, 2), (2, 3, 0), (2, 4, 2)])
def test_batched_cascade_is_bitwise_the_row_by_row_one(n, J, j_min, m0,
                                                       complex_input, rng):
    basis = build_basis("daubechies", GridSpec(n, J, j_min), m0=m0)
    for lead in [(), (1,), (3,), (2, 3)]:
        assert_matches_rows(basis, random_stack(rng, lead + basis.spec.shape,
                                                complex_input))


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n,J", [(1, 5), (2, 3)])
def test_batched_cascade_on_a_full_chunk(n, J, complex_input, rng):
    basis = build_basis("daubechies", GridSpec(n, J, 0))
    rows = wavelet.chunk_rows(basis.spec.size)
    assert_matches_rows(basis, random_stack(rng, (rows,) + basis.spec.shape,
                                            complex_input))


@pytest.mark.parametrize("n", [1, 2])
def test_daubechies_analyze_is_the_batch_of_one(n, rng):
    basis = build_basis("daubechies", GridSpec(n, 4, 0), m0=3)
    f = GridFunction(basis.spec, random_stack(rng, basis.spec.shape, True))
    c, s = basis.analyze(f), basis.analyze_stack(f.data)
    assert c.batch_shape == s.batch_shape == ()
    for key in c.detail:
        np.testing.assert_array_equal(c.detail[key], s.detail[key])
    np.testing.assert_array_equal(c.scaling, s.scaling)


def test_daubechies_synthesize_rejects_a_stack(rng):
    basis = build_basis("daubechies", GridSpec(1, 3, 0), m0=2)
    data = rng.standard_normal((3,) + basis.spec.shape)
    c = basis.analyze_stack(data)
    with pytest.raises(GridMismatchError):
        basis.synthesize(c)
    assert rel_l2_error(basis.synthesize(c[1]), GridFunction(basis.spec, data[1])) < 1e-12


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("lead", [(), (1,), (3,), (16,), (64,)])
@pytest.mark.parametrize("n,J", [(1, 8), (1, 14), (2, 5), (2, 7), (2, 4), (2, 6)])
def test_meyer_block_kernel_is_the_full_grid_fold(n, J, lead, complex_input):
    """Every level block, the scaling blocks down to j = 0 included, has
    from the spectrum read at its plan's support the bits of the full-grid
    product and reshape-sum fold, and the transforms the bits of
    np.fft.ifftn.  The 2-d blocks add up to four terms per fold bucket."""
    basis = build_basis("meyer", GridSpec(n, J, 0))
    F = random_stack(np.random.default_rng(J + len(lead)),
                     lead + basis.spec.shape, complex_input)
    eps0 = (0,) * n
    blocks = [(eps, j) for j in basis.detail_levels
              for eps in basis.detail_type_list()]
    blocks += [(eps0, j) for j in range(basis.j_min, basis.j_max + 2)]
    for eps, j in blocks:
        plan = basis._plan(eps, j)
        assert j == 0 or plan.passes is not None
        got = plan.coefficients(np.take(F.reshape(lead + (-1,)), plan.support,
                                        axis=-1))
        np.testing.assert_array_equal(got, full_grid_coefficients(basis, F, eps, j),
                                      err_msg=f"block {eps}, j={j}")


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n,J", [(1, 14), (2, 7)])
def test_meyer_analyze_of_a_bare_grid_is_the_batch_of_one(n, J, complex_input):
    """A bare grid analyzes to the bits of the same grid as a batch of one,
    at the sizes where a full-grid `F * np.conj(W)` would be formed in
    place in numpy's temporary, and both have the full-grid fold's bits."""
    basis = build_basis("meyer", GridSpec(n, J, 0))
    data = random_stack(np.random.default_rng(J), basis.spec.shape, complex_input)
    bare, batch = basis.analyze_stack(data), basis.analyze_stack(data[None])
    assert bare.batch_shape == () and batch.batch_shape == (1,)
    F = np.fft.fftn(data) / basis.spec.size
    for key in bare.detail:
        assert bare.detail[key].tobytes() == batch.detail[key].tobytes(), key
        np.testing.assert_array_equal(bare.detail[key],
                                      full_grid_coefficients(basis, F, *key))
    assert bare.scaling.tobytes() == batch.scaling.tobytes()
    np.testing.assert_array_equal(
        bare.scaling, full_grid_coefficients(basis, F, (0,) * n, basis.j_min))


@pytest.mark.parametrize("lead", [(1,), (3,)])
@pytest.mark.parametrize("n,J", [(1, 8), (1, 10), (2, 5), (2, 7)])
def test_band_coefficients_are_the_full_grid_ones(n, J, lead):
    """Spectra read at the band support give every block the bits of the
    full-grid fold; at 2-d this includes the (1, 1), j = 0 block, whose
    fold is the full grid's pairwise sum."""
    basis = build_basis("meyer", GridSpec(n, J, 0))
    F = random_stack(np.random.default_rng(J), lead + basis.spec.shape, True)
    band = basis.band_support()
    assert np.array_equal(band, np.unique(band)) and band.size < basis.spec.size
    keys = []
    for (eps, j), coeffs in basis._coeffs_from_band(
            F.reshape(lead + (-1,))[..., band]):
        keys.append((eps, j))
        np.testing.assert_array_equal(coeffs, full_grid_coefficients(basis, F, eps, j),
                                      err_msg=f"block {eps}, j={j}")
    assert keys[-1] == ((0,) * n, basis.j_min)
    assert sorted(keys[:-1]) == sorted(basis.analyze_stack(F[0]).detail)
    if n == 2:
        assert basis._plan((1, 1), 0).passes is None


def full_grid_term(basis, c, eps, j):
    """The Fourier term of a level-j block of type eps on the full grid:
    2^{-nj/2} W times the block's FFT tiled over the grid (c may carry
    leading axes)."""
    n = basis.spec.n
    W = basis._tensor_window(eps, j)
    C = np.fft.fftn(c, axes=range(-n, 0))
    reps = (1,) * (c.ndim - n) + (basis.spec.samples_per_axis >> j,) * n
    return 2.0 ** (-n * j / 2.0) * W * np.tile(C, reps)


def synthesize_full_grid(basis, c):
    """The synthesis as a sum of full-grid terms, block by block (all-zero
    blocks skipped), then one inverse FFT."""
    n = basis.spec.n
    F = np.zeros(c.batch_shape + basis.spec.shape, dtype=complex)
    for (eps, j), arr in c.detail.items():
        if np.any(arr):
            F += full_grid_term(basis, arr, eps, j)
    if np.any(c.scaling):
        F += full_grid_term(basis, c.scaling, (0,) * n, basis.j_min)
    return np.fft.ifftn(F, axes=range(-n, 0)) * basis.spec.size


@pytest.mark.parametrize("n,J", [(1, 8), (1, 11), (2, 5), (2, 6)])
def test_meyer_projections_are_the_full_grid_ones(n, J):
    """P_j and Q_j at every level: each block's coefficients from the
    full-grid fold, its full-grid term added into a +0 accumulator, one
    inverse FFT."""
    basis = build_basis("meyer", GridSpec(n, J, 0))
    f = GridFunction(basis.spec, random_stack(np.random.default_rng(J + n),
                                              basis.spec.shape, True))
    F = np.fft.fftn(f.data) / basis.spec.size
    for j in range(basis.j_min, basis.j_max + 2):
        kinds = [("P", [(0,) * n])]
        if j <= basis.j_max:
            kinds.append(("Q", basis.detail_type_list()))
        for kind, types in kinds:
            G = np.zeros_like(F)
            for eps in types:
                G += full_grid_term(basis, full_grid_coefficients(basis, F, eps, j),
                                    eps, j)
            want = np.fft.ifftn(G) * basis.spec.size
            np.testing.assert_array_equal(basis.project(f, j, kind).data, want,
                                          err_msg=f"{kind}_{j}")


@pytest.mark.parametrize("lead", [(), (1,), (4,)])
@pytest.mark.parametrize("n,J", [(1, 8), (1, 10), (2, 5), (2, 7)])
def test_meyer_synthesis_on_the_support_is_the_full_grid_sum(n, J, lead):
    """synthesize_stack multiplies and adds on each window's support only:
    bit for bit the full-grid sum, for a bare grid and stacks, with zero
    rows in a block and an all-zero block."""
    basis = build_basis("meyer", GridSpec(n, J, 0))
    data = random_stack(np.random.default_rng(7 * J + n), lead + basis.spec.shape,
                        True)
    c = basis.analyze_stack(data)
    finest = (basis.detail_type_list()[0], basis.j_max)
    if lead and lead[0] > 1:
        c.detail[finest][1] = 0.0
        c.scaling[2] = 0.0
    c.detail[(basis.detail_type_list()[-1], basis.j_min + 1)][...] = 0.0
    got = basis.synthesize_stack(c)
    np.testing.assert_array_equal(got, synthesize_full_grid(basis, c))
    if not lead:
        np.testing.assert_array_equal(basis.synthesize(c).data, got)
    zero = c.zeros_like()
    assert not np.any(basis.synthesize_stack(zero))


def idwt_axis_by_rolls(lo, hi, h, g, axis):
    """The zero-stuff-and-filter step with two full np.roll copies per tap."""
    lo = np.moveaxis(lo, axis, 0)
    hi = np.moveaxis(hi, axis, 0)
    M = 2 * lo.shape[0]
    up_lo = np.zeros((M,) + lo.shape[1:], dtype=complex)
    up_hi = np.zeros_like(up_lo)
    up_lo[0::2] = lo
    up_hi[0::2] = hi
    out = np.zeros_like(up_lo)
    for m, (hm, gm) in enumerate(zip(h, g)):
        out += hm * np.roll(up_lo, m, axis=0) + gm * np.roll(up_hi, m, axis=0)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("m0", sorted(DAUBECHIES_FILTERS))
@pytest.mark.parametrize("n,J,j_min", [(1, 7, 0), (1, 6, 2), (2, 5, 0), (2, 4, 1)])
def test_daubechies_synthesis_matches_the_roll_form(monkeypatch, n, J, j_min, m0):
    """The slice-add inverse step against the roll form, bit for bit, down to
    j_min, where the filter (2 m0 taps) is longer than the axis."""
    basis = build_basis("daubechies", GridSpec(n, J, j_min), m0=m0)
    data = random_stack(np.random.default_rng(m0 + J), basis.spec.shape, True)
    c = basis.analyze_stack(data)
    got = basis.synthesize(c).data
    monkeypatch.setattr(wavelet, "_idwt_axis", idwt_axis_by_rolls)
    assert got.tobytes() == basis.synthesize(c).data.tobytes()


@settings(max_examples=40)
@given(family=st.sampled_from(["meyer", "daubechies"]), n=st.sampled_from([1, 2]),
       J=st.integers(2, 6), rows=st.integers(1, 5), complex_input=st.booleans(),
       seed=st.integers(0, 2**16))
def test_stack_round_trip_and_parseval(family, n, J, rows, complex_input, seed):
    """Each row of analyze_stack synthesizes back to its input and keeps its
    l2 energy (the Meyer rows band-limited, which the basis reproduces)."""
    basis = build_basis(family, GridSpec(n, J if n == 1 else min(J, 4), 0))
    spec = basis.spec
    data = random_stack(np.random.default_rng(seed), (rows,) + spec.shape,
                        complex_input)
    fs = [basis.band_limit(GridFunction(spec, row)) for row in data]
    c = basis.analyze_stack(np.stack([f.data for f in fs]))
    assert c.batch_shape == (rows,)
    for i, f in enumerate(fs):
        assert rel_l2_error(basis.synthesize(c[i]), f) < 1e-12
        energy = lp_norm(f, 2) ** 2
        assert abs(c[i].energy() - energy) <= 1e-12 * energy
