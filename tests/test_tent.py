import warnings

import numpy as np
import pytest

from oscillet import tent
from oscillet.errors import ParameterError
from oscillet.grid import DyadicCube, GridFunction, GridSpec, cube_contains
from oscillet.norms import SpaceParams, _runs
from oscillet.operators import _random_detail_field
from oscillet.semigroup import (
    SemigroupSpec,
    TimeGrid,
    default_time_grid,
    evolve_coefficients,
)
from oscillet.tent import (
    TentParams,
    bloch_norm,
    check_embeddings,
    scaling_time_field,
    t_linf_norm,
    tent_norms,
)
from oscillet.wavelet import CoeffField, build_basis


def make_tp(g1=-0.2, g2=0.1, p=2.0, q=2.0, m=3.0, mp=1.0, beta=1.0):
    return TentParams(SpaceParams(g1, g2, p, q), m=m, m_prime=mp, beta=beta)


def empty_tcf(basis, tg, beta=1.0):
    return CoeffField(basis.spec, basis.family, basis.j_min, basis.j_max, tg=tg,
                      beta=beta)


def brute_force_parts_I_II(tcf, tp):
    """Direct loops over (cube, node, level, position) from the displayed
    formulas; single-index fields only need tiny grids."""
    spec = tcf.spec
    nodes = tcf.tg.nodes()
    q, p = tp.sp.q, tp.sp.p
    best1 = best2 = 0.0
    for j0 in range(spec.j_min, spec.J):
        for flat in range((1 << j0) ** spec.n):
            k0 = np.unravel_index(flat, (1 << j0,) * spec.n)
            cube = DyadicCube(j0, tuple(int(v) for v in k0))
            w = 2.0 ** (-j0 * (tp.sp.gamma2 - spec.n / p))
            for ell, t in enumerate(nodes):
                theta = -np.log2(t) / (2 * tp.beta)
                int1 = np.zeros(spec.shape)
                int2 = np.zeros(spec.shape)
                for (eps, j), arr in tcf.detail.items():
                    for kflat in range(arr[ell].size):
                        k = np.unravel_index(kflat, arr[ell].shape)
                        inner = DyadicCube(j, tuple(int(v) for v in k))
                        if not cube_contains(cube, inner):
                            continue
                        from oscillet.grid import cube_sample_slices
                        sl = cube_sample_slices(spec, inner)
                        a = abs(arr[ell][k])
                        if j >= max(j0, theta):
                            w1 = 2.0 ** (q * j * (tp.sp.gamma1 + spec.n / 2
                                                  + 2 * tp.m * tp.beta))
                            int1[sl] += w1 * a**q
                        if j0 < j < theta:
                            w2 = 2.0 ** (q * j * (tp.sp.gamma1 + spec.n / 2))
                            int2[sl] += w2 * a**q
                v1 = t**tp.m * w * (spec.cell_volume
                                    * np.sum(int1 ** (p / q))) ** (1 / p)
                v2 = w * (spec.cell_volume * np.sum(int2 ** (p / q))) ** (1 / p)
                best1, best2 = max(best1, v1), max(best2, v2)
    return best1, best2


def parts_i_ii_oracle(tcf, tp):
    """Parts I/II node by node: per node and cube level, one batch-of-one
    `_cube_sup` call; returns (value, argmax cube, argmax node) per part."""
    spec, sp, q = tcf.spec, tp.sp, tp.sp.q
    e, root = (1.0, None) if q == np.inf else (q, 1.0 / q)
    s = sp.gamma1 + spec.n / 2.0
    w_i = {j: 2.0 ** (e * j * (s + 2 * tp.m * tp.beta)) for j in tcf.levels}
    w_ii = {j: 2.0 ** (e * j * s) for j in tcf.levels}
    best = [(0.0, None, None), (0.0, None, None)]
    for ell, t in enumerate(tcf.tg.nodes()):
        theta = -np.log2(t) / (2.0 * tp.beta)
        base = tent._level_base_fields(tcf, slice(ell, ell + 1), q)
        parts = [(w_i, lambda j0, j: j >= max(j0, theta), t**tp.m),
                 (w_ii, lambda j0, j: j0 < j < theta, 1.0)]
        for part, (w, admit, scale) in enumerate(parts):
            v, cube = 0.0, None
            for j0 in range(spec.j_min, spec.J):
                levels = [j for j in tcf.levels if admit(j0, j)]
                if levels:
                    vals, flat = tent._cube_sup(base, w, levels, j0, root, sp, spec)
                    if vals[0] > v:
                        k = np.unravel_index(int(flat[0]), (1 << j0,) * spec.n)
                        v, cube = float(vals[0]), DyadicCube(j0, tuple(map(int, k)))
            v *= scale
            if v > best[part][0]:
                best[part] = (v, cube, ell)
    return best


class TestNodeBatchedParts:
    @pytest.mark.parametrize("n, J, L, rows", [(1, 8, 64, 4), (2, 5, 24, 2)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, np.inf)])
    def test_parts_i_ii_match_node_loop(self, monkeypatch, n, J, L, rows, p, q):
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        tp = make_tp(p=p, q=q)
        tg = default_time_grid(spec, tp.beta, L=L)
        tcf = empty_tcf(basis, tg)
        rng = np.random.default_rng(J + n)
        for arr in tcf.detail.values():
            arr[:] = rng.standard_normal(arr.shape)
        monkeypatch.setattr(tent, "CHUNK_BYTES", rows * 16 * spec.size)
        # some run of nodes with equal level sets spans several chunks and
        # ends in a partial one
        above = np.array([[j >= -np.log2(t) / (2 * tp.beta) for j in tcf.levels]
                          for t in tg.nodes()])
        assert any(b - a > rows and (b - a) % rows for a, b in _runs(above))
        # a node boosted past the t^m weight carries the sup of part I or
        # (where part I admits no level) part II, so every chunk edge of
        # those runs is evaluated on its own
        edges = sorted({ell for a, b in _runs(above) if b - a > rows
                        for ell in (a, a + rows - 1, a + rows, b - 1)})
        for ell in [None] + edges:
            boost = np.ones(L)
            if ell is not None:
                boost[ell] = 1e3 / tg.nodes()[ell] ** tp.m
            field = tcf.map_detail(
                lambda eps, j, arr: arr * boost.reshape((L,) + (1,) * n))
            rep = tent_norms(field, tp)
            want = parts_i_ii_oracle(field, tp)
            for got, (value, cube, node) in zip((rep.part_i, rep.part_ii), want):
                assert (got.value, got.argmax_cube, got.argmax_node) \
                    == (value, cube, node)
            assert ell in (None, rep.part_i.argmax_node, rep.part_ii.argmax_node)


def sup_over_cubes_per_level(fields, rows, level_weights, admitted, root, sp,
                             spec):
    """`tent._sup_over_cubes` one cube level at a time: one `_cube_sup`
    call, so one integrand and one p-th power, per cube level."""
    best = np.zeros(rows)
    best_j0 = np.full(rows, -1)
    best_flat = np.zeros(rows, dtype=int)
    for j0, levels in admitted.items():
        if not levels:
            continue
        vals, flat = tent._cube_sup(fields, level_weights, levels, j0, root, sp,
                                    spec)
        better = vals > best
        best[better] = vals[better]
        best_j0[better] = j0
        best_flat[better] = flat[better]
    return best, best_j0, best_flat


class TestSharedIntegrand:
    @pytest.mark.parametrize("n, J, L", [(1, 8, 48), (2, 5, 16)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, 1.5), (1.5, np.inf)])
    def test_parts_match_one_integrand_per_cube_level(self, monkeypatch, n, J,
                                                      L, p, q):
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        tp = make_tp(p=p, q=q)
        tcf = empty_tcf(basis, default_time_grid(spec, tp.beta, L=L))
        rng = np.random.default_rng(3 * J + n)
        for arr in tcf.detail.values():
            arr[:] = rng.standard_normal(arr.shape)
        kernel = tent._morrey_cube_max
        shared = []

        def counting_kernel(integrand, j0s, sp, spec):
            shared.append(len(j0s))
            return kernel(integrand, j0s, sp, spec)

        monkeypatch.setattr(tent, "_morrey_cube_max", counting_kernel)
        got = tent_norms(tcf, tp)
        # part I admits one level set for every j0 <= theta, part IV one
        # for every j0: some integrand served several cube levels
        assert max(shared) >= 2
        monkeypatch.setattr(tent, "_sup_over_cubes", sup_over_cubes_per_level)
        del shared[:]
        want = tent_norms(tcf, tp)
        assert max(shared) == 1
        assert got == want
        # and parts I/II against the per-node oracle
        for part, (value, cube, node) in zip((got.part_i, got.part_ii),
                                             parts_i_ii_oracle(tcf, tp)):
            assert (part.value, part.argmax_cube, part.argmax_node) \
                == (value, cube, node)


    def test_a_tie_goes_to_the_first_cube_level(self):
        # a constant integrand at p = 1, gamma2 = 0 has Morrey value exactly
        # 1 on every cube of every level: the strict > keeps the first one
        spec = GridSpec(1, 6, 0)
        sp = SpaceParams(-0.2, 0.0, 1.0, 2.0)
        fields = {j: np.ones((2, 16)) for j in (2, 3)}
        weights = {2: 0.5, 3: 0.5}
        admitted = {0: [2, 3], 1: [2, 3], 2: [2, 3], 3: [3], 4: [3], 5: []}
        for sup in (tent._sup_over_cubes, sup_over_cubes_per_level):
            vals, j0, flat = sup(fields, 2, weights, admitted, 1.0, sp, spec)
            np.testing.assert_array_equal(vals, [1.0, 1.0])
            np.testing.assert_array_equal(j0, [0, 0])
            np.testing.assert_array_equal(flat, [0, 0])


class TestNonFiniteTentInput:
    @pytest.mark.parametrize("name", ["m", "m_prime", "beta", "tau"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_reject_nonfinite(self, name, bad):
        kw = dict(sp=SpaceParams(-0.2, 0.1, 2.0, 2.0), m=3.0, m_prime=1.0,
                  beta=1.0, tau=1.0)
        kw[name] = bad
        with pytest.raises(ParameterError):
            TentParams(**kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tent_rejects_nonfinite_coefficient(self, meyer1d, bad):
        tg = TimeGrid(1e-4, 2.0, 12)
        tcf = empty_tcf(meyer1d, tg)
        rng = np.random.default_rng(7)
        for arr in tcf.detail.values():
            arr[:] = rng.standard_normal(arr.shape)
        tcf.detail[((1,), 4)][5, 3] = bad
        with pytest.raises(ParameterError):
            tent_norms(tcf, make_tp())


class TestTentParts:
    def test_zero_field(self, meyer1d):
        tg = TimeGrid(1e-5, 4.0, 16)
        rep = tent_norms(empty_tcf(meyer1d, tg), make_tp())
        assert rep.values == (0.0, 0.0, 0.0, 0.0)
        assert rep.combined == 0.0

    def test_single_index_brute_force(self):
        spec = GridSpec(1, 5, 0)
        basis = build_basis("meyer", spec)
        tg = TimeGrid(2.0**-12, 4.0, 24)
        tp = make_tp()
        tcf = empty_tcf(basis, tg)
        j, k = 2, 1
        tau = tg.nodes() * 2.0 ** (2 * tp.beta * j)
        tcf.detail[((1,), j)][:, k] = np.exp(-tau)
        rep = tent_norms(tcf, tp)
        b1, b2 = brute_force_parts_I_II(tcf, tp)
        assert rep.part_i.value == pytest.approx(b1, rel=1e-10)
        assert rep.part_ii.value == pytest.approx(b2, rel=1e-10)

    def test_homogeneity(self, meyer1d):
        tg = TimeGrid(1e-4, 2.0, 12)
        tcf = empty_tcf(meyer1d, tg)
        rng = np.random.default_rng(3)
        for key, arr in tcf.detail.items():
            arr[:] = rng.standard_normal(arr.shape)
        tp = make_tp()
        rep = tent_norms(tcf, tp)
        rep2 = tent_norms(tcf.scaled(2.5), tp)
        for a, b in zip(rep.values, rep2.values):
            assert b == pytest.approx(2.5 * a, rel=1e-10)

    def test_monotone_domination(self, meyer1d):
        tg = TimeGrid(1e-4, 2.0, 12)
        rng = np.random.default_rng(4)
        small = empty_tcf(meyer1d, tg)
        big = empty_tcf(meyer1d, tg)
        for key, arr in small.detail.items():
            vals = np.abs(rng.standard_normal(arr.shape))
            arr[:] = vals
            big.detail[key][:] = vals * (1.0 + np.abs(rng.standard_normal(arr.shape)))
        tp = make_tp()
        ra, rb = tent_norms(small, tp), tent_norms(big, tp)
        for a, b in zip(ra.values, rb.values):
            assert b >= a - 1e-12

    def test_part_iii_constant_profile_closed_form(self, meyer1d):
        tg = TimeGrid(2.0**-18, 4.0, 256)
        tp = make_tp()
        tcf = empty_tcf(meyer1d, tg)
        j, k = 3, 2
        tcf.detail[((1,), j)][:, k] = 1.0
        q, m, beta = tp.sp.q, tp.m, tp.beta
        rep = tent_norms(tcf, tp)
        # the part-III sup for a single index sits at a cube with r = 2^{-j0}:
        # check the root cube value against the closed form of the integral
        lo = 2.0 ** (-2 * j * beta)
        integral = (1.0 ** (q * m) - lo ** (q * m)) / (q * m)
        w_cube = 1.0   # root cube, gamma2/n - 1/p weight with r=1
        wlevel = 2.0 ** (q * j * (tp.sp.gamma1 + 0.5 + 2 * m * beta))
        val_root = (wlevel * integral) ** (1 / q) * (2.0 ** (-j)) ** (1 / tp.sp.p)
        # brute force over cube levels j0 < j to find the sup
        best = 0.0
        for j0 in range(0, meyer1d.spec.J):
            if j <= j0:
                continue
            hi = 2.0 ** (-2 * j0 * beta)
            integ = (hi ** (q * m) - lo ** (q * m)) / (q * m)
            if integ <= 0:
                continue
            w = 2.0 ** (-j0 * (tp.sp.gamma2 - 1.0 / tp.sp.p))
            v = w * (wlevel * integ) ** (1 / q) * (2.0 ** (-j)) ** (1 / tp.sp.p)
            best = max(best, v)
        assert rep.part_iii.value == pytest.approx(best, rel=2e-3)
        assert val_root <= rep.part_iii.value * (1 + 1e-9)

    def test_part_iv_constant_profile_closed_form(self, meyer1d):
        tg = TimeGrid(2.0**-18, 4.0, 256)
        tp = make_tp()
        tcf = empty_tcf(meyer1d, tg)
        j, k = 3, 2
        tcf.detail[((1,), j)][:, k] = 1.0
        q, mp, beta = tp.sp.q, tp.m_prime, tp.beta
        rep = tent_norms(tcf, tp)
        upper = 2.0 ** (-2 * j * beta)
        integral = upper ** (q * mp) / (q * mp)   # int_0^{2^{-2jb}} t^{qm'} dt/t
        wlevel = 2.0 ** (q * j * (tp.sp.gamma1 + 0.5 + 2 * mp * beta))
        best = 0.0
        for j0 in range(0, meyer1d.spec.J):
            w = 2.0 ** (-j0 * (tp.sp.gamma2 - 1.0 / tp.sp.p))
            if j0 > j:
                continue
            v = w * (wlevel * integral) ** (1 / q) * (2.0 ** (-j)) ** (1 / tp.sp.p)
            best = max(best, v)
        assert rep.part_iv.value == pytest.approx(best, rel=2e-3)

    def test_part_iv_argmax_moves_right_with_mprime(self, meyer1d):
        # integrand profile: larger m' pushes the time-mass toward the window top
        tg = TimeGrid(2.0**-18, 4.0, 128)
        j = 3
        nodes = tg.nodes()
        window = nodes <= 2.0 ** (-2 * j)
        prof = np.ones(tg.L)
        argmaxes = []
        for mp in (0.5, 1.0, 3.0):
            mass = prof**2 * nodes ** (2 * mp) * tg.weights()
            mass[~window] = 0.0
            argmaxes.append(int(np.argmax(mass)))
        assert argmaxes == sorted(argmaxes)

    def test_part_ii_band_empty(self, meyer1d):
        # nodes with t >= r^{2 beta} for every cube: part II vanishes
        tg = TimeGrid(2.0, 8.0, 8)
        tcf = empty_tcf(meyer1d, tg)
        tcf.detail[((1,), 3)][:, 1] = 1.0
        rep = tent_norms(tcf, make_tp())
        assert rep.part_ii.value == 0.0

    def test_seam_partition_stability(self, meyer1d):
        # moving the seam by one level changes parts I/II but the max stays
        # within the two-part total
        tg = TimeGrid(2.0**-16, 4.0, 64)
        tp = make_tp()
        tcf = empty_tcf(meyer1d, tg)
        rng = np.random.default_rng(5)
        for key, arr in tcf.detail.items():
            arr[:] = np.abs(rng.standard_normal(arr.shape)) * 0.1
        rep = tent_norms(tcf, tp)
        shifted = TentParams(tp.sp, tp.m, tp.m_prime, tp.beta * 1.0001)
        rep2 = tent_norms(tcf, shifted)
        assert abs(max(rep.part_i.value, rep.part_ii.value)
                   - max(rep2.part_i.value, rep2.part_ii.value)) \
            <= 0.05 * max(rep.part_i.value, rep.part_ii.value)

    def test_quadrature_refinement(self, meyer1d):
        # smooth-in-log-time profile: doubling the node count moves the
        # time-integrated parts by less than 1e-3 relative
        tp = make_tp()
        vals = {}
        for L in (256, 512):
            tg = TimeGrid(2.0**-18, 4.0, L)
            tcf = empty_tcf(meyer1d, tg)
            tau = tg.nodes() * 2.0 ** (2 * tp.beta * 3)
            tcf.detail[((1,), 3)][:, 2] = (1 + tau) ** -1.5
            rep = tent_norms(tcf, tp)
            vals[L] = (rep.part_iii.value, rep.part_iv.value)
        assert abs(vals[512][0] / vals[256][0] - 1) < 1e-3
        assert abs(vals[512][1] / vals[256][1] - 1) < 1e-3


class TestBlochAndTLinf:
    def test_bloch_zero_and_plateau(self, meyer1d):
        tg = TimeGrid(2.0**-18, 8.0, 160)
        tcf = empty_tcf(meyer1d, tg)
        assert bloch_norm(tcf, 0.3, 0.7, 1.0) == 0.0
        j, tau_exp = 4, 0.7
        taus = tg.nodes() * 2.0 ** (2 * j)
        prof = np.where(taus >= 1, taus ** (-tau_exp), 1.0)
        tcf.detail[((1,), j)][:, 5] = prof
        val = bloch_norm(tcf, 0.3, tau_exp, 1.0)
        assert val == pytest.approx(2 * 2.0 ** (j * (0.5 + 0.3)), rel=1e-9)

    def test_bloch_homogeneity(self, meyer1d):
        tg = TimeGrid(2.0**-14, 4.0, 32)
        tcf = empty_tcf(meyer1d, tg)
        rng = np.random.default_rng(6)
        for key, arr in tcf.detail.items():
            arr[:] = rng.standard_normal(arr.shape)
        v = bloch_norm(tcf, 0.1, 0.5, 1.0)
        assert bloch_norm(tcf.scaled(3.0), 0.1, 0.5, 1.0) == pytest.approx(
            3 * v, rel=1e-12)

    def test_t_linf_weight_cancellation(self, meyer1d, rng):
        g1, beta = -0.4, 1.0
        tg = TimeGrid(1e-3, 1.0, 16)
        g = meyer1d.band_limit(
            GridFunction(meyer1d.spec, rng.standard_normal(meyer1d.spec.shape)))
        frames = (GridFunction(meyer1d.spec, t ** (g1 / (2 * beta)) * g.data)
                  for t in tg.nodes())
        stf = scaling_time_field(meyer1d, frames, tg)
        val = t_linf_norm(stf, g1, beta)
        direct = max(
            float(np.max(2.0 ** (j / 2)
                         * np.abs(meyer1d.scaling_coefficients(g, j))))
            for j in range(0, meyer1d.j_max + 2))
        assert val == pytest.approx(direct, rel=1e-10)

    def test_t_linf_single_mode_brute_force(self, meyer1d):
        g1, beta = 0.2, 1.0
        tg = TimeGrid(1e-2, 1.0, 8)
        x = meyer1d.spec.meshgrid()[0]
        g = GridFunction(meyer1d.spec, np.cos(2 * np.pi * 3 * x))
        frames = [GridFunction(meyer1d.spec, (1 + t) * g.data)
                  for t in tg.nodes()]
        stf = scaling_time_field(meyer1d, frames, tg)
        val = t_linf_norm(stf, g1, beta)
        brute = 0.0
        for ell, t in enumerate(tg.nodes()):
            for j, arr in stf.fields.items():
                w = t ** (-g1 / (2 * beta)) * 2.0 ** (j / 2)
                brute = max(brute, w * float(np.max(np.abs(arr[ell]))))
        assert val == pytest.approx(brute, rel=1e-12)


class TestEmbeddings:
    def test_zero_vacuous(self, meyer1d):
        tg = TimeGrid(1e-4, 2.0, 16)
        rep = check_embeddings(empty_tcf(meyer1d, tg), make_tp())
        assert rep.ratio_high == 0.0 and rep.ratio_low == 0.0
        assert not rep.flagged

    def test_heat_data_finite(self, meyer1d, rng):
        sg = SemigroupSpec(1.0, meyer1d.spec)
        tg = default_time_grid(meyer1d.spec, 1.0, L=96)
        sp = SpaceParams(-0.2, 0.1, 2.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = meyer1d.synthesize(_random_detail_field(meyer1d, sp, 3))
            tcf = evolve_coefficients(sg, meyer1d, f, tg)
            rep = check_embeddings(tcf, make_tp())
        assert np.isfinite(rep.ratio_high) and np.isfinite(rep.ratio_low)
        assert not rep.flagged

    def test_adversarial_flagged(self, meyer1d):
        tg = default_time_grid(meyer1d.spec, 1.0, L=96)
        tcf = empty_tcf(meyer1d, tg)
        j = 3
        tau = tg.nodes() * 2.0 ** (2 * j)
        tcf.detail[((1,), j)][:, 1] = np.where(tau >= 1, tau, 1.0)
        with pytest.warns(UserWarning):
            rep = check_embeddings(tcf, make_tp())
        assert rep.flagged


def test_tent_q_inf_parts_i_ii(meyer1d):
    # q = inf: parts I/II run on the sup aggregate; III/IV report zero
    tg = TimeGrid(2.0**-16, 4.0, 32)
    tcf = empty_tcf(meyer1d, tg)
    tau = tg.nodes() * 2.0 ** (2 * 3)
    tcf.detail[((1,), 3)][:, 2] = np.exp(-tau)
    tp = TentParams(SpaceParams(-0.2, 0.1, 2.0, np.inf), 3.0, 1.0, 1.0)
    rep = tent_norms(tcf, tp)
    assert rep.part_i.value > 0 and rep.part_ii.value > 0
    assert rep.part_iii.value == 0.0 and rep.part_iv.value == 0.0
