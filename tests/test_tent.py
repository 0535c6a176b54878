import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillet import tent, wavelet
from oscillet.errors import ParameterError
from oscillet.grid import DyadicCube, GridFunction, GridSpec, cube_contains
from oscillet.norms import (
    SpaceParams,
    _level_power_sum,
    _morrey_cube_max,
    _Pruner,
    _runs,
    _upsample,
)
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
    `_morrey_cube_max` call; returns (value, argmax cube, argmax node) per
    part."""
    spec, sp, q = tcf.spec, tp.sp, tp.sp.q
    e, root = (1.0, None) if q == np.inf else (q, 1.0 / q)
    s = sp.gamma1 + spec.n / 2.0
    w_i = {j: 2.0 ** (e * j * (s + 2 * tp.m * tp.beta)) for j in tcf.levels}
    w_ii = {j: 2.0 ** (e * j * s) for j in tcf.levels}
    best = [(0.0, None, None), (0.0, None, None)]
    for ell, t in enumerate(tcf.tg.nodes()):
        theta = -np.log2(t) / (2.0 * tp.beta)
        base = {j: _upsample(_level_power_sum(tcf, j, q, slice(ell, ell + 1)),
                             tcf.j_max, spec.n) for j in tcf.levels}
        parts = [(w_i, lambda j0, j: j >= max(j0, theta), t**tp.m),
                 (w_ii, lambda j0, j: j0 < j < theta, 1.0)]
        for part, (w, admit, scale) in enumerate(parts):
            v, cube = 0.0, None
            for j0 in range(spec.j_min, spec.J):
                levels = [j for j in tcf.levels if admit(j0, j)]
                if levels:
                    [(vals, flat)] = _morrey_cube_max(
                        tent._integrand(base, w, levels, root), (j0,), sp, spec)
                    if vals[0] > v:
                        k = np.unravel_index(int(flat[0]), (1 << j0,) * spec.n)
                        v, cube = float(vals[0]), DyadicCube(j0, tuple(map(int, k)))
            v *= scale
            if v > best[part][0]:
                best[part] = (v, cube, ell)
    return best


def parts_iii_iv_oracle(tcf, tp, literal=False):
    """Parts III/IV cube level by cube level, with each block's window
    integrals taken from its own running sums over the log cells, one
    batch-of-one `_morrey_cube_max` call per cube level; returns (value,
    argmax cube) per part."""
    spec, sp, q, beta = tcf.spec, tp.sp, tp.sp.q, tp.beta
    n, ln2, root = spec.n, np.log(2.0), 1.0 if literal else 1.0 / q
    s = sp.gamma1 + n / 2.0
    edges = tcf.tg.log_edges()

    def G(key, qm, log_s):
        """int_(t_min-edge, s] |a|^q t^{qm} dt/t of every coefficient of a
        block."""
        absq = np.abs(tcf.detail[key].reshape(tcf.tg.L, -1)) ** q
        anti = tent._time_moment_antiderivative
        prefix = np.concatenate([np.zeros((1, absq.shape[1])), np.cumsum(
            absq * np.diff(anti(edges, qm))[:, None], axis=0)])
        if log_s <= edges[0]:
            return prefix[0]
        if log_s >= edges[-1]:
            return prefix[-1]
        c = int(np.searchsorted(edges, log_s, side="right")) - 1
        step = anti(np.array([log_s]), qm)[0] - anti(np.array([edges[c]]), qm)[0]
        return prefix[c] + absq[c] * step

    out = []
    for mm, lower in ((tp.m, True), (tp.m_prime, False)):
        w = {j: 2.0 ** (q * j * (s + 2 * mm * beta)) for j in tcf.levels}
        best, cube = 0.0, None
        for j0 in range(spec.j_min, spec.J):
            fields = {}
            for j in tcf.levels:
                if lower and j <= j0:
                    continue
                hi = -2.0 * (j0 if lower else j) * beta * ln2
                lo = -2.0 * j * beta * ln2 if lower else -np.inf
                total = None
                for eps in tent.detail_types(n):
                    I = np.maximum(G((eps, j), q * mm, hi) - G((eps, j), q * mm, lo),
                                   0.0)
                    total = I if total is None else total + I
                fields[j] = _upsample(total.reshape((1,) + (1 << j,) * n),
                                      tcf.j_max, n)
            if not fields:
                continue
            [(vals, flat)] = _morrey_cube_max(
                tent._integrand(fields, w, list(fields), root), (j0,), sp, spec)
            if vals[0] > best:
                k = np.unravel_index(int(flat[0]), (1 << j0,) * n)
                best, cube = float(vals[0]), DyadicCube(j0, tuple(map(int, k)))
        out.append((best, cube))
    return out


def unpruned(monkeypatch):
    """Make every admitted (row, cube level) pair reach the exact kernel:
    the parts I/II bounds of admitted pairs become +inf (parts III/IV
    evaluate every cube level anyway)."""
    bounds = tent._morrey_bounds

    def infinite(*args):
        return [np.where(b > 0, np.inf, 0.0) for b in bounds(*args)]

    monkeypatch.setattr(tent, "_morrey_bounds", infinite)


def random_tcf(basis, tg, seed, complex_=False):
    tcf = empty_tcf(basis, tg)
    rng = np.random.default_rng(seed)
    for arr in tcf.detail.values():
        arr[:] = rng.standard_normal(arr.shape)
        if complex_:
            arr += 1j * rng.standard_normal(arr.shape)
    return tcf


def assert_same_parts(got, want):
    for a, b in zip((got.part_i, got.part_ii, got.part_iii, got.part_iv),
                    (want.part_i, want.part_ii, want.part_iii, want.part_iv)):
        assert (a.value, a.argmax_cube, a.argmax_node) \
            == (b.value, b.argmax_cube, b.argmax_node)
        assert type(a.value) is type(b.value)


class TestNodeBatchedParts:
    @pytest.mark.parametrize("n, J, L, rows", [(1, 8, 64, 4), (2, 5, 24, 2)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, np.inf)])
    def test_parts_i_ii_match_node_loop(self, monkeypatch, n, J, L, rows, p, q):
        """The bound pass runs over chunks of `rows` nodes (CHUNK_BYTES set
        to rows of the pass's width); a node boosted past the t^m weight
        carries the sup of part I or (where part I admits no level) part II,
        at every edge of a run of nodes with equal level sets and at the
        edges of the first and the last chunk."""
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        tp = make_tp(p=p, q=q)
        tg = default_time_grid(spec, tp.beta, L=L)
        tcf = random_tcf(basis, tg, J + n)
        # the pass holds two float parts per node and band cell, the bytes
        # of one complex band row
        width = (1 << basis.j_max) ** n
        monkeypatch.setattr(wavelet, "CHUNK_BYTES", rows * 16 * width)
        assert wavelet.chunk_rows(width) == rows
        chunks = []
        bounds = tent._morrey_bounds

        def recording(fields, parts, *args):
            if len(parts) == 2:
                chunks.append(len(parts[0][0]))
            return bounds(fields, parts, *args)

        monkeypatch.setattr(tent, "_morrey_bounds", recording)
        above = np.array([[j >= -np.log2(t) / (2 * tp.beta) for j in tcf.levels]
                          for t in tg.nodes()])
        runs = _runs(above)
        assert len(runs) > 2
        edges = sorted({ell for a, b in runs for ell in (a, b - 1)}
                       | {rows - 1, rows, L - rows - 1, L - rows, L - 1})
        for ell in [None] + edges:
            boost = np.ones(L)
            if ell is not None:
                boost[ell] = 1e3 / tg.nodes()[ell] ** tp.m
            field = tcf.map_detail(
                lambda eps, j, arr: arr * boost.reshape((L,) + (1,) * n))
            del chunks[:]
            rep = tent_norms(field, tp)
            assert chunks == [rows] * (L // rows) + [L % rows] * (L % rows > 0)
            want = parts_i_ii_oracle(field, tp)
            for got, (value, cube, node) in zip((rep.part_i, rep.part_ii), want):
                assert (got.value, got.argmax_cube, got.argmax_node) \
                    == (value, cube, node)
            assert ell in (None, rep.part_i.argmax_node, rep.part_ii.argmax_node)


class TestOnePowerTable:
    """Every part reads one |a|^q table per tent_norms call; the values are
    those of parts that each take |a|^q themselves."""

    @pytest.mark.parametrize("n, J, L", [(1, 8, 48), (2, 5, 16)])
    @pytest.mark.parametrize("q", [2.0, 1.5, np.inf])
    def test_shared_table_matches_per_part_recomputation(self, monkeypatch, n, J,
                                                         L, q):
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        tp = make_tp(p=3.0, q=q)
        tcf = random_tcf(basis, default_time_grid(spec, tp.beta, L=L), 5 * J + n,
                         complex_=True)
        tables = []
        abs_power = tent._abs_power

        def counting(field, q):
            tables.append(q)
            return abs_power(field, q)

        monkeypatch.setattr(tent, "_abs_power", counting)
        got = tent_norms(tcf, tp)
        assert tables == [q]

        def level_fields(field, absq, nodes, q):
            return {j: _level_power_sum(field, j, q, nodes) for j in field.levels}

        class OwnTable(tent._WindowIntegrals):
            def __init__(self, field, absq, *args):
                super().__init__(field, {key: np.abs(arr) ** q for key, arr
                                         in field.detail.items()}, *args)

        monkeypatch.setattr(tent, "_level_fields", level_fields)
        monkeypatch.setattr(tent, "_WindowIntegrals", OwnTable)
        want = tent_norms(tcf, tp)
        assert got == want
        assert got.part_i.value > 0 and (q == np.inf or got.part_iii.value > 0)


class TestSharedIntegrand:
    @pytest.mark.parametrize("n, J, L", [(1, 8, 48), (2, 5, 16)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, 1.5), (1.5, np.inf)])
    def test_parts_match_one_integrand_per_cube_level(self, monkeypatch, n, J,
                                                      L, p, q):
        """The pruned parts against an evaluation of every admitted (node,
        cube level) pair, and against the per-node and per-cube-level
        oracles; the pruned call reaches the kernel for fewer cube levels."""
        spec = GridSpec(n, J, 0)
        basis = build_basis("meyer", spec)
        tp = make_tp(p=p, q=q)
        tcf = random_tcf(basis, default_time_grid(spec, tp.beta, L=L), 3 * J + n)
        kernel = tent._morrey_cube_max
        levels_seen = []

        def counting_kernel(integrand, j0s, sp, spec):
            levels_seen.extend(j0s)
            return kernel(integrand, j0s, sp, spec)

        monkeypatch.setattr(tent, "_morrey_cube_max", counting_kernel)
        got = tent_norms(tcf, tp)
        pruned = len(levels_seen)
        unpruned(monkeypatch)
        del levels_seen[:]
        want = tent_norms(tcf, tp)
        assert pruned < len(levels_seen)
        assert_same_parts(got, want)
        for part, (value, cube, node) in zip((got.part_i, got.part_ii),
                                             parts_i_ii_oracle(tcf, tp)):
            assert (part.value, part.argmax_cube, part.argmax_node) \
                == (value, cube, node)
        if q != np.inf:
            for part, (value, cube) in zip((got.part_iii, got.part_iv),
                                           parts_iii_iv_oracle(tcf, tp)):
                assert (part.value, part.argmax_cube) == (value, cube)

    def test_a_tie_goes_to_the_first_cube_level(self):
        # a constant integrand at p = 1, gamma2 = 0 has Morrey value exactly
        # 1 on every cube of every level: the strict > keeps the first one
        spec = GridSpec(1, 6, 0)
        sp = SpaceParams(-0.2, 0.0, 1.0, 2.0)
        fields = {j: np.ones((2,) + (1 << j,)) for j in (2, 3)}
        w = np.full((2, 2), 0.5)
        j0s = list(range(spec.J))
        K = len(j0s)
        [bounds] = tent._morrey_bounds(fields, [(w, 0)], j0s, 1.0, sp, spec)
        np.testing.assert_array_equal(bounds > 0, [[1, 1, 1, 1, 0, 0]] * 2)

        flats = {}

        def evaluate(idx):
            values = []
            for i in idx.tolist():
                row, k = divmod(i, K)
                levels = [j for j in (2, 3) if j >= j0s[k]]
                band = {j: _upsample(fields[j][row:row + 1], 4, 1) for j in levels}
                [(vals, flat)] = _morrey_cube_max(
                    tent._integrand(band, {2: 0.5, 3: 0.5}, levels, 1.0), [j0s[k]],
                    sp, spec)
                values.append(vals[0])
                flats[i] = int(flat[0])
            return np.array(values)

        # one group (a tent part) and one group per row: either way cube
        # levels 0-2 admit both levels and tie with pass 1's value, so all
        # are evaluated; level 3 admits level 3 alone (value 0.5) and is
        # ruled out
        flat = bounds.reshape(-1)
        for groups in (np.zeros(2 * K, int), np.repeat([0, 1], K)):
            sup = _Pruner(flat, groups, evaluate)
            assert np.flatnonzero(sup.done).tolist() \
                == [row * K + k for row in (0, 1) for k in (0, 1, 2)]
            assert np.all(sup.values[sup.done] == 1.0)
            assert sorted({int(i) // K for i in np.flatnonzero(sup.done)}) == [0, 1]
            assert sup.best(0) == (1.0, 0)
        assert sup.best(1) == (1.0, K)
        assert flats[0] == flats[K] == 0           # the first cube of level 0

    def test_each_group_gets_its_own_sup(self):
        # group 0's values lie far below group 1's: one group would rule
        # all of group 0 out, its own pass 1 and 2 find its exact sup and
        # first attaining candidate, with a tie inside each group
        values = np.array([1e-3, 3e-3, 2e-3, 3e-3, 1e3, 4e3, 4e3, 2e3])
        ceilings = np.array([1.5e-3, 4e-3, 2.5e-3, 3e-3, 4.5e3, 4e3, 5e3, 3e3])
        groups = np.repeat([0, 1], 4)
        asked = []

        def evaluate(idx):
            asked.append(idx.tolist())
            return values[idx]

        sup = _Pruner(ceilings, groups, evaluate)
        assert asked == [[1, 6], [3, 4, 5]]     # each group's top ceiling first
        assert sup.best(0) == (3e-3, 1) and sup.best(1) == (4e3, 5)
        assert not sup.done[[0, 2, 7]].any()     # ruled out by the ceilings
        one = _Pruner(ceilings, np.zeros(8, int), evaluate)
        assert not one.done[:4].any() and one.best(0) == (4e3, 5)
        np.testing.assert_array_equal(sup.table(0), values[:4])
        assert sup.done[:4].all() and not sup.done[7]

    def test_zero_ceilings_and_tiny_limits(self):
        # a zero ceiling is never evaluated; at a limit of at most 2^-800
        # every nonzero ceiling is, so the sup stays exact even where a
        # ceiling lies below its value, as an underflowed one may (2)
        values = np.array([0.0, 1e-250, 3e-250, 0.0, 2e-250, 0.0])
        ceilings = np.array([0.0, 1e-240, 5e-251, 0.0, 2e-250, 0.0])
        sup = _Pruner(ceilings, np.array([0, 0, 0, 1, 1, 2]), lambda i: values[i])
        assert sup.done.tolist() == [False, True, True, False, True, False]
        assert sup.best(0) == (3e-250, 2) and sup.best(2) == (0.0, None)

class TestPrunedMorreySups:
    """Every tent part of the pruned evaluation, bit for bit against the
    evaluation of every admitted pair."""

    @pytest.mark.parametrize("n, J, L", [(1, 8, 40), (2, 5, 14)])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, 1.5), (1.5, np.inf),
                                      (1.0, 2.0)])
    @pytest.mark.parametrize("literal", [False, True])
    def test_parts_equal_the_unpruned_evaluation(self, monkeypatch, n, J, L, p,
                                                 q, literal):
        spec = GridSpec(n, J, 0)
        basis = build_basis("daubechies" if n == 2 else "meyer", spec)
        tp = make_tp(p=p, q=q)
        tg = default_time_grid(spec, tp.beta, L=L)
        for seed in range(2):
            tcf = random_tcf(basis, tg, 11 * seed + J, complex_=bool(seed))
            got = tent_norms(tcf, tp, literal_exponent=literal)
            with monkeypatch.context() as m:
                unpruned(m)
                want = tent_norms(tcf, tp, literal_exponent=literal)
            assert_same_parts(got, want)
            assert got.seam_levels == want.seam_levels
            if q != np.inf:
                for part, (value, cube) in zip(
                        (got.part_iii, got.part_iv),
                        parts_iii_iv_oracle(tcf, tp, literal)):
                    assert (part.value, part.argmax_cube) == (value, cube)

    def test_a_tie_across_cube_levels_keeps_the_first(self, monkeypatch):
        # one coefficient per level at every node, all equal: part IV's
        # integrand (gamma2 = n/p weight 1, p = 1) ties across cube levels
        spec = GridSpec(1, 6, 0)
        basis = build_basis("meyer", spec)
        tp = TentParams(SpaceParams(-0.5, 1.0, 1.0, 1.0), m=1.0, m_prime=1.0,
                        beta=1.0)
        tcf = empty_tcf(basis, default_time_grid(spec, tp.beta, L=16))
        for arr in tcf.detail.values():
            arr[:] = 1.0
        got = tent_norms(tcf, tp)
        with monkeypatch.context() as m:
            unpruned(m)
            want = tent_norms(tcf, tp)
        assert_same_parts(got, want)
        assert got.part_iv.argmax_cube == DyadicCube(0, (0,))


class TestBoundProperty:
    """The bound is at least the exact Morrey value, in every regime of
    r = p root, for fields spread over many orders of magnitude."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2]), J=st.integers(3, 6),
           drop=st.integers(1, 2), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
           q=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, np.inf]),
           literal=st.booleans(), gammas=st.tuples(st.floats(-1, 1),
                                                    st.floats(-1, 1)),
           scale=st.sampled_from([1.0, 1e-150, 1e150, 1e-300]),
           seed=st.integers(0, 2**16))
    def test_bound_is_at_least_the_value(self, n, J, drop, p, q, literal, gammas,
                                         scale, seed):
        J = min(J, 4) if n == 2 else J
        spec = GridSpec(n, J, 0)
        sp = SpaceParams(gammas[0], gammas[1], p, q)
        root = None if q == np.inf else (1.0 if literal else 1.0 / q)
        rng = np.random.default_rng(seed)
        levels = list(range(0, J - drop + 1))
        j_max, rows = levels[-1], 2
        fields = {j: scale * rng.random((rows,) + (1 << j,) * n) ** 3
                  * (rng.random((rows,) + (1 << j,) * n) < 0.7) for j in levels}
        w = rng.random((rows, len(levels))) * (rng.random((rows, len(levels))) < 0.8)
        j0s = list(range(J))
        parts = [(w, 0), (w, 1)]
        with np.errstate(all="ignore"):
            tables = tent._morrey_bounds(fields, parts, j0s, root, sp, spec)
            for (_, skip), table in zip(parts, tables):
                for row in range(rows):
                    for c, j0 in enumerate(j0s):
                        S = [j for j in levels if j >= j0 + skip]
                        if not S:
                            assert table[row, c] == 0
                            continue
                        band = {j: _upsample(fields[j][row:row + 1], j_max, n)
                                for j in S}
                        weights = dict(zip(levels, w[row]))
                        [(value, _)] = _morrey_cube_max(
                            tent._integrand(band, weights, S, root), (j0,), sp, spec)
                        assert table[row, c] >= value[0] or np.isnan(value[0])


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
