"""Level fields at band resolution against the full-grid expressions.

Every level field of a coefficient field is constant on blocks of
2^{J - j_max} samples per axis, so the norms build them at (2^{j_max},)^n
and blow the p-th power of the integrand up to the grid just before the
sums.  The references below are the full-grid expressions the norms used
before: every level field upsampled to (2^J,)^n, and one p-th power per
cube level.  The results must agree bit for bit.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oscillet import norms, tent
from oscillet.grid import GridFunction, GridSpec
from oscillet.norms import SpaceParams, tl_norm, tlm_wavelet_norm_report
from oscillet.semigroup import default_time_grid
from oscillet.tent import TentParams, tent_norms
from oscillet.wavelet import CoeffField, build_basis

CASES = [("meyer", 1, 8), ("daubechies", 1, 8), ("meyer", 2, 5),
         ("daubechies", 2, 5)]
PQ = [(2.0, 2.0), (3.0, 1.5), (1.5, np.inf)]


def full_grid_fields(c, gamma1, q):
    """(j, full-grid level field) finest level first."""
    n, J = c.spec.n, c.spec.J
    for j in reversed(c.levels):
        w = 2.0 ** (j * (gamma1 + n / 2.0))
        lvl = norms._level_power_sum(c, j, q)
        yield j, norms._upsample(w * lvl if q == np.inf else (w ** q) * lvl, J, n)


def full_grid_morrey_cube_max(integrand, j0, sp, spec):
    n = spec.n
    sums = norms._block_reduce_sum(integrand ** sp.p, j0, spec.J, n)
    weight = 2.0 ** (-j0 * (sp.gamma2 - n / sp.p))
    vals = weight * (spec.cell_volume * sums) ** (1.0 / sp.p)
    vals = vals.reshape(len(vals), -1)
    flat = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), flat], flat


def full_grid_tl_norm(c, gamma1, p, q):
    batch = c.batch_shape
    V = None
    for _, V in norms._suffix_combine(full_grid_fields(c, gamma1, q), q):
        pass
    integrand = V if q == np.inf else V ** (1.0 / q)
    sums = np.sum((integrand ** p).reshape(batch + (-1,)), axis=-1)
    vals = [float((c.spec.cell_volume * s) ** (1.0 / p)) for s in sums.reshape(-1)]
    return np.array(vals).reshape(batch) if batch else vals[0]


def full_grid_tlm_levels(c, sp):
    """Per cube level j0: (Morrey max, flat position of its first cube)."""
    V = dict(norms._suffix_combine(full_grid_fields(c, sp.gamma1, sp.q), sp.q))
    out = {}
    for j0 in range(c.spec.j_min, c.spec.J):
        avail = [j for j in V if j >= j0]
        if not avail:
            out[j0] = (0.0, 0)
            continue
        Vj = V[min(avail)]
        integrand = Vj if sp.q == np.inf else Vj ** (1.0 / sp.q)
        vals, flat = full_grid_morrey_cube_max(integrand[None], j0, sp, c.spec)
        out[j0] = (float(vals[0]), int(flat[0]))
    return out


def random_field(basis, rng, lead=()):
    data = rng.standard_normal(lead + basis.spec.shape)
    return basis.analyze_stack(data + 0.5j * rng.standard_normal(data.shape))


@pytest.mark.parametrize("family, n, J", CASES)
@pytest.mark.parametrize("p, q", PQ)
@pytest.mark.parametrize("lead", [(), (1,), (3,)])
def test_tl_norm_matches_full_grid(family, n, J, p, q, lead):
    basis = build_basis(family, GridSpec(n, J, 0))
    c = random_field(basis, np.random.default_rng(J + n), lead)
    assert_array_equal(tl_norm(c, 0.2, p, q), full_grid_tl_norm(c, 0.2, p, q))


@pytest.mark.parametrize("family, n, J", CASES)
@pytest.mark.parametrize("p, q", PQ)
def test_tlm_levels_match_full_grid(family, n, J, p, q):
    basis = build_basis(family, GridSpec(n, J, 0))
    sp = SpaceParams(0.2, 0.1, p, q)
    c = random_field(basis, np.random.default_rng(J * n))
    rep = tlm_wavelet_norm_report(c, sp)
    want = full_grid_tlm_levels(c, sp)
    assert_array_equal([rep.per_level[j0] for j0 in want],
                       [v for v, _ in want.values()])
    j_best = max(want, key=lambda j0: (want[j0][0], -j0))
    assert rep.value == want[j_best][0]
    k = np.unravel_index(want[j_best][1], (1 << j_best,) * n)
    assert (rep.argmax_cube.j, rep.argmax_cube.k) == (j_best, tuple(map(int, k)))


@pytest.mark.parametrize("family, n, J, L", [(f, n, J, 24 if n == 1 else 12)
                                             for f, n, J in CASES])
@pytest.mark.parametrize("p, q", PQ)
@pytest.mark.parametrize("literal", [False, True])
def test_tent_parts_match_full_grid(monkeypatch, family, n, J, L, p, q, literal):
    spec = GridSpec(n, J, 0)
    basis = build_basis(family, spec)
    tp = TentParams(SpaceParams(-0.2, 0.1, p, q), m=3.0, m_prime=1.0, beta=1.0)
    tcf = CoeffField(spec, basis.family, basis.j_min, basis.j_max,
                     tg=default_time_grid(spec, tp.beta, L=L), beta=tp.beta)
    rng = np.random.default_rng(L + J)
    for arr in tcf.detail.values():
        arr[:] = rng.standard_normal(arr.shape)
    got = tent_norms(tcf, tp, literal_exponent=literal)
    # the reference: every level field of parts I-IV on the full grid, and
    # the full-grid kernel once per cube level
    reference_calls = []

    def full_grid_kernel(integrand, j0s, sp, spec):
        reference_calls.append(tuple(j0s))
        return [full_grid_morrey_cube_max(integrand, j0, sp, spec) for j0 in j0s]

    monkeypatch.setattr(tent, "_upsample",
                        lambda arr, _J, n=None: norms._upsample(arr, J, n))
    monkeypatch.setattr(tent, "_morrey_cube_max", full_grid_kernel)
    want = tent_norms(tcf, tp, literal_exponent=literal)
    # the patched kernel ran, so the reference is not the code under test
    assert reference_calls
    assert got == want
    assert got.part_i.value > 0 and got.part_ii.value > 0
    assert (got.part_iii.value > 0) == (q != np.inf)


def test_band_fields_are_coarser_than_the_grid():
    # Meyer's band stops two levels short of the grid, so its level fields
    # are built on a grid four times coarser per axis
    basis = build_basis("meyer", GridSpec(1, 8, 0))
    c = basis.analyze(GridFunction(basis.spec, np.ones(basis.spec.shape)))
    shapes = {V.shape for _, V in norms._level_aggregates(c, 0.0, 2.0)}
    assert shapes == {(1 << basis.j_max,)} == {(64,)}
