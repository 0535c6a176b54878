import numpy as np
import pytest

from oscillet.errors import BandRangeError, ParameterError
from oscillet.grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_contains,
    cube_sample_slices,
    enumerate_cubes,
    lp_norm,
    read_grid_function,
    read_grid_function_csv,
    write_grid_function,
    write_grid_function_csv,
)


def test_enumerate_counts():
    spec = GridSpec(n=1, J=6, j_min=0)
    assert len(list(enumerate_cubes(spec, 0, 0))) == 1
    assert len(list(enumerate_cubes(spec, 0, 3))) == 1 + 2 + 4 + 8
    spec2 = GridSpec(n=2, J=5, j_min=0)
    cubes = list(enumerate_cubes(spec2, 2, 2))
    assert len(cubes) == 16
    assert all(c.volume == 1 / 16 for c in cubes)


def test_enumerate_band_errors():
    spec = GridSpec(n=1, J=6, j_min=1)
    with pytest.raises(BandRangeError):
        list(enumerate_cubes(spec, 0, 3))
    with pytest.raises(BandRangeError):
        list(enumerate_cubes(spec, 1, 6))


def test_cube_contains():
    q = DyadicCube(2, (1,))
    assert cube_contains(q, q)
    assert cube_contains(DyadicCube(1, (0,)), DyadicCube(2, (1,)))
    assert not cube_contains(DyadicCube(2, (0,)), DyadicCube(1, (0,)))
    # n=2 componentwise
    assert cube_contains(DyadicCube(1, (0, 1)), DyadicCube(3, (2, 5)))
    assert not cube_contains(DyadicCube(1, (0, 1)), DyadicCube(3, (2, 3)))


@pytest.mark.parametrize("j, k", [(2, (1.5,)), (2, (True,)), (2, (1.0,)),
                                  (2, (np.float64(1.0), 0)), (2, (0, np.bool_(1))),
                                  (2.0, (1,)), (True, (0,)), (np.float64(2.0), (1,))])
def test_cube_rejects_non_integer_entries(j, k):
    # 0 <= k < 2^j holds for 1.5 and for True (read as 1)
    with pytest.raises(ParameterError):
        DyadicCube(j, k)


def test_cube_takes_numpy_integers():
    assert DyadicCube(np.int64(3), (np.int32(5), np.uint8(0))) == DyadicCube(3, (5, 0))


def test_partition_of_unity():
    spec = GridSpec(n=2, J=4, j_min=0)
    for j in (0, 1, 3):
        total = np.zeros(spec.shape)
        for cube in enumerate_cubes(spec, j, j):
            total[cube_sample_slices(spec, cube)] += 1.0
        assert np.all(total == 1.0)


def test_lp_norm_trivials():
    spec = GridSpec(n=1, J=8, j_min=0)
    one = GridFunction(spec, np.ones(spec.shape))
    for p in (0.5, 1, 2, 7, np.inf):
        assert lp_norm(one, p) == pytest.approx(1.0)
    half = GridFunction(spec, (spec.axis_coordinates() < 0.5).astype(float))
    assert lp_norm(half, 2) == pytest.approx(np.sqrt(0.5))
    single = GridFunction.zeros(spec)
    single.data[3] = -2.5
    assert lp_norm(single, 1) == pytest.approx(2.5 * 2.0**-8)
    with pytest.raises(ParameterError):
        lp_norm(one, 0.0)


def test_quadrature_consistency():
    # a fixed smooth periodic function: norms converge in J
    def f(x):
        return np.exp(np.sin(2 * np.pi * x)) + 0.3 * np.cos(4 * np.pi * x)

    vals = {}
    for J in (10, 12):
        spec = GridSpec(n=1, J=J, j_min=0)
        vals[J] = lp_norm(GridFunction.from_callable(spec, f), 3)
    assert abs(vals[12] / vals[10] - 1) < 1e-6


def test_binary_roundtrip(tmp_path, rng):
    spec = GridSpec(n=2, J=4, j_min=1)
    f = GridFunction(spec, rng.standard_normal(spec.shape)
                     + 1j * rng.standard_normal(spec.shape))
    path = tmp_path / "f.bin"
    write_grid_function(f, str(path))
    g = read_grid_function(str(path), j_min=1)
    np.testing.assert_array_equal(f.data, g.data)
    assert g.spec == spec


def test_csv_roundtrip(tmp_path, rng):
    spec = GridSpec(n=1, J=4, j_min=0)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    path = tmp_path / "f.csv"
    write_grid_function_csv(f, str(path))
    g = read_grid_function_csv(str(path), spec)
    np.testing.assert_allclose(f.data, g.data, rtol=0, atol=0)


def test_enumeration_order_is_deterministic():
    spec = GridSpec(n=2, J=4, j_min=0)
    cubes = list(enumerate_cubes(spec, 0, 2))
    assert cubes == sorted(cubes)          # (j, k)-lexicographic
    assert cubes[0] == DyadicCube(0, (0, 0))


def test_grid_function_shape_mismatch():
    spec = GridSpec(n=1, J=4, j_min=0)
    with pytest.raises(Exception):
        GridFunction(spec, np.zeros(7))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParameterError):
        read_grid_function(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_read_rejects_a_nonfinite_payload(tmp_path, rng, bad):
    spec = GridSpec(n=2, J=3, j_min=0)
    data = rng.standard_normal(spec.shape).astype(complex)
    data[1, 2] = bad
    path = tmp_path / "f.bin"
    write_grid_function(GridFunction(spec, data), str(path))
    with pytest.raises(ParameterError, match="non-finite"):
        read_grid_function(str(path))


@pytest.mark.parametrize("n, J", [(1, 6), (2, 4), (3, 3)])
def test_lattice_norm2_matches_meshgrid(n, J):
    spec = GridSpec(n, J, 0)
    m = spec.frequencies()
    grids = np.meshgrid(*([m] * n), indexing="ij")
    want = sum(g**2 for g in grids)
    got = spec.lattice_norm2()
    assert got.shape == spec.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("defect", ["missing", "duplicate", "negative", "too-large"])
def test_csv_rejects_bad_rows(tmp_path, rng, defect):
    spec = GridSpec(n=1, J=6, j_min=0)
    path = tmp_path / "f.csv"
    write_grid_function_csv(GridFunction(spec, rng.standard_normal(spec.shape)),
                            str(path))
    header, *rows = path.read_text().splitlines()
    if defect == "missing":
        rows = rows[:10]
    elif defect == "duplicate":
        rows.append(rows[3])
    else:
        index = "-1" if defect == "negative" else "64"
        rows[5] = ",".join([index] + rows[5].split(",")[1:])
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParameterError):
        read_grid_function_csv(str(path), spec)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", [1, 2])
def test_csv_rejects_a_nonfinite_sample(tmp_path, rng, cell, column):
    spec = GridSpec(n=1, J=6, j_min=0)
    path = tmp_path / "f.csv"
    write_grid_function_csv(GridFunction(spec, rng.standard_normal(spec.shape)),
                            str(path))
    header, *rows = path.read_text().splitlines()
    fields = rows[7].split(",")
    fields[column] = cell
    rows[7] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParameterError, match="line 9: non-finite sample"):
        read_grid_function_csv(str(path), spec)
