"""The one binary codec for coefficient fields (flags 2 and 3) and the JSON
reader: round trips, and bad files that must raise ParameterError."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillet import wavelet
from oscillet.errors import ParameterError
from oscillet.grid import GridSpec, TimeGrid, read_grid_function
from oscillet.wavelet import (
    CoeffField,
    WaveletIndex,
    build_basis,
    coeff_field_from_json,
    coeff_field_to_json,
    read_coeff_field,
    write_coeff_field,
)


def random_field(family, n, J, kind, seed):
    """A field on the band of `family` at (n, J): one function ("plain"), a
    time field without beta ("stacked") or one with beta ("time")."""
    basis = build_basis(family, GridSpec(n, J, 0))
    rng = np.random.default_rng(seed)
    tg = None if kind == "plain" else TimeGrid(1e-3, 2.0, int(rng.integers(1, 4)))
    beta = float(rng.uniform(0.25, 2.0)) if kind == "time" else None
    c = CoeffField(basis.spec, family, basis.j_min, basis.j_max, tg=tg, beta=beta)
    for arr in [c.scaling, *c.detail.values()]:
        arr[...] = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
    return c


def round_trip(c, path):
    write_coeff_field(c, path)
    return read_coeff_field(path)


@settings(max_examples=40)
@given(family=st.sampled_from(["meyer", "daubechies"]), n=st.sampled_from([1, 2]),
       J=st.integers(2, 4), kind=st.sampled_from(["plain", "stacked", "time"]),
       seed=st.integers(0, 2**16))
def test_round_trip_is_exact(family, n, J, kind, seed):
    c = random_field(family, n, J, kind, seed)
    with tempfile.TemporaryDirectory() as tmp:
        back = round_trip(c, os.path.join(tmp, "c.oslt"))
    assert (back.spec, back.family, back.j_min, back.j_max, back.tg, back.beta) \
        == (c.spec, c.family, c.j_min, c.j_max, c.tg, c.beta)
    assert list(back.detail) == list(c.detail)
    for key in c.detail:
        assert back.detail[key].tobytes() == c.detail[key].tobytes()
    assert back.scaling.tobytes() == c.scaling.tobytes()


@pytest.mark.parametrize("kind", ["plain", "time"])
def test_every_truncation_raises(tmp_path, kind):
    path = str(tmp_path / "c.oslt")
    write_coeff_field(random_field("meyer", 1, 3, kind, 5), path)
    data = open(path, "rb").read()
    assert data[16] == (2 if kind == "plain" else 3)   # the flag byte
    for size in range(len(data)):
        with open(path, "wb") as fh:
            fh.write(data[:size])
        with pytest.raises(ParameterError):
            read_coeff_field(path)


def coeff_header(n, J, j_min, j_max, family=b"meyer"):
    return (b"OSLT" + struct.pack("<IIIB", 1, n, J, 2)
            + struct.pack("<III", j_min, j_max, len(family)) + family)


def test_oversized_header_raises_before_allocating(tmp_path, monkeypatch):
    # the headers claim 2^20 coefficients and 2^20 samples; the files hold
    # almost nothing
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(wavelet, "CoeffField", no_allocation)
    path = tmp_path / "big.oslt"
    path.write_bytes(coeff_header(1, 20, 0, 19) + struct.pack("<I", 41))
    with pytest.raises(ParameterError):
        read_coeff_field(str(path))
    path.write_bytes(b"OSLT" + struct.pack("<IIIB", 1, 2, 10, 1) + bytes(32))
    with pytest.raises(ParameterError):
        read_grid_function(str(path))


@pytest.mark.parametrize("header", [
    (1, 8, 0, 8),       # j_max at J
    (1, 8, 5, 4),       # j_max below j_min
    (0, 8, 0, 6),       # no axes
    (1, 80, 0, 6),      # n J beyond any grid
])
def test_header_out_of_range(tmp_path, header):
    path = tmp_path / "h.oslt"
    path.write_bytes(coeff_header(*header) + bytes(64))
    with pytest.raises(ParameterError):
        read_coeff_field(str(path))


def test_block_outside_band_or_repeated(tmp_path):
    c = random_field("meyer", 1, 3, "plain", 2)
    path = tmp_path / "c.oslt"
    write_coeff_field(c, str(path))
    data = bytearray(path.read_bytes())
    first = len(coeff_header(1, 3, 0, 1)) + 4      # the scaling block's j
    for offset, value in [(first + 4, 2),           # eps byte not 0/1
                          (first + 4, 1),           # ((1,), 0) twice
                          (first, 1)]:              # scaling at j != j_min
        bad = bytearray(data)
        bad[offset] = value
        path.write_bytes(bytes(bad))
        with pytest.raises(ParameterError):
            read_coeff_field(str(path))


def test_bad_time_grid_or_beta(tmp_path):
    c = random_field("meyer", 1, 3, "time", 3)
    path = tmp_path / "t.oslt"
    write_coeff_field(c, str(path))
    data = path.read_bytes()
    at = 4 + 13 + 8                         # t_min, t_max (f8), L (u32), beta (f8)
    for fmt, offset, value in [("<d", at, -1.0), ("<d", at + 8, np.inf),
                               ("<I", at + 16, 0), ("<d", at + 20, np.nan),
                               ("<d", at + 20, -0.5)]:
        bad = bytearray(data)
        bad[offset:offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
        path.write_bytes(bytes(bad))
        with pytest.raises(ParameterError):
            read_coeff_field(str(path))


@pytest.mark.parametrize("kind", ["plain", "time"])
@pytest.mark.parametrize("block", ["scaling", "detail"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_nonfinite_payload_raises(tmp_path, kind, block, bad):
    c = random_field("meyer", 1, 4, kind, 7)
    arr = c.scaling if block == "scaling" else c.detail[((1,), 1)]
    arr.reshape(-1)[-1] = bad
    path = str(tmp_path / "c.oslt")
    write_coeff_field(c, path)
    with pytest.raises(ParameterError, match="non-finite"):
        read_coeff_field(path)


def test_stack_without_time_grid_is_not_written(tmp_path, meyer1d, rng):
    stack = meyer1d.analyze_stack(rng.standard_normal((3,) + meyer1d.spec.shape))
    with pytest.raises(ParameterError):
        write_coeff_field(stack, str(tmp_path / "s.oslt"))


@pytest.mark.parametrize("record", [
    {"eps": [1], "j": 3, "k": [-1]},
    {"eps": [1], "j": 3, "k": [8]},
    {"eps": [1], "j": 3, "k": [1, 2]},
    {"eps": [1], "j": 7, "k": [0]},
    {"eps": [1], "j": -1, "k": [0]},
    {"eps": [2], "j": 3, "k": [0]},
    {"eps": [0], "j": 1, "k": [0]},
    {"eps": [1], "j": 3, "k": [0.5]},
])
def test_json_index_outside_band(meyer1d, record):
    doc = json.loads(coeff_field_to_json(meyer1d.analyze(
        meyer1d.basis_function(wavelet.WaveletIndex((1,), 3, (2,))))))
    doc["coefficients"].append({**record, "re": 1.0, "im": 0.0})
    with pytest.raises(ParameterError):
        coeff_field_from_json(json.dumps(doc))


@pytest.mark.parametrize("change", [{"j_max": 8}, {"n": 0}, {"J": None}])
def test_json_bad_header(meyer1d, change):
    doc = json.loads(coeff_field_to_json(meyer1d.analyze(
        meyer1d.basis_function(wavelet.WaveletIndex((1,), 3, (2,))))))
    doc.update(change)
    with pytest.raises(ParameterError):
        coeff_field_from_json(json.dumps(doc))


@pytest.mark.parametrize("re, im", [("NaN", "0.0"), ("0.5", "Infinity"),
                                    ("-Infinity", "1.0"), ("1e400", "0.0")])
def test_json_nonfinite_coefficient(meyer1d, re, im):
    text = coeff_field_to_json(meyer1d.analyze(
        meyer1d.basis_function(wavelet.WaveletIndex((1,), 3, (2,)))))
    doc = json.loads(text)
    doc["coefficients"].append({"eps": [1], "j": 4, "k": [5], "re": 0.0, "im": 0.0})
    # json writes no NaN/Infinity for these placeholders; put the tokens in
    bad = json.dumps(doc).replace('"re": 0.0, "im": 0.0}]', f'"re": {re}, "im": {im}}}]')
    assert bad != json.dumps(doc)
    with pytest.raises(ParameterError, match="non-finite coefficient"):
        coeff_field_from_json(bad)


def json_per_index(c):
    """coeff_field_to_json, index by index: every index of the band in
    order (scaling, then the detail blocks), one `get` each, a record for
    each nonzero value."""
    n, records = c.spec.n, []
    for eps, j, arr in [((0,) * n, c.j_min, c.scaling)] + [
            (eps, j, arr) for (eps, j), arr in c.detail.items()]:
        for flat in range(arr.size):
            k = tuple(map(int, np.unravel_index(flat, arr.shape)))
            val = c.get(WaveletIndex(eps, j, k))
            if val != 0:
                records.append({"eps": list(eps), "j": j, "k": list(k),
                                "re": val.real, "im": val.imag})
    return json.dumps({"family": c.family, "n": n, "J": c.spec.J,
                       "j_min": c.j_min, "j_max": c.j_max,
                       "coefficients": records}, sort_keys=True)


@pytest.mark.parametrize("family", ["meyer", "daubechies"])
@pytest.mark.parametrize("n, J", [(1, 6), (2, 4)])
def test_json_text_equals_the_per_index_writer(family, n, J):
    # complex values, exact zeros and signed zeros in either part: -0.0 is
    # zero and gets no record; -0.0 beside a nonzero part is written as such
    c = random_field(family, n, J, "plain", 3 * n + J)
    rng = np.random.default_rng(J)
    for arr in [c.scaling, *c.detail.values()]:
        flat = arr.reshape(-1)
        pick = rng.permutation(flat.size)
        flat[pick[0::5]] = 0.0
        flat[pick[1::5]] = complex(-0.0, -0.0)
        for part, at in (("imag", pick[2::5]), ("real", pick[3::5])):
            signed = flat[at].copy()
            getattr(signed, part)[:] = -0.0
            flat[at] = signed
    c.detail[next(iter(c.detail))][...] = 0.0          # an all-zero block
    text = coeff_field_to_json(c)
    assert text == json_per_index(c)
    assert "-0.0" in text
    back = coeff_field_from_json(text)
    for key, arr in c.detail.items():
        np.testing.assert_array_equal(back.detail[key], arr)


@pytest.mark.parametrize("kind", ["stacked", "time"])
def test_json_of_a_field_with_leading_axes_raises(kind):
    c = random_field("meyer", 1, 5, kind, 2)
    with pytest.raises(Exception) as info:
        coeff_field_to_json(c)
    assert type(info.value).__module__ == "oscillet.errors"
