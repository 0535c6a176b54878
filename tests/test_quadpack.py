"""The QUADPACK `dqagse` port against `scipy.integrate.quad`, bit for bit:
same value, error estimate, evaluation count and subinterval count, and the
same success flag.  The calibration integrands of `calibrate_family` come
first; the others reach the singular, oscillating, discontinuous and
extrapolating paths and the limit exhaustion of the routine."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from oscillet import _quadpack
from oscillet.wavelet import TWO_PI, MeyerWindow

BETAS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def scipy_result(f, a, b, limit):
    """(value, abserr, neval, last, ok) of scipy's quad; ok is ier == 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = scipy_quad(f, a, b, limit=limit, full_output=1)
    info = out[2]
    return out[0], out[1], info["neval"], info["last"], len(out) == 3


def assert_same_bits(f, a, b, limit):
    value, abserr, neval, ier, last = _quadpack.quad(f, a, b, limit=limit)
    want = scipy_result(f, a, b, limit)
    got = (value, abserr, neval, last, ier == 0)
    assert [x.hex() if isinstance(x, float) else x for x in got] == \
        [x.hex() if isinstance(x, float) else x for x in want]
    return ier


def calibration_integrands(profile, beta):
    """The damped integral and the five Calderon integrals of
    calibrate_family, as (integrand, lo, hi)."""
    window = MeyerWindow(profile)
    scale = 1.0 / np.sqrt(2.0 * beta * np.log(2.0))

    def w(r):
        return scale * window.omega(np.asarray([r], dtype=float))[0]

    out = [(lambda t: w(t ** (1.0 / (2 * beta))) * np.exp(-t) / t,
            (TWO_PI / 3.0) ** (2 * beta), (8.0 * np.pi / 3.0) ** (2 * beta))]
    for r0 in np.exp(np.linspace(np.log(0.3), np.log(200.0), 5)):
        out.append((lambda t, r0=r0: w(t ** (1.0 / (2 * beta)) * r0) ** 2 / t,
                    (TWO_PI / (3.0 * r0)) ** (2 * beta),
                    (8.0 * np.pi / (3.0 * r0)) ** (2 * beta)))
    return out


@pytest.mark.parametrize("profile", ["polynomial", "smooth"])
@pytest.mark.parametrize("beta", BETAS)
def test_calibration_integrands(profile, beta):
    for f, lo, hi in calibration_integrands(profile, beta):
        assert assert_same_bits(f, lo, hi, 200) == 0


def _pos(g):
    return lambda x: g(x) if x > 0 else 0.0


CASES = {
    "inverse sqrt": (_pos(lambda x: x ** -0.5), 0.0, 1.0),
    "log singularity": (lambda x: math.log(abs(x - 0.3)) if x != 0.3 else 0.0,
                        0.0, 1.0),
    "cos 40x": (lambda x: math.cos(40 * x), 0.0, 3.0),
    "step": (lambda x: 1.0 if x <= 0.37 else 0.0, 0.0, 1.0),
    "reversed limits": (math.exp, 2.0, -1.0),
    "zero": (lambda x: 0.0, 0.0, 1.0),
    "empty interval": (math.exp, 1.0, 1.0),
    "oscillating singularity": (_pos(lambda x: math.cos(1 / x) / math.sqrt(x)),
                                0.0, 1.0),
    "log over sqrt": (_pos(lambda x: math.log(x) ** 2 / math.sqrt(x)), 0.0, 1.0),
    "interior pole": (lambda x: 1 / (x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0),
    "sin 1/x": (_pos(lambda x: math.sin(1 / x)), 0.0, 1.0),
}


@pytest.mark.parametrize("limit", [5, 50, 200])
@pytest.mark.parametrize("name", sorted(CASES))
def test_other_integrands(name, limit):
    f, a, b = CASES[name]
    assert_same_bits(f, a, b, limit)


def test_limit_exhaustion():
    # 1/x on (0, 1] diverges: 50 subintervals do not reach the tolerance
    ier = assert_same_bits(_pos(lambda x: 1.0 / x), 0.0, 1.0, 50)
    assert ier == 1


def test_extrapolation_runs(monkeypatch):
    # the inverse square root converges only through the epsilon algorithm
    steps = []
    dqelg = _quadpack.dqelg

    def counting(*args):
        steps.append(args[0])
        return dqelg(*args)

    monkeypatch.setattr(_quadpack, "dqelg", counting)
    assert assert_same_bits(_pos(lambda x: x ** -0.5), 0.0, 1.0, 50) == 0
    assert steps


def test_roundoff_flag():
    # 1e-4 of deterministic noise stops the bisection before its tolerance
    def noisy(x):
        frac = (math.sin(x * 12.9898) * 43758.5453) % 1.0
        return math.exp(x) + 1e-4 * (frac - 0.5)

    assert assert_same_bits(noisy, 0.0, 1.0, 200) == 2
