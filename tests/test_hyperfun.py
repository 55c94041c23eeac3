"""Gauss 2F1 kernel against an independent arbitrary-precision oracle."""

import math
import random

import mpmath
import pytest

from sphere_twobody import (
    ConvergenceError,
    ValidationError,
    gauss_2f1,
    gauss_2f1_deriv,
    hypergeom_ode_residual,
    limit_near_one,
)
from sphere_twobody.hyperfun import digamma_complex, gamma_complex, pochhammer

mpmath.mp.dps = 30


def _oracle(a, b, c, z):
    return complex(mpmath.hyp2f1(a, b, c, z))


def test_gamma_basics():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    rng = random.Random(7)
    for _ in range(25):
        z = complex(rng.uniform(0.2, 8.0), rng.uniform(-4.0, 4.0))
        assert gamma_complex(z + 1) / (z * gamma_complex(z)) == pytest.approx(
            1.0, rel=1e-12
        )
        assert digamma_complex(z + 1) - digamma_complex(z) == pytest.approx(
            1.0 / z, rel=1e-11
        )


def test_value_at_origin_and_pochhammer():
    assert gauss_2f1(0.3, 1.7, 0.9, 0.0) == 1.0
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert pochhammer(2.5, 0) == 1.0


def test_series_region_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        b = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.3, 4), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.3, 0.3))
        if abs(z) > 0.75:
            continue
        got = gauss_2f1(a, b, c, z, method="series")
        want = _oracle(a, b, c, z)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_connection_region_matches_oracle():
    rng = random.Random(13)
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.4, 3.5), rng.uniform(-0.4, 0.4))
        if abs((c - a - b).imag) < 1e-6 and abs((c - a - b).real - round((c - a - b).real)) < 1e-6:
            continue  # generic-formula draw
        z = complex(rng.uniform(0.5, 1.6), rng.uniform(-0.4, 0.4))
        if abs(1 - z) > 0.75 or (z.imag == 0 and z.real >= 1.0):
            continue
        got = gauss_2f1(a, b, c, z, method="connection")
        want = _oracle(a, b, c, z)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("m", [0, 1, 2, 3, -1, -2])
def test_integer_gap_log_cases(m):
    # gamma - alpha - beta equal to an integer switches to the log formulas
    rng = random.Random(100 + m)
    for _ in range(8):
        a = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.6, 0.6))
        b = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.6, 0.6))
        c = a + b + m
        if abs(complex(c).real - round(complex(c).real)) < 1e-9 and complex(c).imag == 0:
            continue
        z = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3))
        if abs(1 - z) > 0.7 or (z.imag == 0 and z.real >= 1.0):
            continue
        got = gauss_2f1(a, b, c, z)
        want = _oracle(a, b, c, z)
        assert got == pytest.approx(want, rel=5e-10, abs=5e-10)


def test_polynomial_short_circuit():
    # alpha = -2: three-term polynomial, exact at any z (even far outside)
    a, b, c = -2.0, 1.3, 0.7
    for z in (0.4, 3.0, -5.0, 2.0 + 1.0j):
        got = gauss_2f1(a, b, c, z)
        want = 1 + (a * b / c) * z + (a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2) * z ** 2
        assert got == pytest.approx(want, rel=1e-13)


def test_polynomial_with_terminating_gamma():
    # gamma = -2 is fine when the series stops at or before the pole
    got = gauss_2f1(-2.0, 1.0, -2.0, 0.3)
    want = _oracle(-2, 1, -2, 0.3)
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValidationError):
        gauss_2f1(-2.0, 1.3, -1.0, 0.3)  # pole lands inside the sum


def test_rejections():
    with pytest.raises(ValidationError):
        gauss_2f1(0.5, 0.5, -3.0, 0.2)  # nonpositive-integer gamma
    with pytest.raises(ValidationError):
        gauss_2f1(0.5, 0.5, 1.5, 1.7)  # branch cut
    with pytest.raises(ConvergenceError):
        gauss_2f1(0.5, 0.5, 1.5, -4.0)  # outside both regions
    with pytest.raises(ValidationError):
        gauss_2f1(0.5, 0.5, 1.5, 0.3, method="nonsense")
    # non-finite input, before the integer snapping that would round a NaN
    for bad in (math.nan, math.inf, complex(0.5, math.nan)):
        for args in ((bad, 0.5, 1.5, 0.3), (0.5, bad, 1.5, 0.3), (0.5, 0.5, bad, 0.3),
                     (0.5, 0.5, 1.5, bad)):
            with pytest.raises(ValidationError, match="finite"):
                gauss_2f1(*args)


def test_dual_path_overlap():
    rng = random.Random(17)
    for _ in range(30):
        a = complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
        b = complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
        c = complex(rng.uniform(0.4, 3.0), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(0.3, 0.7), rng.uniform(-0.25, 0.25))
        if abs(z) > 0.75 or abs(1 - z) > 0.75:
            continue
        s = gauss_2f1(a, b, c, z, method="series")
        k = gauss_2f1(a, b, c, z, method="connection")
        assert s == pytest.approx(k, rel=1e-10, abs=1e-10)


def test_derivative_and_ode_residual():
    rng = random.Random(19)
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        c = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.3, 0.3))
        z = complex(rng.uniform(-0.5, 0.6), rng.uniform(-0.3, 0.3))
        dz = 1e-6
        fd = (gauss_2f1(a, b, c, z + dz) - gauss_2f1(a, b, c, z - dz)) / (2 * dz)
        assert gauss_2f1_deriv(a, b, c, z) == pytest.approx(fd, rel=5e-9, abs=5e-9)
        assert abs(hypergeom_ode_residual(a, b, c, z)) < 1e-9


def test_second_canonical_solution_solves_ode():
    # z^{1-c} F(a-c+1, b-c+1; 2-c; z) is the partner solution
    a, b, c = 0.7, 1.9, 0.6
    for z in (0.2, 0.45 + 0.1j):
        z = complex(z)
        a2, b2, c2 = a - c + 1, b - c + 1, 2 - c
        f = gauss_2f1(a2, b2, c2, z)
        f1 = gauss_2f1_deriv(a2, b2, c2, z)
        # second derivative from the partner parameters' own equation
        f2 = (a2 * b2 * f - (c2 - (a2 + b2 + 1) * z) * f1) / (z * (1 - z))
        p = z ** (1 - c)
        w0 = p * f
        w1 = (1 - c) * p / z * f + p * f1
        w2 = (1 - c) * (-c) * p / z ** 2 * f + 2 * (1 - c) * p / z * f1 + p * f2
        res = z * (1 - z) * w2 + (c - (a + b + 1) * z) * w1 - a * b * w0
        assert abs(res) < 1e-10


def test_limit_near_one_values():
    assert limit_near_one(1.0, 1.0, 0.5) == pytest.approx(math.pi / 2, rel=1e-13)
    # symmetric in the first two parameters
    assert limit_near_one(0.7, 1.9, 1.1) == limit_near_one(1.9, 0.7, 1.1)
    with pytest.raises(ValidationError):
        limit_near_one(0.3, 0.3, 1.5)  # needs Re(gamma - alpha - beta) < 0


def test_limit_vanishes_at_negative_integer_parameter():
    # Gamma pole in the denominator: the limit coefficient is exactly 0
    assert limit_near_one(-3.0 + 0j, 2.2, -1.5) == 0
