"""Shooting and joint-diagonalization oracles."""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_twobody import (
    AlgebraLabel,
    ConvergenceError,
    PhysicalParams,
    ValidationError,
    VerificationError,
    build_ladder_rep,
    closed_form_energy,
    gauss_legendre,
    joint_diagonalize,
    ode_residual,
    operator_matrices,
    radial_coefficients,
    radial_eigenfunction,
    shooting_eigenvalue,
    shooting_mismatch,
    spectral_ode,
)
from sphere_twobody import oracle
from sphere_twobody.radial import MASS_EQUAL
from sphere_twobody.spectra import K_MIN

UNIT3 = PhysicalParams(3, 2.0, 2.0, 1.0, 1.0)


def test_shooting_reproduces_closed_forms():
    co = radial_coefficients(3, 1, 1)
    for kind, k in (("coulomb", 2), ("oscillator", 1)):
        E = closed_form_energy(kind, UNIT3, co, k)
        got = shooting_eigenvalue(kind, UNIT3, co, E - 0.4, E + 0.4)
        assert got.energy == pytest.approx(E, rel=1e-8)
        assert got.mismatch < 1e-10


def test_shooting_unequal_masses_integer_level():
    p = PhysicalParams(3, 1.0, 3.0, 1.0, 1.0)
    co = radial_coefficients(3, 1, 1)
    got = shooting_eigenvalue("oscillator", p, co, 6.5, 7.5)
    assert got.energy == pytest.approx(7.0, abs=1e-8)


def test_shooting_handles_asymmetric_coefficients():
    # case 2 has a != c, so there is no closed form at all; the oracle
    # still finds the level (regression-pinned)
    co = radial_coefficients(3, 2, 1)
    got = shooting_eigenvalue("coulomb", UNIT3, co, 0.3, 1.6)
    assert got.energy == pytest.approx(0.9191929102935581, abs=1e-7)


def test_shooting_mismatch_changes_sign_across_level():
    co = radial_coefficients(3, 1, 0)
    E = closed_form_energy("coulomb", UNIT3, co, 2)  # 11/8 region
    lo = shooting_mismatch("coulomb", UNIT3, co, E - 0.2)
    hi = shooting_mismatch("coulomb", UNIT3, co, E + 0.2)
    assert lo * hi < 0


def test_shooting_bracket_errors():
    co = radial_coefficients(3, 1, 0)
    with pytest.raises(ValidationError):
        shooting_eigenvalue("coulomb", UNIT3, co, 2.0, 2.0)
    # between two adjacent levels: mismatch keeps its sign
    E2 = closed_form_energy("coulomb", UNIT3, co, 2)
    E3 = closed_form_energy("coulomb", UNIT3, co, 3)
    with pytest.raises(ConvergenceError):
        shooting_eigenvalue("coulomb", UNIT3, co, E2 + 0.3, E3 - 0.3)


def test_shooting_rejects_non_finite_bracket():
    co = radial_coefficients(3, 1, 0)
    for lo, hi in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValidationError, match="non-finite"):
            shooting_eigenvalue("coulomb", UNIT3, co, lo, hi)
    for lo, hi in ((0.0, 1j), (1j, 2.0)):
        with pytest.raises(ValidationError, match="non-real"):
            shooting_eigenvalue("coulomb", UNIT3, co, lo, hi)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 1j])
def test_shooting_mismatch_rejects_non_finite_energy(kind, energy):
    # raised before any march: no silent NaN, no slow ConvergenceError; the
    # eigenfunction and the ODE coefficients check their energy the same way
    co = radial_coefficients(3, 1, 0)
    match = "non-real energy" if isinstance(energy, complex) else "non-finite energy"
    with pytest.raises(ValidationError, match=match):
        shooting_mismatch(kind, UNIT3, co, energy)
    with pytest.raises(ValidationError, match=match):
        radial_eigenfunction(kind, UNIT3, co, K_MIN[kind], energy)
    with pytest.raises(ValidationError, match=match):
        spectral_ode(kind, UNIT3, co, energy)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("bracket", [(1e9 - 1.0, 1e9 + 1.0), (0.0, 1e300)])
def test_shooting_work_bound_at_huge_energies(kind, bracket):
    # near 1e9 the march runs out of right-hand-side evaluations instead of
    # spinning; by 1e299 the start series never converge, and no march begins
    co = radial_coefficients(3, 1, 0)
    match = ("right-hand-side evaluations" if bracket[1] < 1e10
             else "start series .* have not converged")
    with pytest.raises(ConvergenceError, match=match):
        shooting_eigenvalue(kind, UNIT3, co, *bracket)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("bracket", [(1e9 - 1.0, 1e9 + 1.0), (0.0, 1e300)])
def test_shooting_failure_at_huge_energies_escapes_no_warning(kind, bracket):
    co = radial_coefficients(3, 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            shooting_eigenvalue(kind, UNIT3, co, *bracket)


def test_shooting_march_that_overflows_raises():
    # the Coulomb k = 1 level E = -1800 (n = 2, case 1): the march leaves the
    # float range while LSODA still reports success, so the mismatch would
    # read NaN and the bracket would seem to hold no level
    p = PhysicalParams(2, 2.0, 2.0, 10.0, 30.0)
    co = radial_coefficients(2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="float range"):
            shooting_mismatch("coulomb", p, co, -1800.0)
        with pytest.raises(ConvergenceError, match="float range"):
            shooting_eigenvalue("coulomb", p, co, -1800.7, -1799.3)


def test_shooting_march_past_lsoda_default_step_limit(monkeypatch):
    # a march of this level takes more LSODA steps than the 500 an
    # integrator with its default step limit allows; the spy on the
    # integrator call inside solve_ivp reads LSODA's own step count
    import scipy.integrate

    odeint = scipy.integrate.odeint
    steps = []

    def spy(*args, **kwargs):
        ys, info = odeint(*args, **kwargs)
        steps.append(int(info["nst"][-1]))
        return ys, info

    monkeypatch.setattr(scipy.integrate, "odeint", spy)
    p = PhysicalParams(4, 1.0, 1.0, 5.0, 2.0)
    co = radial_coefficients(4, 1, 0)
    E = closed_form_energy("oscillator", p, co, 2)
    got = shooting_eigenvalue("oscillator", p, co, E - 0.5, E + 0.5)
    assert max(steps) > 500
    assert got.energy == pytest.approx(E, rel=1e-8)


def test_shooting_returns_lowest_level_of_a_wide_bracket():
    co = radial_coefficients(3, 1, 0)
    E2 = closed_form_energy("coulomb", UNIT3, co, 2)
    E3 = closed_form_energy("coulomb", UNIT3, co, 3)
    lo, hi = E2 - 0.3, E3 + 0.3
    got = shooting_eigenvalue("coulomb", UNIT3, co, lo, hi)
    assert got.energy == pytest.approx(E2, rel=1e-8)
    # the subinterval a full left-to-right scan picks
    grid = np.linspace(lo, hi, 9)
    vals = [shooting_mismatch("coulomb", UNIT3, co, E) for E in grid]
    first = next(i for i in range(8) if vals[i] * vals[i + 1] < 0.0)
    assert got.bracket == (float(grid[first]), float(grid[first + 1]))


def test_shooting_result_statistics():
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy("coulomb", UNIT3, co, 2)
    got = shooting_eigenvalue("coulomb", UNIT3, co, E - 0.4, E + 0.4)
    assert got.iterations > 0
    # the scan stops early and Brent reuses the bracket ends
    assert got.evaluations < 8 + 1 + got.iterations
    assert type(got.mismatch) is float
    assert got.mismatch == abs(shooting_mismatch("coulomb", UNIT3, co, got.energy))


def test_shooting_result_counts_rhs_evaluations(monkeypatch):
    seen = []
    march = oracle.solve_ivp

    def spy(*args, **kwargs):
        sol = march(*args, **kwargs)
        seen.append(sol.nfev)
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", spy)
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy("oscillator", UNIT3, co, 1)
    got = shooting_eigenvalue("oscillator", UNIT3, co, E - 0.4, E + 0.4)
    assert got.rhs_evaluations > 0
    assert len(seen) == got.evaluations  # one stacked march per energy
    assert got.rhs_evaluations == sum(seen)


def _two_march_mismatch(kind, params, coeffs, energy):
    """Reference: each half marched on its own, from the oracle's start
    states to the matching point, with its own absolute tolerance."""
    p, q = spectral_ode(kind, params, coeffs, energy)

    def march(rhs, t0, t1, y0):
        atol = oracle._ATOL_SCALE * max(abs(y0[0]), abs(y0[1]))
        return oracle.solve_ivp(rhs, t0, t1, y0, atol).y

    t0, y_in, y_out = oracle._start(oracle._series_ends(kind, params, coeffs), energy)
    if kind == "coulomb":
        def rhs(theta, y):
            r = math.tan(theta / 2.0)
            one = 1.0 + r * r
            return (y[1], -(p(r) * one / 2.0 - r) * y[1] - q(r) * one * one / 4.0 * y[0])

        fi, fpi = march(rhs, t0, math.pi / 2.0, y_in)
        fo, fpo = march(rhs, math.pi - t0, math.pi / 2.0, y_out)
    else:
        def rhs(r, y):
            return (y[1], -p(r) * y[1] - q(r) * y[0])

        fi, fpi = march(rhs, t0, 0.5, y_in)
        fo, fpo = march(rhs, 1.0 - t0, 0.5, y_out)
    return (fi * fpo - fpi * fo) / (abs(fi * fpo) + abs(fpi * fo) + 1e-300)


@pytest.mark.parametrize("kind, params, sector, energies", [
    ("coulomb", UNIT3, (3, 1, 1), np.linspace(-1.0, 3.0, 12)),
    ("coulomb", UNIT3, (3, 2, 1), np.linspace(0.5, 1.6, 12)),       # a != c
    ("coulomb", PhysicalParams(4, 1.5, 1.5, 0.8, 1.3), (4, 3, 2), np.linspace(5.0, 12.0, 12)),
    ("oscillator", UNIT3, (3, 2, 1), np.linspace(3.0, 20.0, 12)),   # a != c
    ("oscillator", PhysicalParams(2, 1.0, 3.0, 1.0, 1.0), (2, 1, None), (3.0, 9.0, 20.0)),
    ("oscillator", PhysicalParams(4, 1.0, 1.0, 1.3, 0.7), (4, 3, 2), (3.0, 9.0, 20.0)),
])
def test_stacked_march_matches_two_half_marches(kind, params, sector, energies):
    # the scaled Wronskian lies in [-1, 1] and crosses 0 at each level, where
    # 1e-9 of its full scale stands in for the relative 1e-8
    co = radial_coefficients(*sector)
    unsaturated = 0
    for E in energies:
        E = float(E)
        ref = _two_march_mismatch(kind, params, co, E)
        assert shooting_mismatch(kind, params, co, E) == pytest.approx(ref, rel=1e-8, abs=1e-9)
        unsaturated += abs(ref) < 0.99
    assert unsaturated  # the scaled Wronskian is not +-1 at every energy tried


def _captured_rhs(monkeypatch, kind, params, coeffs, energy):
    """The stacked right-hand side of one mismatch evaluation, unmarched."""
    seen = []

    def capture(rhs, t0, t1, y0, atol):
        seen.append((rhs, t0, t1))
        return oracle._March(np.ones(4), 0)

    monkeypatch.setattr(oracle, "solve_ivp", capture)
    shooting_mismatch(kind, params, coeffs, energy)
    ((rhs, t0, t1),) = seen
    return rhs, t0, t1


def _half_coefficients(rhs, t):
    """(P_in, Q_in, P_out, Q_out) of y'' + P y' + Q y = 0, read off the unit states.

    The outer half runs backwards in its own coordinate, so its rows carry
    the opposite sign; every coupling between the halves must be zero.
    """
    cols = [list(rhs(t, e)) for e in np.eye(4)]
    assert [c[0] for c in cols] == [0.0, 1.0, 0.0, 0.0]
    assert [c[2] for c in cols] == [0.0, 0.0, 0.0, -1.0]
    assert cols[2][1] == cols[3][1] == cols[0][3] == cols[1][3] == 0.0
    return -cols[1][1], -cols[0][1], cols[3][3], cols[2][3]


def _reference_coefficients(kind, params, coeffs, energy, r):
    """P, Q from spectral_ode at r, and the largest term each is made of."""
    p, q = spectral_ode(kind, params, coeffs, energy)
    m, R, g = params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    one = 1.0 + r * r
    bracket = [m * R * R * abs(energy), a / (r * r), b, c * r * r]
    if kind == "coulomb":
        # in theta = 2 arctan r: P = p (1 + r^2)/2 - r and Q = q (1 + r^2)^2/4
        bracket.append(m * R * g * (r + 1.0 / r) / 2.0)
        return (p(r) * one / 2.0 - r, max(abs(p(r)) * one / 2.0, r),
                q(r) * one * one / 4.0, 2.0 * max(bracket))
    n = params.n
    bracket.append(m * R ** 4 * 2.0 * g * g * r * r / (1.0 - r * r) ** 2)
    return (p(r), max(n - 1.0, abs(3.0 - n) * r * r) / (one * r),
            q(r), 8.0 / (one * one) * max(bracket))


@pytest.mark.parametrize("kind, params, sector, energy", [
    ("coulomb", UNIT3, (3, 1, 1), 1.3),
    ("coulomb", UNIT3, (3, 2, 1), 0.9),                                # a != c
    ("coulomb", PhysicalParams(4, 1.5, 1.5, 0.8, 1.3), (4, 3, 2), -7.0),  # a != c
    ("coulomb", PhysicalParams(2, 1.0, 3.0, 1.7, 0.4), (2, 1, None), -2.5),
    ("oscillator", UNIT3, (3, 2, 1), 9.0),                             # a != c
    ("oscillator", PhysicalParams(2, 1.0, 3.0, 1.0, 1.0), (2, 1, None), 20.0),
    ("oscillator", PhysicalParams(4, 1.0, 1.0, 1.3, 0.7), (4, 3, 2), 3.0),   # a != c
    ("oscillator", PhysicalParams(6, 0.6, 2.2, 1.9, 1.8), (6, 1, 4), -4.0),
])
def test_reduced_rhs_matches_spectral_ode(monkeypatch, kind, params, sector, energy):
    # each half's P and Q against radial.spectral_ode's p and q at 50 points,
    # within 1e-13 of the largest term of the coefficient
    co = radial_coefficients(*sector)
    rhs, t0, t1 = _captured_rhs(monkeypatch, kind, params, co, energy)
    start = oracle._start(oracle._series_ends(kind, params, co), energy)[0]
    assert (t0, t1) == (start, math.pi / 2.0 if kind == "coulomb" else 0.5)
    assert oracle._EPS <= t0 <= oracle._OFFSET
    for t in np.linspace(t0, t1, 50).tolist():
        if kind == "coulomb":
            r_in = math.tan(t / 2.0)
            r_out = 1.0 / r_in
        else:
            r_in, r_out = t, 1.0 - t
        got = _half_coefficients(rhs, t)
        want = (_reference_coefficients(kind, params, co, energy, r_in)
                + _reference_coefficients(kind, params, co, energy, r_out))
        for value, (ref, scale) in zip(got, zip(want[::2], want[1::2])):
            assert abs(value - ref) <= 1e-13 * scale, (t, value, ref, scale)


@pytest.mark.parametrize("radius", [1000.0, 1200.0])
def test_shooting_at_large_coulomb_radius_without_overflow(radius):
    # both half-states end near 1e149..1e206, so their product overflowed;
    # each half is normalized by a power of two before the Wronskian is formed
    params = PhysicalParams(3, 1.0, 1.0, radius, 1.0)
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy("coulomb", params, co, 1)
    gap = abs(closed_form_energy("coulomb", params, co, 2) - E)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shooting_eigenvalue("coulomb", params, co, E - 0.35 * gap, E + 0.35 * gap)
    assert got.energy == pytest.approx(E, rel=1e-9)


def test_binary_normalization_keeps_the_mantissas():
    for f, df in ((3.0, -1e-3), (-2.5e200, 7.0e205), (0.0, 0.0), (1e-310, -3e-309)):
        nf, ndf = oracle._binary_normalized(f, df)
        assert max(abs(nf), abs(ndf)) < 1.0
        assert math.frexp(nf)[0] == math.frexp(f)[0]
        assert math.frexp(ndf)[0] == math.frexp(df)[0]
        if f or df:
            assert max(abs(nf), abs(ndf)) >= 0.5
    # the mismatch is the same number wherever the plain products stay finite
    co = radial_coefficients(3, 2, 1)
    for kind, E in (("coulomb", 0.7), ("oscillator", 6.0)):
        halves = oracle._coulomb_halves if kind == "coulomb" else oracle._oscillator_halves
        (fi, fpi), (fo, fpo) = halves(UNIT3, co, E, oracle._series_ends(kind, UNIT3, co))
        plain = (fi * fpo - fpi * fo) / (abs(fi * fpo) + abs(fpi * fo) + 1e-300)
        assert shooting_mismatch(kind, UNIT3, co, E) == plain


def _mpmath_start(kind, params, coeffs, energy, t, terms=40, points=80):
    """Both halves' (f, df/dt) / x^rho at offset t, from an mpmath Frobenius series.

    P and Q come from the radial equation in r written here in mpmath, taken
    to each end's variable x (r, 1/r, 1 - r); their Taylor coefficients are
    trapezoidal contour integrals on |x| = 1/3, and rho is the larger root
    of the indicial equation they give.
    """
    with mpmath.workdps(60):
        n = params.n
        m, R, g = (mpmath.mpf(v) for v in (params.reduced_mass, params.radius, params.coupling))
        a, b, c = (mpmath.mpf(float(v)) for v in (coeffs.a, coeffs.b, coeffs.c))
        E = mpmath.mpf(energy)

        def p(r):
            return (n - 1 + (3 - n) * r * r) / ((1 + r * r) * r)

        def q(r):
            if kind == "coulomb":
                v = g / (2 * R) * (r - 1 / r)
            else:
                v = 2 * R * R * g * g * r * r / (1 - r * r) ** 2
            return 8 / (1 + r * r) ** 2 * (m * R * R * (E - v) - a / r ** 2 - b - c * r * r)

        inner = (lambda x: x * p(x), lambda x: x * x * q(x))
        if kind == "coulomb":
            # f_xx + (2/x - p(1/x)/x^2) f_x + q(1/x)/x^4 f = 0 at x = 1/r
            outer = (lambda x: 2 - p(1 / x) / x, lambda x: q(1 / x) / x ** 2)
            x = mpmath.tan(mpmath.mpf(t) / 2)
            dxdt = (1 + x * x) / 2  # r = tan(theta/2)
        else:
            outer = (lambda x: -x * p(1 - x), lambda x: x * x * q(1 - x))
            x, dxdt = mpmath.mpf(t), 1
        zs = [mpmath.expjpi(2 * mpmath.mpf(k) / points) / 3 for k in range(points)]
        states = []
        for sign, (P, Q) in zip((1, -1), (inner, outer)):
            Pv, Qv, powers = [P(z) for z in zs], [Q(z) for z in zs], [1] * points
            Pc, Qc = [], []
            for _ in range(terms + 1):
                Pc.append(mpmath.re(mpmath.fsum(u * w for u, w in zip(Pv, powers))) / points)
                Qc.append(mpmath.re(mpmath.fsum(u * w for u, w in zip(Qv, powers))) / points)
                powers = [w / z for w, z in zip(powers, zs)]
            rho = (1 - Pc[0] + mpmath.sqrt(max(0, (1 - Pc[0]) ** 2 - 4 * Qc[0]))) / 2
            cs = [mpmath.mpf(1)]
            for j in range(1, terms + 1):
                s = mpmath.fsum(cs[j - i] * (Pc[i] * (rho + j - i) + Qc[i]) for i in range(1, j + 1))
                cs.append(-s / ((rho + j) * (rho + j - 1) + Pc[0] * (rho + j) + Qc[0]))
            assert abs(cs[-1]) * x ** terms < mpmath.mpf(10) ** -30  # the reference converged
            f = mpmath.fsum(cj * x ** j for j, cj in enumerate(cs))
            fx = mpmath.fsum((rho + j) * cj * x ** (j - 1) for j, cj in enumerate(cs))
            states.append((f, sign * fx * dxdt))
        return states


@pytest.mark.parametrize("kind, params, sector, energy, shrinks", [
    ("coulomb", PhysicalParams(2, 2.5, 2.5, 2.0, 2.0), (2, 1, None), -10.0, False),  # double root
    ("oscillator", PhysicalParams(2, 2.5, 2.5, 2.0, 2.0), (2, 1, None), 10.0, True),   # double root
    ("coulomb", PhysicalParams(4, 1.5, 1.5, 0.8, 1.3), (4, 3, 2), 7.0, False),        # a != c
    ("oscillator", PhysicalParams(4, 1.0, 1.0, 1.3, 0.7), (4, 3, 2), 9.0, False),     # a != c
    ("coulomb", PhysicalParams(5, 0.7, 1.9, 1.6, 0.45), (5, 1, 3), 2.5, False),
    ("oscillator", PhysicalParams(6, 0.6, 2.2, 1.9, 1.8), (6, 1, 4), 30.0, False),
    ("coulomb", PhysicalParams(3, 1.0, 1.0, 1000.0, 1.0), (3, 1, 1), -0.0625, True),
    ("oscillator", UNIT3, (3, 1, 1), 2000.0, True),
])
def test_series_start_matches_mpmath(kind, params, sector, energy, shrinks):
    co = radial_coefficients(*sector)
    t0, *halves = oracle._start(oracle._series_ends(kind, params, co), energy)
    assert (t0 < oracle._OFFSET) == shrinks
    assert t0 > oracle._EPS
    for got, want in zip(halves, _mpmath_start(kind, params, co, energy, t0)):
        for value, ref in zip(got, want):
            assert abs(value - ref) <= 1e-13 * abs(ref), (value, ref)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", [1e300, -1e300, 1e9, -1e9])
def test_series_start_at_extreme_energies_stays_finite(kind, energy):
    # past the float range the series never converge, and the start raises
    # by _EPS: no OverflowError, no RuntimeWarning, no inexact start
    ends = oracle._series_ends(kind, UNIT3, radial_coefficients(3, 1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if abs(energy) == 1e300:
            with pytest.raises(ConvergenceError, match=f"by the last start offset {oracle._EPS}"):
                oracle._start(ends, energy)
            return
        t0, y_in, y_out = oracle._start(ends, energy)
    assert oracle._EPS <= t0 < oracle._OFFSET
    assert all(math.isfinite(v) for v in y_in + y_out)


@pytest.mark.parametrize("radius", [1000.0, 1200.0])
def test_series_start_at_large_coulomb_radius(radius):
    params = PhysicalParams(3, 1.0, 1.0, radius, 1.0)
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy("coulomb", params, co, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0, y_in, y_out = oracle._start(oracle._series_ends("coulomb", params, co), E)
    assert oracle._EPS < t0 < oracle._OFFSET  # converged after some halvings
    assert all(math.isfinite(v) for v in y_in + y_out)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("params", [PhysicalParams(2, 2.5, 2.5, 2.0, 2.0),
                                    PhysicalParams(2, 1.92, 1.36, 1.93, 1.90)])
def test_shooting_in_the_double_root_sector(kind, params):
    # n = 2, case 1: a = 0 makes the indicial root at r = 0 double; a
    # two-term start at 1e-5 left Coulomb k = 1 here 4.0e-8 and 1.4e-8 off
    co = radial_coefficients(2, 1, None)
    for k in range(K_MIN[kind], K_MIN[kind] + 3):
        E = closed_form_energy(kind, params, co, k)
        gap = min(abs(closed_form_energy(kind, params, co, k + 1) - E), 2.0)
        got = shooting_eigenvalue(kind, params, co, E - 0.35 * gap, E + 0.35 * gap)
        assert abs(got.energy - E) <= 1e-8 * max(1.0, abs(E))


@st.composite
def _symmetric_levels(draw):
    """A closed-form level in the benchmark's ranges: a = c sector, k <= 2."""
    kind = draw(st.sampled_from(("coulomb", "oscillator")))
    n = draw(st.integers(2, 6))
    if n == 2:
        case, mk = draw(st.sampled_from((1, 2, 5, 8))), None
    else:
        case = draw(st.sampled_from((1, 4)))
        mk = draw(st.integers(2 if case == 4 else 0, 4))
    co = radial_coefficients(n, case, mk)
    assert co.a == co.c
    m1 = draw(st.floats(0.5, 2.5))
    m2 = m1 if co.mass_mode == MASS_EQUAL else draw(st.floats(0.5, 2.5))
    params = PhysicalParams(n, m1, m2, draw(st.floats(0.5, 2.0)), draw(st.floats(0.2, 2.0)))
    return kind, params, co, draw(st.integers(K_MIN[kind], 2))


@settings(max_examples=60, deadline=None)
@given(_symmetric_levels())
def test_shooting_agrees_with_the_closed_form(level):
    kind, params, co, k = level
    E = closed_form_energy(kind, params, co, k)
    gap = min(abs(closed_form_energy(kind, params, co, k + 1) - E), 2.0)
    got = shooting_eigenvalue(kind, params, co, E - 0.35 * gap, E + 0.35 * gap)
    # on the energy scale of Brent's xtol, in every sector, the double
    # indicial root at r = 0 (n = 2, case 1) included
    assert abs(got.energy - E) <= 1e-8 * max(1.0, abs(E))


def test_oracle_imports_no_closed_form_module():
    # the oracle may share the equation with the closed forms, never their
    # quantization condition
    closed = {"spectra", "hyperfun", "fuchsian"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    assert imported
    for name in imported:
        assert not closed & set(name.split(".")), name


def test_ode_residual_helper():
    p = lambda r: 0.0
    q = lambda r: 1.0
    good = lambda r: (math.sin(r), math.cos(r), -math.sin(r))
    bad = lambda r: (math.sin(r), math.cos(r), -0.9 * math.sin(r))
    rs = (0.3, 0.9, 1.4)
    assert ode_residual(p, q, good, rs) < 1e-15
    assert ode_residual(p, q, bad, rs) > 1e-3
    # a NaN jet at one point is not maxed away by the finite ones
    holed = lambda r: (math.nan, 0.0, 0.0) if r == 0.9 else good(r)
    assert math.isnan(ode_residual(p, q, holed, rs))


def test_ode_residual_has_no_floor():
    # the scale is the largest of f'', p f', q f: a tiny solution is judged
    # as strictly as a large one, and an all-zero jet cannot pass
    p = lambda r: 0.0
    q = lambda r: 1.0
    tiny_bad = lambda r: (1e-300 * math.sin(r), 1e-300 * math.cos(r), -0.9e-300 * math.sin(r))
    rs = (0.3, 0.9, 1.4)
    assert ode_residual(p, q, tiny_bad, rs) > 1e-3
    assert ode_residual(p, q, lambda r: (0.0, 0.0, 0.0), rs) == math.inf


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(0.0, 1.0, 8)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert (w * x ** 2).sum() == pytest.approx(1.0 / 3.0, abs=1e-14)
    x, w = gauss_legendre(-2.0, 3.0, 12)
    assert (w * x ** 3).sum() == pytest.approx((3.0 ** 4 - 2.0 ** 4) / 4.0, abs=1e-12)


@pytest.mark.parametrize("nodes", [0, -3, 2.5, 240.0, True, None, "240"])
def test_bad_node_count_is_a_validation_error(nodes):
    fn = radial_eigenfunction("oscillator", UNIT3, radial_coefficients(3, 1, 1), 1)
    with pytest.raises(ValidationError, match="node count"):
        gauss_legendre(0.0, 1.0, nodes)
    with pytest.raises(ValidationError, match="node count"):
        fn.norm_squared(nodes)


def test_legendre_rule_cached_read_only_and_exact(monkeypatch):
    from sphere_twobody import oracle

    real = np.polynomial.legendre.leggauss
    calls = []

    def counting(nodes):
        calls.append(nodes)
        return real(nodes)

    oracle._legendre_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        for _ in range(3):
            x, w = gauss_legendre(-1.0, 1.0, 17)
            gauss_legendre(0.0, 2.0, 17)
            gauss_legendre(-1.0, 1.0, 9)
        assert calls == [17, 9]
        rx, rw = real(17)
        assert x.tobytes() == rx.tobytes() and w.tobytes() == rw.tobytes()
        cx, cw = oracle._legendre_rule(17)
        assert cx.tobytes() == rx.tobytes() and cw.tobytes() == rw.tobytes()
        with pytest.raises(ValueError):
            cx[0] = 0.0
        with pytest.raises(ValueError):
            cw[0] = 0.0
    finally:
        oracle._legendre_rule.cache_clear()


def test_joint_diagonalize_commuting_family():
    M1 = np.diag([1.0, 1.0, 2.0])
    M2 = np.diag([3.0, 4.0, 5.0])
    spaces = joint_diagonalize([M1, M2])
    assert [s.eigenvalues for s in spaces] == [
        ((1 + 0j), (3 + 0j)),
        ((1 + 0j), (4 + 0j)),
        ((2 + 0j), (5 + 0j)),
    ]
    assert all(s.basis.shape == (3, 1) for s in spaces)


def test_joint_diagonalize_degenerate_block():
    M1 = np.diag([1.0, 1.0, 2.0])
    M2 = np.diag([3.0, 3.0, 5.0])
    spaces = joint_diagonalize([M1, M2])
    dims = [s.basis.shape[1] for s in spaces]
    assert dims == [2, 1]


def test_joint_diagonalize_noncommuting_gate():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    D = np.diag([1.0, 2.0])
    with pytest.raises(VerificationError):
        joint_diagonalize([N, D])
    # opt-out searches anyway; here the only joint eigenvector is e1
    spaces = joint_diagonalize([N, D], require_commuting=False)
    assert len(spaces) == 1
    v = spaces[0].basis[:, 0]
    assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12


def test_joint_diagonalize_input_validation():
    with pytest.raises(ValidationError):
        joint_diagonalize([])
    with pytest.raises(ValidationError):
        joint_diagonalize([np.eye(2), np.eye(3)])
    # a non-finite entry, before the eigenvalue solver's untyped LinAlgError
    for bad in (math.nan, math.inf):
        M = np.eye(3)
        M[1, 2] = bad
        for require_commuting in (True, False):
            with pytest.raises(ValidationError, match="finite"):
                joint_diagonalize([np.eye(3), M], require_commuting=require_commuting)


def test_joint_diagonalize_ladder_family_with_d3():
    # adding D3 to the family cuts the rank-1 m=1 module down to the single
    # simultaneous eigenvector chi_0 with eigenvalues (0, -1, -1, 0)
    rep = build_ladder_rep(AlgebraLabel("B", 1), (1,))
    ops = operator_matrices(rep)
    D0 = ops.D0.to_numpy()
    family = [D0 @ D0, ops.D1.to_numpy(), ops.D2.to_numpy(), ops.D3.to_numpy()]
    spaces = joint_diagonalize(family, require_commuting=False)
    assert len(spaces) == 1
    eig = spaces[0].eigenvalues
    want = (0.0, -1.0, -1.0, 0.0)
    assert all(abs(e - t) < 1e-10 for e, t in zip(eig, want))
    v = spaces[0].basis[:, 0]
    j0 = rep.index(0)
    mask = np.ones(rep.dim, dtype=bool)
    mask[j0] = False
    assert abs(abs(v[j0]) - 1.0) < 1e-10
    assert np.abs(v[mask]).max() < 1e-10
