"""Shooting and joint-diagonalization oracles."""

import ast
import math
import time
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
from sphere_twobody.radial import (
    MASS_EQUAL,
    endpoint_exponent,
    reduced_equation,
    valid_cases,
    wall_exponent,
)
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
    # the last bracket has finite ends, but its width overflows
    for lo, hi in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValidationError, match="non-finite"):
            shooting_eigenvalue("coulomb", UNIT3, co, lo, hi)
    for lo, hi in ((0.0, 1j), (1j, 2.0)):
        with pytest.raises(ValidationError, match="non-real"):
            shooting_eigenvalue("coulomb", UNIT3, co, lo, hi)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 1j, True])
def test_shooting_mismatch_rejects_non_finite_energy(kind, energy):
    # raised before any march: no silent NaN, no slow ConvergenceError; the
    # eigenfunction and the ODE coefficients check their energy the same way.
    # A bool is refused as non-real, as a bool k or m_k is refused
    co = radial_coefficients(3, 1, 0)
    match = ("non-real energy" if isinstance(energy, (complex, bool))
             else "non-finite energy")
    with pytest.raises(ValidationError, match=match):
        shooting_mismatch(kind, UNIT3, co, energy)
    with pytest.raises(ValidationError, match=match):
        radial_eigenfunction(kind, UNIT3, co, K_MIN[kind], energy)
    with pytest.raises(ValidationError, match=match):
        spectral_ode(kind, UNIT3, co, energy)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("bracket", [(1e9 - 1.0, 1e9 + 1.0), (0.0, 1e300)])
def test_shooting_work_bound_at_huge_energies(kind, bracket):
    # near 1e9 the march runs out of its series-term budget instead of
    # spinning; by 1e299 the start series never converge, and no march begins
    co = radial_coefficients(3, 1, 0)
    match = ("budget of 100000 series terms" if bracket[1] < 1e10
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


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("center", [1e6, 1e9])
def test_shooting_budget_ends_large_energy_brackets_quickly(kind, center):
    # one march at 1e6 would sum 3e5 (oscillator) to 8e5 (Coulomb) series
    # terms; the budget ends the first march of the scan, typed and with no
    # warning, in well under half a second of CPU time
    co = radial_coefficients(3, 1, 0)
    start = time.process_time()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=f"budget of {oracle._MAX_TERMS} series terms"):
            shooting_eigenvalue(kind, UNIT3, co, center - 1.0, center + 1.0)
    assert time.process_time() - start < 0.5


def _level_with_closed_form(kind, params, coeffs, k):
    """The level k found in E +- 0.35 gap, its closed form E, with no warning."""
    E = closed_form_energy(kind, params, coeffs, k)
    gap = abs(closed_form_energy(kind, params, coeffs, k + 1) - E)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shooting_eigenvalue(kind, params, coeffs, E - 0.35 * gap, E + 0.35 * gap)
    return got.energy, E


def test_shooting_finds_the_deep_coulomb_level():
    # the Coulomb k = 1 level E = -1800 (n = 2, case 1, R = 10, g = 30):
    # each half grows far past the float range before the matching point, so
    # every step's state is normalized by a power of two
    got, E = _level_with_closed_form(
        "coulomb", PhysicalParams(2, 2.0, 2.0, 10.0, 30.0), radial_coefficients(2, 1), 1)
    assert abs(got - E) <= 1e-9 * max(1.0, abs(E))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_shooting_oscillator_levels_at_radius_20(k):
    # the outer half starts as x^283 (the wall exponent (1 + W)/2 at R = 20)
    # and its steps are halved by the growth rule many times
    got, E = _level_with_closed_form(
        "oscillator", PhysicalParams(3, 1.0, 1.0, 20.0, 1.0), radial_coefficients(3, 1, 1), k)
    assert abs(got - E) <= 1e-12 * max(1.0, abs(E))


def test_shooting_oscillator_level_at_strong_coupling():
    # n = 4, R = 5, g = 2, k = 2: a march whose Taylor steps the growth rule
    # shortens
    p = PhysicalParams(4, 1.0, 1.0, 5.0, 2.0)
    co = radial_coefficients(4, 1, 0)
    E = closed_form_energy("oscillator", p, co, 2)
    got = shooting_eigenvalue("oscillator", p, co, E - 0.5, E + 0.5)
    assert abs(got.energy - E) <= 1e-12 * max(1.0, abs(E))


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


def _spy_marches(monkeypatch):
    """Patch solve_ivp to record the nfev of each march it returns."""
    nfevs = []
    march = oracle.solve_ivp

    def spy(*args):
        sol = march(*args)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", spy)
    return nfevs


def test_shooting_result_counts_series_terms(monkeypatch):
    # one march per distinct energy, through the name the benchmark tracer
    # patches, and the result sums the series terms of every march
    nfevs = _spy_marches(monkeypatch)
    co = radial_coefficients(3, 1, 1)
    for kind in ("coulomb", "oscillator"):
        nfevs.clear()
        E = closed_form_energy(kind, UNIT3, co, K_MIN[kind] + 1)
        got = shooting_eigenvalue(kind, UNIT3, co, E - 0.4, E + 0.4)
        assert got.series_terms > 0
        assert len(nfevs) == got.evaluations
        assert got.series_terms == sum(nfevs)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
def test_march_term_budget(monkeypatch, kind):
    # a march may sum exactly _MAX_TERMS series terms; one fewer allowed stops
    # it in its last series, typed, naming the budget, with no warning
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy(kind, UNIT3, co, K_MIN[kind])
    need = oracle.solve_ivp(oracle._new_call(kind, UNIT3, co), E).nfev
    monkeypatch.setattr(oracle, "_MAX_TERMS", need - 1)
    text = f"the march at E = {E} summed more than its budget of {need - 1} series terms"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            shooting_mismatch(kind, UNIT3, co, E)
        assert str(info.value) == text
        with pytest.raises(ConvergenceError, match=f"budget of {need - 1} series terms"):
            shooting_eigenvalue(kind, UNIT3, co, E - 0.4, E + 0.4)
    monkeypatch.setattr(oracle, "_MAX_TERMS", need)
    assert oracle.solve_ivp(oracle._new_call(kind, UNIT3, co), E).nfev == need


def _mpmath_halves(kind, params, coeffs, energy):
    """(P, Q) of f'' + P f' + Q f = 0 for each half, in its own x, in mpmath.

    Written here from the radial equation in r, not from the oracle's
    record: x = r inside; x = 1/r (Coulomb) or 1 - r (oscillator) outside.
    """
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

    if kind == "coulomb":
        # f_xx + (2/x - p(1/x)/x^2) f_x + q(1/x)/x^4 f = 0 at x = 1/r
        return (p, q), (lambda x: 2 / x - p(1 / x) / x ** 2, lambda x: q(1 / x) / x ** 4)
    return (p, q), (lambda x: -p(1 - x), lambda x: q(1 - x))


@pytest.mark.parametrize("kind, params, sector, energies", [
    ("coulomb", UNIT3, (3, 1, 1), np.linspace(-1.0, 3.0, 4)),
    ("coulomb", UNIT3, (3, 2, 1), np.linspace(0.5, 1.6, 4)),       # a != c
    ("coulomb", PhysicalParams(4, 1.5, 1.5, 0.8, 1.3), (4, 3, 2), np.linspace(5.0, 12.0, 4)),
    ("oscillator", UNIT3, (3, 2, 1), np.linspace(3.0, 20.0, 4)),   # a != c
    ("oscillator", PhysicalParams(2, 1.0, 3.0, 1.0, 1.0), (2, 1, None), (3.0, 9.0, 20.0, 60.0)),
    ("oscillator", PhysicalParams(4, 1.0, 1.0, 1.3, 0.7), (4, 3, 2), (3.0, 9.0, 20.0, 60.0)),
])
def test_stacked_march_matches_two_half_marches(kind, params, sector, energies):
    # one solve_ivp call marches both halves to the matching point; each
    # half's state there, as a unit vector (the mismatch reads nothing else),
    # against its own mpmath.odefun march at 30 digits (tolerance 1e-20),
    # started from the oracle's Frobenius series at half the matching point
    co = radial_coefficients(*sector)
    for E in map(float, energies):
        call = oracle._new_call(kind, params, co)
        y = oracle.solve_ivp(call, E).y
        x0, x1 = call.ends.match / 2.0, call.ends.match
        with mpmath.workdps(30):
            for half, (P, Q) in enumerate(_mpmath_halves(kind, params, co, E)):
                _, f, g, _ = oracle._sum(oracle._series(call, half, 0.0), [1.0], E, x0, x0,
                                         oracle._MAX_TERMS)
                sol = mpmath.odefun(lambda x, v: [v[1], -P(x) * v[1] - Q(x) * v[0]],
                                    x0, [mpmath.mpf(f), mpmath.mpf(g) / x0],
                                    tol=mpmath.mpf(1e-20), degree=20)
                ref = sol(x1)
                ref_norm = mpmath.sqrt(ref[0] ** 2 + ref[1] ** 2)
                got = y[2 * half:2 * half + 2]
                for value, want in zip(got, ref):
                    assert abs(value / math.hypot(*got) - float(want / ref_norm)) <= 1e-13, (
                        E, half, got, ref)


def _poly(coeffs, x):
    return sum(u * x ** i for i, u in enumerate(coeffs))


def _record_sectors(n, top):
    """Every valid case of dimension n, n >= 3 at each m_k = drop..top."""
    if n == 2:
        return [(2, case_id, None) for case_id in valid_cases(2)]
    return [(n, case_id, mk) for case_id in valid_cases(n) for mk in range(case_id // 2, top + 1)]


def _assert_record_is_spectral_ode(kind, params, coeffs, energy, rng):
    """The record's B/(r A) and (C0 + w W + E s S)/(r^2 A) are spectral_ode's p and q.

    Each within 1e-13 of its terms' scale, its polynomials summed in |.|,
    at random r in (0.05, 0.9), and for Coulomb also at their 1/r.
    """
    eq = reduced_equation(kind, params, coeffs)
    p, q = spectral_ode(kind, params, coeffs, energy)
    rs = rng.uniform(0.05, 0.9, 4).tolist()
    if kind == "coulomb":
        rs += [1.0 / r for r in rs]
    for r in rs:
        rA, r2A = r * _poly(eq.A, r), r * r * _poly(eq.A, r)
        C = _poly(eq.C0, r) + eq.w * _poly(eq.W, r) + energy * eq.s * _poly(eq.S, r)
        B_scale = _poly(list(map(abs, eq.B)), r)
        C_scale = sum(abs(f) * _poly(list(map(abs, poly)), r)
                      for f, poly in ((1.0, eq.C0), (eq.w, eq.W), (energy * eq.s, eq.S)))
        assert abs(_poly(eq.B, r) / rA - p(r)) <= 1e-13 * B_scale / rA, (kind, coeffs, r)
        assert abs(C / r2A - q(r)) <= 1e-13 * C_scale / r2A, (kind, coeffs, r)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_end_record_is_the_equation(kind, n):
    # each end's (A, B, C0, C1, rho) against the equation itself: rho solves
    # the indicial equation A0 rho (rho - 1) + B0 rho + C0(0) = 0, C1 has no
    # constant term, and the record the ends are mapped from is spectral_ode's
    # p and q at random r
    rng = np.random.default_rng(1000 * n + len(kind))
    for sector in _record_sectors(n, 2):
        co = radial_coefficients(*sector)
        draws = [PhysicalParams(n, 2.0, 2.0, 1.0, 1.0)]  # the verify grid's parameters
        for _ in range(2):
            m1, m2 = rng.uniform(0.5, 2.5, 2)
            g = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
            draws.append(PhysicalParams(n, m1, m1 if co.mass_mode == MASS_EQUAL else m2,
                                        rng.uniform(0.5, 2.0), g))
        for params in draws:
            energy = rng.uniform(-5.0, 20.0)
            _assert_record_is_spectral_ode(kind, params, co, energy, rng)
            ends = oracle._series_ends(kind, params, co)
            for end in ends[:2]:
                assert end.C1[0] == 0.0  # rho does not depend on the energy
                A0, B0, C00, rho = end.A[0], end.B[0], end.C0[0], end.rho
                terms = (A0 * rho * (rho - 1.0), B0 * rho, C00)
                assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms)), (sector, params, terms)


def _hand_series_ends(kind, params, coeffs):
    """`oracle._series_ends` as it stood with each end derived by hand.

    The reference for radial.reduced_equation and its two end maps: each
    end's indicial form multiplied through by its own denominators, built
    from parameter-free factors in the end's x.  Coulomb's outer end is the
    inner one with a <-> c and g -> -g; the oscillator's is multiplied by
    (1 + r^2)^2 r^2 (2 - x)^2 at x = 1 - r, where 1 - r^2 = x (2 - x).
    """
    def add(*polys):
        out = [0.0] * max(map(len, polys))
        for poly in polys:
            for i, u in enumerate(poly):
                out[i] += u
        return out

    def mul(*polys):
        out = [1.0]
        for poly in polys:
            prod = [0.0] * (len(out) + len(poly) - 1)
            for i, u in enumerate(out):
                for k, v in enumerate(poly):
                    prod[i + k] += u * v
            out = prod
        return out

    def scaled(factor, poly):
        return [factor * u for u in poly]

    one, wall = [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]
    r1, one_r, two = [1.0, -1.0], [2.0, -2.0, 1.0], [2.0, -1.0]
    r2, two2 = mul(r1, r1), mul(two, two)
    r4, one2, wall2 = mul(r2, r2), mul(one, one), mul(wall, wall)
    x2_two2 = mul([0.0, 0.0, 1.0], two2)
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    mR2 = m * R * R
    bend = [n - 1.0, 0.0, 3.0 - n]  # (1 + r^2) r p(r)
    if kind == "coulomb":
        B = [n - 1.0, 0.0, 2.0, 0.0, 3.0 - n]
        C1 = [0.0, 0.0, 8.0 * mR2]

        def end(a, c, h):
            return oracle._end(one2, B, [-8.0 * a, h, -8.0 * b, -h, -8.0 * c], C1,
                               endpoint_exponent(n, a))

        h = 4.0 * m * R * g
        return oracle._Ends(end(a, c, h), end(c, a, -h), 1.0)
    w8 = 16.0 * mR2 * R * R * g * g
    inner = oracle._end(
        mul(one2, wall2),
        mul(bend, mul(one, wall2)),
        add(mul([-8.0 * a, 0.0, -8.0 * b, 0.0, -8.0 * c], wall2), [0.0] * 4 + [-w8]),
        scaled(8.0 * mR2, [0.0, 0.0] + wall2),
        endpoint_exponent(n, a),
    )
    # -x bend at r = 1 - x is -x (2 + 2 (n-3) x + (3-n) x^2)
    outer = oracle._end(
        mul(one_r, one_r, r2, two2),
        mul([0.0, -2.0, 2.0 * (3.0 - n), n - 3.0], mul(one_r, r1, two2)),
        add(mul(x2_two2, add([-8.0 * a], scaled(-8.0 * b, r2), scaled(-8.0 * c, r4))),
            scaled(-w8, r4)),
        scaled(8.0 * mR2, mul(x2_two2, r2)),
        wall_exponent(params),
    )
    return oracle._Ends(inner, outer, 0.5)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_record_ends_match_the_hand_derived_ends(kind, n):
    # every _End field (A, B, C0, C1, rho, steps, shifts) built from
    # radial.reduced_equation equals the hand-derived end, over every case
    # with m_k <= 5 and 15 seeded draws of (m1, m2, R, g): both maps act
    # exactly, so not a start bit moves
    rng = np.random.default_rng(100 * n + len(kind))
    for sector in _record_sectors(n, 5):
        co = radial_coefficients(*sector)
        for _ in range(15):
            m1, m2, R = rng.uniform(0.3, 3.0, 3)
            g = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            params = PhysicalParams(n, m1, m1 if co.mass_mode == MASS_EQUAL else m2, R, g)
            got, want = oracle._series_ends(kind, params, co), _hand_series_ends(kind, params, co)
            assert got == want, (sector, params)


# Coulomb sectors whose (a, b, c) are each other's (c, b, a)
_ANTIPODAL_PAIRS = [(2, 3, 4, None), (2, 6, 7, None)] + [
    (n, 2, 3, mk) for n in range(3, 8) for mk in (1, 2, 3)]


def test_coulomb_outer_end_is_the_swapped_case_inner_end():
    # r -> 1/r swaps a and c and flips g: the outer end at g is the swapped
    # case's inner end at -g, bit for bit, and the other way round
    rng = np.random.default_rng(14)
    for n, case_id, swapped, mk in _ANTIPODAL_PAIRS:
        co, co_swapped = radial_coefficients(n, case_id, mk), radial_coefficients(n, swapped, mk)
        assert (co.a, co.b, co.c) == (co_swapped.c, co_swapped.b, co_swapped.a)
        for _ in range(5):
            m, R = rng.uniform(0.3, 3.0, 2)
            g = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            ends = oracle._series_ends("coulomb", PhysicalParams(n, m, m, R, g), co)
            mirror = oracle._series_ends("coulomb", PhysicalParams(n, m, m, R, -g), co_swapped)
            assert repr(ends.outer) == repr(mirror.inner), (n, case_id, mk, m, R, g)
            assert repr(ends.inner) == repr(mirror.outer), (n, case_id, mk, m, R, g)


@pytest.mark.parametrize("n, mk, coupling, bracket", [
    (3, 1, 1.0, (0.3, 1.6)),
    (3, 2, 0.7, (2.4, 3.4)),
    (4, 1, 2.0, (0.7, 1.6)),
])
def test_antipodal_cases_share_their_shooting_levels(n, mk, coupling, bracket):
    # case 2 at g and case 3 at -g are one equation under r -> 1/r
    got = shooting_eigenvalue("coulomb", PhysicalParams(n, 2.0, 2.0, 1.0, coupling),
                              radial_coefficients(n, 2, mk), *bracket)
    mirror = shooting_eigenvalue("coulomb", PhysicalParams(n, 2.0, 2.0, 1.0, -coupling),
                                 radial_coefficients(n, 3, mk), *bracket)
    assert mirror.energy == pytest.approx(got.energy, rel=1e-9)
    assert mirror.bracket == got.bracket


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
    # each half leaves its march normalized, and the mismatch is the plain
    # scaled Wronskian of those states, the outer derivative turned to d/dr
    co = radial_coefficients(3, 2, 1)
    for kind, E in (("coulomb", 0.7), ("oscillator", 6.0)):
        fi, fpi, fo, fpo = y = oracle.solve_ivp(oracle._new_call(kind, UNIT3, co), E).y
        assert all(0.5 <= max(abs(f), abs(df)) < 1.0 for f, df in (y[:2], y[2:]))
        plain = (fi * -fpo - fpi * fo) / (abs(fi * fpo) + abs(fpi * fo) + 1e-300)
        assert shooting_mismatch(kind, UNIT3, co, E) == plain


def _mpmath_start(kind, params, coeffs, energy, x):
    """Both halves' (f, df/dx) / x^rho at x, from 60-term mpmath Frobenius series.

    P and Q are _mpmath_halves', each half in its own x; their Taylor
    coefficients are trapezoidal contour integrals at 100 points on
    |x| = 1/3, and rho is the larger root of the indicial equation they give.
    """
    terms, points = 60, 100
    with mpmath.workdps(60):
        zs = [mpmath.expjpi(2 * mpmath.mpf(k) / points) / 3 for k in range(points)]
        x = mpmath.mpf(x)
        states = []
        for P, Q in _mpmath_halves(kind, params, coeffs, energy):
            Pv, Qv, powers = [z * P(z) for z in zs], [z * z * Q(z) for z in zs], [1] * points
            Pc, Qc = [], []
            for _ in range(terms + 1):
                Pc.append(mpmath.re(mpmath.fsum(u * w for u, w in zip(Pv, powers))) / points)
                Qc.append(mpmath.re(mpmath.fsum(u * w for u, w in zip(Qv, powers))) / points)
                powers = [w / z for w, z in zip(powers, zs)]
            rho = (1 - Pc[0] + mpmath.sqrt(max(0, (1 - Pc[0]) ** 2 - 4 * Qc[0]))) / 2
            cs = [mpmath.mpf(1)]
            for j in range(1, terms + 1):
                s = mpmath.fsum(cs[j - i] * (Pc[i] * (rho + j - i) + Qc[i])
                                for i in range(1, j + 1))
                cs.append(-s / ((rho + j) * (rho + j - 1) + Pc[0] * (rho + j) + Qc[0]))
            assert abs(cs[-1]) * x ** terms < mpmath.mpf(10) ** -30  # the reference converged
            f = mpmath.fsum(cj * x ** j for j, cj in enumerate(cs))
            fx = mpmath.fsum((rho + j) * cj * x ** (j - 1) for j, cj in enumerate(cs))
            states.append((f, fx))
        return states


@pytest.mark.parametrize("kind, params, sector, energy, shrinks", [
    ("coulomb", PhysicalParams(2, 2.5, 2.5, 2.0, 2.0), (2, 1, None), -10.0, True),    # double root
    ("oscillator", PhysicalParams(2, 2.5, 2.5, 2.0, 2.0), (2, 1, None), 10.0, False),  # double root
    ("coulomb", PhysicalParams(4, 1.5, 1.5, 0.8, 1.3), (4, 3, 2), 7.0, False),        # a != c
    ("oscillator", PhysicalParams(4, 1.0, 1.0, 1.3, 0.7), (4, 3, 2), 9.0, False),     # a != c
    ("coulomb", PhysicalParams(5, 0.7, 1.9, 1.6, 0.45), (5, 1, 3), 2.5, False),
    ("oscillator", PhysicalParams(6, 0.6, 2.2, 1.9, 1.8), (6, 1, 4), 30.0, False),
    ("coulomb", PhysicalParams(3, 1.0, 1.0, 1000.0, 1.0), (3, 1, 1), -0.0625, True),
    ("oscillator", UNIT3, (3, 1, 1), 2000.0, True),
])
def test_series_start_matches_mpmath(kind, params, sector, energy, shrinks):
    # `shrinks`: a half's series failed the growth rule or did not converge
    # at the first offset, which was halved.  Both halves' start series are
    # then summed at x = min(0.05, both offsets), where 60 reference terms
    # converge, and compared term for term with mpmath's
    co = radial_coefficients(*sector)
    call = oracle._new_call(kind, params, co)
    offsets = [oracle._start(call, half, energy, oracle._MAX_TERMS)[0] for half in (0, 1)]
    assert (min(offsets) < oracle._OFFSET) == shrinks
    assert min(offsets) > oracle._EPS
    x = min(0.05, *offsets)
    want = _mpmath_start(kind, params, co, energy, x)
    for half, ref in enumerate(want):
        _, f, g, _ = oracle._sum(oracle._series(call, half, 0.0), [1.0], energy, x, x,
                                 oracle._MAX_TERMS)
        for value, r in zip((f, g / x), ref):
            assert abs(value - r) <= 1e-13 * abs(r), (half, value, r)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", [1e300, -1e300, 1e9, -1e9])
def test_series_start_at_extreme_energies_stays_finite(kind, energy):
    # past the float range the series never converge, and the start raises
    # by _EPS: no OverflowError, no RuntimeWarning, no inexact start
    call = oracle._new_call(kind, UNIT3, radial_coefficients(3, 1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if abs(energy) == 1e300:
            with pytest.raises(ConvergenceError, match=f"by the last start offset {oracle._EPS}"):
                oracle._start(call, 0, energy, oracle._MAX_TERMS)
            return
        starts = [oracle._start(call, half, energy, oracle._MAX_TERMS) for half in (0, 1)]
    for x0, f, df, _ in starts:
        assert oracle._EPS <= x0 < oracle._OFFSET
        assert math.isfinite(f) and math.isfinite(df)


@pytest.mark.parametrize("radius", [1000.0, 1200.0])
def test_series_start_at_large_coulomb_radius(radius):
    params = PhysicalParams(3, 1.0, 1.0, radius, 1.0)
    co = radial_coefficients(3, 1, 1)
    E = closed_form_energy("coulomb", params, co, 1)
    call = oracle._new_call("coulomb", params, co)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        starts = [oracle._start(call, half, E, oracle._MAX_TERMS) for half in (0, 1)]
    assert oracle._EPS < starts[0][0] < oracle._OFFSET  # converged after some halvings
    for x0, f, df, _ in starts:
        assert math.isfinite(f) and math.isfinite(df)


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


@settings(max_examples=60, deadline=None)
@given(_symmetric_levels(), st.sampled_from((0, 1)), st.sampled_from((0, 1)), st.booleans())
def test_last_bit_of_a_start_state_moves_no_energy(level, half, slot, up):
    # one start value of one half moved to its neighbouring float, at every
    # energy of the search: the located level moves by at most 1e-13 of its scale
    kind, params, co, k = level
    E = closed_form_energy(kind, params, co, k)
    gap = min(abs(closed_form_energy(kind, params, co, k + 1) - E), 2.0)
    bracket = (E - 0.35 * gap, E + 0.35 * gap)
    base = shooting_eigenvalue(kind, params, co, *bracket).energy
    start = oracle._start

    def nudged(call, which, energy, budget):
        x0, *state, budget = start(call, which, energy, budget)
        if which == half:
            state[slot] = math.nextafter(state[slot], math.inf if up else -math.inf)
        return x0, *state, budget

    oracle._start = nudged
    try:
        moved = shooting_eigenvalue(kind, params, co, *bracket).energy
    finally:
        oracle._start = start
    assert abs(moved - base) <= 1e-13 * max(1.0, abs(base))


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
    for require_commuting in (True, False):
        with pytest.raises(ValidationError, match="at least 1 x 1"):
            joint_diagonalize([np.zeros((0, 0))], require_commuting=require_commuting)
        for scalar in ([5.0], [np.float64(2.0)]):  # 0-d: no shape[0] to read
            with pytest.raises(ValidationError, match="at least 1 x 1"):
                joint_diagonalize(scalar, require_commuting=require_commuting)
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
