"""Shooting and joint-diagonalization oracles."""

import math
import warnings

import numpy as np
import pytest

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
from sphere_twobody.radial import endpoint_exponent, wall_exponent

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


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_shooting_mismatch_rejects_non_finite_energy(kind, energy):
    # raised before any march: no silent NaN, no slow ConvergenceError
    co = radial_coefficients(3, 1, 0)
    with pytest.raises(ValidationError, match="non-finite energy"):
        shooting_mismatch(kind, UNIT3, co, energy)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("bracket", [(1e9 - 1.0, 1e9 + 1.0), (0.0, 1e300)])
def test_shooting_work_bound_at_huge_energies(kind, bracket):
    # the march runs out of right-hand-side evaluations instead of spinning
    co = radial_coefficients(3, 1, 0)
    with pytest.raises(ConvergenceError, match="right-hand-side evaluations"):
        shooting_eigenvalue(kind, UNIT3, co, *bracket)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("bracket", [(1e9 - 1.0, 1e9 + 1.0), (0.0, 1e300)])
def test_shooting_failure_at_huge_energies_escapes_no_warning(kind, bracket):
    co = radial_coefficients(3, 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            shooting_eigenvalue(kind, UNIT3, co, *bracket)


def test_shooting_march_past_lsoda_default_step_limit():
    # one march of this level takes 540 LSODA steps, past the 500 an
    # integrator with its default step limit allows
    p = PhysicalParams(4, 1.0, 1.0, 2.0, 1.5)
    co = radial_coefficients(4, 1, 0)
    E = closed_form_energy("oscillator", p, co, 2)
    got = shooting_eigenvalue("oscillator", p, co, E - 0.5, E + 0.5)
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
    """Reference: each half marched on its own, from its endpoint to the
    matching point, with its own absolute tolerance."""
    p, q = spectral_ode(kind, params, coeffs, energy)

    def march(rhs, t0, t1, y0):
        atol = oracle._ATOL_SCALE * max(abs(y0[0]), abs(y0[1]))
        return oracle.solve_ivp(rhs, t0, t1, y0, atol).y

    eps = oracle._EPS
    if kind == "coulomb":
        def rhs(theta, y):
            r = math.tan(theta / 2.0)
            one = 1.0 + r * r
            return (y[1], -(p(r) * one / 2.0 - r) * y[1] - q(r) * one * one / 4.0 * y[0])

        n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
        fi, fpi = march(rhs, eps, math.pi / 2.0,
                        oracle._coulomb_start(n, float(coeffs.a), m, R, g))
        f_out, ft_out = oracle._coulomb_start(n, float(coeffs.c), m, R, -g)
        fo, fpo = march(rhs, math.pi - eps, math.pi / 2.0, (f_out, -ft_out))
    else:
        def rhs(r, y):
            return (y[1], -p(r) * y[1] - q(r) * y[0])

        rho0 = endpoint_exponent(params.n, float(coeffs.a))
        fi, fpi = march(rhs, eps, 0.5, (eps ** rho0, rho0 * eps ** (rho0 - 1.0)))
        sig = wall_exponent(params)
        f_out = eps ** sig * (1.0 + sig * eps / 2.0)
        fp_out = -(sig * eps ** (sig - 1.0) * (1.0 + sig * eps / 2.0) + eps ** sig * sig / 2.0)
        fo, fpo = march(rhs, 1.0 - eps, 0.5, (f_out, fp_out))
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
