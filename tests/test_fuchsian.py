"""Singular-point bookkeeping, Heun reduction, and hypergeometric pullback."""

import cmath
import math

import pytest

from sphere_twobody import (
    INFINITY,
    FuchsianEq,
    HeunParams,
    HypergeomParams,
    PhysicalParams,
    SingularPoint,
    ValidationError,
    VerificationError,
    accessory_parameter_probe,
    case1_pullback_residual,
    coulomb_exponents,
    cross_ratio,
    cross_ratio_classify,
    cross_ratio_orbit,
    maier_classify,
    oscillator_exponents,
    oscillator_zeta_exponents,
    psymbol,
    radial_coefficients,
    reduce_case1,
    spectral_ode,
    to_heun,
)

P_EQ = PhysicalParams(4, 2.0, 2.0, 1.0, 1.0)
SYM = radial_coefficients(4, 1, 2)       # a = c
ASYM = radial_coefficients(4, 2, 2)      # a != c


def test_fuchs_relation_point_counts():
    ce = coulomb_exponents(P_EQ, SYM, energy=1.3)
    assert ce.n_points == 4
    assert ce.fuchs_sum() == pytest.approx(2.0, abs=1e-12)
    oe = oscillator_exponents(P_EQ, SYM, energy=2.1)
    assert oe.n_points == 6
    assert oe.fuchs_sum() == pytest.approx(4.0, abs=1e-12)
    ze = oscillator_zeta_exponents(P_EQ, SYM, energy=2.1)
    assert ze.n_points == 4
    assert ze.fuchs_sum() == pytest.approx(2.0, abs=1e-12)
    assert abs(ze.fuchs_residual()) < 1e-12


def test_endpoint_exponents_solve_indicial_equation():
    # rho(rho-1) + (n-1) rho - 8a = 0 at r = 0; the same with c at infinity
    for co in (SYM, ASYM):
        eq = coulomb_exponents(P_EQ, co, energy=0.7)
        n, a, c = P_EQ.n, float(co.a), float(co.c)
        for rho in eq.exponents_at(0.0):
            assert abs(rho * (rho - 1) + (n - 1) * rho - 8 * a) < 1e-12
        for rho in eq.exponents_at(INFINITY):
            assert abs(rho * (rho - 1) + (n - 1) * rho - 8 * c) < 1e-12


def test_zeta_form_halves_endpoint_exponents():
    oe = oscillator_exponents(P_EQ, SYM, energy=1.9)
    ze = oscillator_zeta_exponents(P_EQ, SYM, energy=1.9)
    for loc in (0.0, INFINITY):
        full = oe.exponents_at(loc)
        half = ze.exponents_at(loc)
        assert half == (full[0] / 2, full[1] / 2)
    assert ze.exponents_at(1.0) == oe.exponents_at(1.0)


def test_oscillator_unit_exponents_from_coupling_only():
    p = PhysicalParams(3, 2.0, 2.0, 1.5, 0.8)
    oe = oscillator_exponents(p, radial_coefficients(3, 1, 0), energy=0.4)
    s = math.sqrt(1.0 + 4.0 * p.radius ** 4 * p.reduced_mass * p.coupling ** 2)
    assert oe.exponents_at(1.0)[0] == pytest.approx((1 + s) / 2, abs=1e-14)
    assert oe.exponents_at(-1.0)[1] == pytest.approx((1 - s) / 2, abs=1e-14)


def test_validation_coincident_points_and_fuchs_violation():
    with pytest.raises(ValidationError):
        FuchsianEq((
            SingularPoint(0.0, (0.0, 1.0)),
            SingularPoint(1e-14, (0.5, 0.5)),
            SingularPoint(INFINITY, (0.0, 0.0)),
        ))
    with pytest.raises(ValidationError):
        FuchsianEq((
            SingularPoint(0.0, (0.0, 0.5)),
            SingularPoint(1.0, (0.0, 0.5)),
            SingularPoint(INFINITY, (0.0, 0.7)),
        ))
    eq = coulomb_exponents(P_EQ, SYM, energy=1.0)
    with pytest.raises(ValidationError):
        eq.exponents_at(3.0)
    with pytest.raises(ValidationError):  # _replace checks like the constructor
        eq._replace(points=eq.points + eq.points[:1])


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 1j, True])
def test_non_finite_energy_rejected(energy):
    match = ("non-real energy" if isinstance(energy, (complex, bool))
             else "non-finite energy")
    for fn in (coulomb_exponents, oscillator_exponents, oscillator_zeta_exponents):
        with pytest.raises(ValidationError, match=match):
            fn(P_EQ, SYM, energy)
    for kind in ("coulomb", "oscillator"):
        with pytest.raises(ValidationError, match=match):
            to_heun(kind, P_EQ, SYM, energy)


def test_psymbol_layout():
    eq = coulomb_exponents(P_EQ, SYM, energy=1.0)
    s = psymbol(eq)
    assert s.startswith("P {")
    assert s.endswith("}")
    assert "oo" in s
    assert len(s.splitlines()) == 5  # braces + locations + two exponent rows


def test_cross_ratio_values_and_infinity():
    assert cross_ratio(0.0, 1.0, 2.0, INFINITY) == pytest.approx(2.0)
    # Mobius invariance: z -> 1/z applied to a finite quadruple
    zs = (0.3 + 0.1j, 1.7, -2.0, 0.9j)
    s0 = cross_ratio(*zs)
    s1 = cross_ratio(*(1.0 / z for z in zs))
    assert s1 == pytest.approx(s0, rel=1e-12)
    for slot in range(4):
        pts = [0.4, 1.3, -0.7, 2.2]
        pts[slot] = INFINITY
        finite_limit = list(pts)
        finite_limit[slot] = 1e9
        assert cross_ratio(*pts) == pytest.approx(
            cross_ratio(*finite_limit), rel=1e-6
        )
    # the two factors holding INFINITY cancel, leaving exactly the reduced quotient
    z1, z2, z3, z4 = 0.4 + 0.2j, 1.3 + 0j, -0.7 + 0j, 2.2 - 0.5j
    reduced = ((z2 - z4) / (z2 - z3), (z1 - z3) / (z1 - z4),
               (z2 - z4) / (z1 - z4), (z1 - z3) / (z2 - z3))
    for slot, want in enumerate(reduced):
        pts = [z1, z2, z3, z4]
        pts[slot] = INFINITY
        assert cross_ratio(*pts) == want
    with pytest.raises(ValidationError):
        cross_ratio(INFINITY, 1.0, 2.0, INFINITY)


def test_cross_ratio_orbit_closure():
    s = 0.37 + 0.21j
    orbit = set()
    for v in cross_ratio_orbit(s):
        for w in cross_ratio_orbit(v):
            orbit.add((round(w.real, 9), round(w.imag, 9)))
    assert len(orbit) == 6


def test_cross_ratio_classify():
    assert cross_ratio_classify(2.0) == "harmonic"
    assert cross_ratio_classify(-1.0) == "harmonic"
    assert cross_ratio_classify(0.5) == "harmonic"
    w = cmath.exp(1j * math.pi / 3)  # 1/2 + i sqrt(3)/2
    assert cross_ratio_classify(w) == "equianharmonic"
    assert cross_ratio_classify(1.0 - w) == "equianharmonic"
    assert cross_ratio_classify(0.0) == "degenerate"
    assert cross_ratio_classify(1.0) == "degenerate"
    assert cross_ratio_classify(0.3) == "generic"


def test_heun_params_consistency_enforced():
    hp = HeunParams(2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 0.3)
    with pytest.raises(ValidationError):
        HeunParams(2.0, 1.0, 2.0, 1.5, 1.5, 1.3, 0.3)
    with pytest.raises(ValidationError):  # _replace checks like the constructor
        hp._replace(epsilon=1.3)


@pytest.mark.parametrize("args", [(1.0, 1.0, 2.0, 1.5, 1.0, 1.5, 3.0),
                                  (0.0, 1.0, 2.0, 1.5, 1.0, 1.5, 3.0),
                                  (math.nan, 1, 1, 1, 1, 1, 1)])
def test_heun_params_reject_a_bad_singular_point(args):
    # d on 0 or 1 would divide by zero in maier_classify's relabelings, and
    # no table row skips a NaN d
    with pytest.raises(ValidationError, match="singular point d"):
        HeunParams(*args)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
def test_raw_ode_matches_mobius_transform(kind):
    # A(t), B(t) must be the p, q of the radial ODE carried through t(r)
    red = to_heun(kind, P_EQ, SYM, energy=1.7)
    p, q = spectral_ode(kind, P_EQ, SYM, 1.7)
    for r in (0.35, 0.8, 1.6):
        t = red.t_of_r(r)
        if kind == "coulomb":
            dphi = 2j / (r + 1j) ** 2
            d2phi = -4j / (r + 1j) ** 3
        else:
            dphi = 4 * r / (r * r + 1) ** 2
            d2phi = 4 * (1 - 3 * r * r) / (r * r + 1) ** 3
        want_A = (d2phi + p(r) * dphi) / dphi ** 2
        want_B = -q(r) / dphi ** 2
        assert red.A(t) == pytest.approx(want_A, rel=1e-10, abs=1e-10)
        assert red.B(t) == pytest.approx(want_B, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
def test_heun_reduction_consistency_and_accessory(kind):
    for co, E in ((SYM, 1.7), (ASYM, -0.4)):
        red = to_heun(kind, P_EQ, co, energy=E)
        hp = red.heun
        assert abs(hp.consistency_residual()) < 1e-10
        assert hp.d == 2.0
        probe = accessory_parameter_probe(red)
        assert abs(probe - hp.q) < 1e-6 * max(1.0, abs(hp.q))


def test_heun_sigma_matches_exponents():
    red = to_heun("coulomb", P_EQ, SYM, energy=1.1)
    eq = red.fuchsian
    assert red.sigma[0] == eq.exponents_at(0.0)[0]
    assert red.sigma[1] == eq.exponents_at(1j)[0]
    assert red.sigma[2] == eq.exponents_at(INFINITY)[0]
    ored = to_heun("oscillator", P_EQ, SYM, energy=2.3)
    zeq = ored.fuchsian  # zeta form: sigma = peeled (halved at 0, oo) exponents
    assert ored.sigma[0] == zeq.exponents_at(0.0)[0]
    assert ored.sigma[1] == zeq.exponents_at(1.0)[0]
    assert ored.sigma[2] == zeq.exponents_at(INFINITY)[0]


def test_maier_symmetric_routes_to_case1():
    red = to_heun("coulomb", P_EQ, SYM, energy=0.9)
    match = maier_classify(red.heun)
    assert match is not None and match.case_id == 1
    assert all(abs(v) < 1e-9 for v in match.residuals.values())
    hyp = reduce_case1(match.normalized)
    assert isinstance(hyp, HypergeomParams)
    assert hyp.alpha == pytest.approx(red.heun.alpha / 2)
    assert case1_pullback_residual(match.normalized) < 1e-10


def test_maier_asymmetric_is_unclassified():
    red = to_heun("coulomb", P_EQ, ASYM, energy=0.9)
    assert maier_classify(red.heun) is None


def test_maier_degenerate_raises():
    hp = HeunParams(2.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0)
    with pytest.raises(VerificationError):
        maier_classify(hp)


def test_maier_synthetic_rows():
    # case 2: d = 4, q = alpha beta, gamma = 1/2, 2 eps - delta = 1
    hp2 = HeunParams(4.0, 0.5, 1.0, 0.5, 1.0, 1.0, 0.5)
    m2 = maier_classify(hp2)
    assert m2 is not None and m2.case_id == 2
    # case 3: equianharmonic d, equal local parameters
    d3 = 0.5 + math.sqrt(3) / 2 * 1j
    a3, b3 = 0.3, 0.7
    hp3 = HeunParams(d3, a3, b3, 2 / 3, 2 / 3, 2 / 3,
                     (0.5 + math.sqrt(3) / 6 * 1j) * a3 * b3)
    m3 = maier_classify(hp3)
    assert m3 is not None and m3.case_id == 3
    # case 4
    d4 = 0.5 + 5 * math.sqrt(2) / 4 * 1j
    a4 = b4 = 1 / 3
    hp4 = HeunParams(d4, a4, b4, 0.5, 0.5, 2 / 3,
                     (0.5 + math.sqrt(2) / 4 * 1j) * a4 * b4)
    m4 = maier_classify(hp4)
    assert m4 is not None and m4.case_id == 4
    # case 5
    d5 = 0.5 + 11 * math.sqrt(15) / 90 * 1j
    a5, b5 = 1 / 3, 0.5
    hp5 = HeunParams(d5, a5, b5, 2 / 3, 2 / 3, 0.5,
                     (0.5 + math.sqrt(15) / 18 * 1j) * a5 * b5)
    m5 = maier_classify(hp5)
    assert m5 is not None and m5.case_id == 5


def test_reduce_case1_rejects_wrong_shape():
    hp = HeunParams(2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 0.3)  # q != alpha beta
    with pytest.raises(ValidationError):
        reduce_case1(hp)
    red = to_heun("coulomb", P_EQ, ASYM, energy=0.9)  # gamma != epsilon
    with pytest.raises(ValidationError):
        reduce_case1(red.heun)


def test_pullback_residual_pinned_bit_for_bit():
    # z = t(2 - t) has one home, HypergeomParams.z_of_t; the residual on the
    # default sample points stays the same to the bit
    match = maier_classify(to_heun("coulomb", P_EQ, SYM, energy=0.9).heun)
    assert case1_pullback_residual(match.normalized).hex() == "0x1.227f02338f5eep-42"
    red = to_heun("oscillator", P_EQ, SYM, energy=2.0)
    assert case1_pullback_residual(red.heun).hex() == "0x1.a000000000000p-44"


def test_z_of_t_is_symmetric_about_one():
    for t in (0.3, 0.8, 1.2 + 0.4j):
        assert HypergeomParams.z_of_t(t) == pytest.approx(
            HypergeomParams.z_of_t(2.0 - t)
        )
