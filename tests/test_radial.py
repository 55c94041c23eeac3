"""Coefficient tables, radial Hamiltonian pieces, and the spectral equation."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sphere_twobody import (
    AlgebraLabel,
    KIND_COULOMB,
    KIND_OSCILLATOR,
    PhysicalParams,
    ValidationError,
    build_ladder_rep,
    classify_common_eigenvectors,
    coefficients_from_record,
    coulomb_exponents,
    hamiltonian_ABC,
    oscillator_exponents,
    potential,
    radial_coefficients,
    spectral_ode,
    valid_cases,
)
from sphere_twobody import radial
from sphere_twobody.radial import _pole_root, endpoint_root, wall_root
from sphere_twobody.spectra import closed_form_energy
from sphere_twobody.suites import _N_VALUES, _level_cases


def test_params_validation():
    with pytest.raises(ValidationError):
        PhysicalParams(1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(3, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(3, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(3, 1.0, 1.0, 1.0, float("nan"))
    # m R^2 is subnormal, 0.0, subnormal, inf
    for m1, m2, radius in ((1e-300, 1e-300, 1e-10), (1.0, 1.0, 1e-200), (1.0, 1e-310, 1.0),
                           (1e200, 1e200, 1e100)):
        with pytest.raises(ValidationError, match="positive normal float"):
            PhysicalParams(3, m1, m2, radius, 1.0)
    p = PhysicalParams(3, 1.0, 3.0, 1.0, 1.0)
    assert p.reduced_mass == pytest.approx(0.75)
    assert not p.equal_masses
    with pytest.raises(ValidationError):  # _replace checks like the constructor
        p._replace(radius=0.0)
    with pytest.raises(AttributeError):  # records are immutable
        p.radius = 2.0


def test_known_coefficient_triples():
    co = radial_coefficients(4, 1, 2)
    assert (co.a, co.b, co.c) == (1, 2, 1)
    co = radial_coefficients(2, 1)
    assert (co.a, co.b, co.c) == (0, 0, 0)
    co = radial_coefficients(3, 1, 0)
    assert (co.a, co.b, co.c) == (0, 0, 0)
    co = radial_coefficients(2, 5)
    assert (co.a, co.b, co.c) == (Fraction(1, 8), Fraction(3, 4), Fraction(1, 8))


def test_case_table_validation():
    assert valid_cases(2) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert valid_cases(5) == (1, 2, 3, 4)
    with pytest.raises(ValidationError):
        radial_coefficients(3, 9, 1)
    with pytest.raises(ValidationError):
        radial_coefficients(3, 1, None)  # mk required for n >= 3
    with pytest.raises(ValidationError):
        radial_coefficients(4, 4, 1)  # case 4 needs mk >= 2
    with pytest.raises(ValidationError):
        radial_coefficients(2, 5, 1)  # n=2 case 5 carries m=2


# inputs radial_coefficients rejects, with the text it gave before its triples were cached
_BAD_COEFFICIENT_INPUTS = [
    ((1, 1, 1), "sphere dimension must be an integer >= 2, got 1"),
    ((True, 1, 1), "sphere dimension must be an integer >= 2, got True"),
    ((3, 5, 1), "case 5 does not exist for n=3"),
    ((3, 1, None), "mk is required for n >= 3"),
    ((3, 4, 1), "case 4 needs integer mk >= 2, got 1"),
    ((3, 4, 2.0), "case 4 needs integer mk >= 2, got 2.0"),
    ((3, 1, True), "case 1 needs integer mk >= 0, got True"),
    ((4, 2, True), "case 2 needs integer mk >= 1, got True"),
    ((2, 2, 0), "n=2 case 2 carries m=1, got mk=0"),
]


def test_coefficient_errors_unchanged_by_the_cache():
    def messages():
        out = []
        for args, _ in _BAD_COEFFICIENT_INPUTS:
            with pytest.raises(ValidationError) as info:
                radial_coefficients(*args)
            out.append(str(info.value))
        return out

    radial._sector_coefficients.cache_clear()
    before = messages()
    # cache the sectors the bad inputs sit next to: 2.0 and True hash like 2 and 1
    first = [radial_coefficients(*args) for args in ((3, 4, 2), (3, 1, 1), (2, 2, None))]
    hits = radial._sector_coefficients.cache_info().hits
    assert radial_coefficients(3, 4, 2) is first[0]
    assert radial._sector_coefficients.cache_info().hits == hits + 1
    assert messages() == before == [text for _, text in _BAD_COEFFICIENT_INPUTS]


def test_n2_mk_must_be_an_int_before_and_after_a_cache_hit():
    # 1.0 and True equal case 2's m = 1 and hash like it, so the check must
    # come before the triple's cache
    radial._sector_coefficients.cache_clear()
    for cached in (False, True):
        for bad in (1.0, True):
            with pytest.raises(ValidationError, match=f"n=2 case 2 needs integer mk, got {bad}"):
                radial_coefficients(2, 2, bad)
        assert radial_coefficients(2, 2, 1) is radial_coefficients(2, 2)
        assert radial._sector_coefficients.cache_info().currsize == 1, cached
    with pytest.raises(ValidationError, match="n=2 case 1 needs integer mk, got 0.0"):
        radial_coefficients(2, 1, 0.0)


def test_symmetry_flags():
    assert radial_coefficients(4, 1, 2).symmetric
    assert radial_coefficients(4, 4, 3).symmetric
    assert not radial_coefficients(4, 2, 2).symmetric
    assert not radial_coefficients(2, 6).symmetric


# Reference for `radial_coefficients`, kept independent of `ladder._rows`:
# n = 2 case -> (m, a, b, c, mass mode), and for n >= 3 the eigenvalue
# polynomials of the last weight entry mk.
_F = Fraction
_N2_REFERENCE = {
    1: (0, _F(0), _F(0), _F(0), "arbitrary"),
    2: (1, _F(1, 8), _F(1, 4), _F(1, 8), "arbitrary"),
    3: (1, _F(1, 8), _F(1, 4), _F(0), "equal"),
    4: (1, _F(0), _F(1, 4), _F(1, 8), "equal"),
    5: (2, _F(1, 8), _F(3, 4), _F(1, 8), "equal"),
    6: (2, _F(1, 2), _F(3, 4), _F(1, 8), "equal"),
    7: (2, _F(1, 8), _F(3, 4), _F(1, 2), "equal"),
    8: (3, _F(1, 2), _F(3, 2), _F(1, 2), "equal"),
}


def _reference_triple(n, case_id, mk):
    """(a, b, c, mass mode, next-to-last carrier entry) for n >= 3."""
    k = (n + 1) // 2  # the rank of so(n+1)
    if n % 2 == 0:  # so(2k+1)
        poly = _F(mk * (mk + 2 * k - 2))
        qpoly = _F(mk * mk + 2 * (k - 2) * mk - 2 * k + 3)
    else:  # so(2k)
        poly = _F(mk * (mk + 2 * k - 3))
        qpoly = _F(mk * mk + (2 * k - 5) * mk - 2 * k + 4)
    if case_id == 1:
        return poly / 8, poly / 4, poly / 8, "arbitrary", mk
    if case_id == 2:
        return poly / 8, (1 + poly + qpoly) / 8, qpoly / 8, "equal", mk - 1
    if case_id == 3:
        return qpoly / 8, (1 + poly + qpoly) / 8, poly / 8, "equal", mk - 1
    return qpoly / 8, (4 + 2 * qpoly) / 8, qpoly / 8, "equal", mk - 2


def test_radial_coefficients_match_the_reference_table():
    for case_id, (m, a, b, c, mode) in _N2_REFERENCE.items():
        for mk in (None, m):
            co = radial_coefficients(2, case_id, mk)
            assert (co.a, co.b, co.c, co.mass_mode, co.carrier.coeffs) == (a, b, c, mode, (m,))
            assert all(type(x) is Fraction for x in (co.a, co.b, co.c))
        with pytest.raises(ValidationError, match=f"carries m={m}, got mk={m + 1}"):
            radial_coefficients(2, case_id, m + 1)
    checked = 0
    for n in range(3, 9):
        for case_id in (1, 2, 3, 4):
            least = (0, 1, 1, 2)[case_id - 1]
            with pytest.raises(ValidationError, match=f"needs integer mk >= {least}"):
                radial_coefficients(n, case_id, least - 1)
            for mk in range(least, 7):
                co = radial_coefficients(n, case_id, mk)
                a, b, c, mode, mk1 = _reference_triple(n, case_id, mk)
                assert (co.a, co.b, co.c, co.mass_mode) == (a, b, c, mode), (n, case_id, mk)
                assert all(type(x) is Fraction for x in (co.a, co.b, co.c))
                assert co.carrier.coeffs == (0,) * (co.carrier.algebra.rank - 2) + (mk1, mk)
                checked += 1
    assert checked == 6 * (7 + 6 + 6 + 5)


def _sector_list(symmetric):
    sectors = [(2, case_id, None) for case_id in range(1, 9)]
    sectors += [(n, case_id, mk) for n in range(3, 7) for case_id in (1, 2, 3, 4)
                for mk in range(case_id // 2, 4)]
    return [s for s in sectors if radial_coefficients(*s).symmetric == symmetric]


def _draws(symmetric, count, seed):
    """Seeded (kind, params, coeffs, energy) over the benchmark's ranges and beyond."""
    rng = random.Random(seed)
    sectors = _sector_list(symmetric)
    for _ in range(count):
        kind = rng.choice([KIND_COULOMB, KIND_OSCILLATOR])
        coeffs = radial_coefficients(*rng.choice(sectors))
        m1 = rng.uniform(0.2, 5.0)
        m2 = m1 if coeffs.mass_mode == "equal" or rng.random() < 0.3 else rng.uniform(0.2, 5.0)
        coupling = rng.choice([0.0, -1.0, rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)])
        params = PhysicalParams(coeffs.n, m1, m2, 10 ** rng.uniform(-3.0, 2.5), coupling)
        yield kind, params, coeffs, rng.uniform(-20.0, 50.0)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_pole_root_keeps_the_closed_form_bits_where_a_equals_c():
    """On a = c the pole root has the bits of the a = c forms 2a - b and 16a - 8b."""
    def levels(kind):
        for _, (params, coeffs, k) in _level_cases(kind, _N_VALUES, lambda *row: row):
            yield kind, params, coeffs, closed_form_energy(kind, params, coeffs, k)

    cases = [*levels(KIND_COULOMB), *levels(KIND_OSCILLATOR), *_draws(True, 2000, 2404)]
    for kind, params, coeffs, E in cases:
        n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
        a, b = float(coeffs.a), float(coeffs.b)
        if kind == KIND_COULOMB:
            want = cmath.sqrt((n - 1) ** 2 + 8.0 * (m * E * R * R + 1j * m * R * g + 2.0 * a - b))
        else:
            want = cmath.sqrt((n - 1) ** 2 + 8.0 * m * E * R * R + 4.0 * m * R ** 4 * g * g
                              + 16.0 * a - 8.0 * b)
        got = _pole_root(kind, params, coeffs, E, -1)
        assert _bits(got) == _bits(want), (kind, params, E)
        if kind == KIND_OSCILLATOR:  # the same root at both poles
            assert _bits(_pole_root(kind, params, coeffs, E, 1)) == _bits(got)
    assert len(cases) == 2 * 45 + 2000  # 45 grid levels per kind, then the draws


def _old_pole_exponents(kind, params, coeffs, E, sign):
    """The exponent pair at r = sign i in the `a - b + c` form, with the terms' magnitude."""
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if kind == KIND_COULOMB:
        disc = (n - 1) ** 2 + 8.0 * (m * E * R * R - sign * 1j * m * R * g + a - b + c)
        terms = (n - 1) ** 2 + 8.0 * (abs(m * E * R * R) + abs(m * R * g) + a + b + c)
    else:
        disc = (n - 1) ** 2 + 8.0 * m * E * R * R + 4.0 * m * R ** 4 * g * g + 8.0 * (a - b + c)
        terms = ((n - 1) ** 2 + 8.0 * abs(m * E * R * R) + 4.0 * m * R ** 4 * g * g
                 + 8.0 * (a + b + c))
    s = cmath.sqrt(complex(disc))
    return ((n - 1 + s) / 2.0, (n - 1 - s) / 2.0), s, terms


def test_pole_exponents_of_asymmetric_sectors_move_only_by_rounding():
    """a != c: the exponents at +-i stay within 4 ulp of s of the `a - b + c` form,
    or within 4 ulp of the largest term of s^2 carried through the root,
    ulp(term) / (2 |s|) per ulp, where that is larger: the discriminant
    nearly cancels there, and the two forms round it at different terms.
    """
    # from a CLI sweep: R = 1e-3 leaves s^2 = (n-1)^2 + 8 (a + c - b) + O(1e-5)
    near_zero = [(KIND_OSCILLATOR, PhysicalParams(2, 1.7, 1.7, 1e-3, 1.0), (2, 3, None), 25.008),
                 (KIND_OSCILLATOR, PhysicalParams(2, 0.3, 0.3, 1e-3, 0.25), (2, 6, None),
                  -4.487419214543795)]
    cases = [(kind, params, radial_coefficients(*sector), E)
             for kind, params, sector, E in near_zero]
    cases += list(_draws(False, 2000, 2405))
    for kind, params, coeffs, E in cases:
        exponents = coulomb_exponents if kind == KIND_COULOMB else oscillator_exponents
        at = {p.location: p.exponents for p in exponents(params, coeffs, E).points}
        for sign in (1, -1):
            want, s, terms = _old_pole_exponents(kind, params, coeffs, E, sign)
            s_tol = 4.0 * max(math.ulp(abs(s)), math.ulp(terms) / (2.0 * abs(s)))
            for got_e, want_e in zip(at[sign * 1j], want):
                tol = s_tol / 2.0 + math.ulp(abs(want_e))
                assert abs(got_e - want_e) <= tol, (kind, params, coeffs.case_id, E, sign)


def test_oscillator_pole_root_raises_where_r4_overflows():
    co = radial_coefficients(3, 2, 1)
    params = PhysicalParams(3, 1.0, 1.0, 1e80, 1.0)
    with pytest.raises(ValidationError, match="R\\^4 overflows"):
        _pole_root(KIND_OSCILLATOR, params, co, 1.0)
    assert _pole_root(KIND_COULOMB, params, co, 1.0) != 0.0  # no R^4 on the Coulomb side


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tables_match_eigenvalue_map(n):
    """Every classified record maps to its case's `radial_coefficients`, carrier included."""
    alg = AlgebraLabel("B", n // 2) if n % 2 == 0 else AlgebraLabel("D", (n + 1) // 2)
    k = alg.rank
    signed = alg.series == "D" and k == 2  # only so(4) carries signed weights
    weights = []
    if n == 2:
        weights = [(m,) for m in range(4)]
    else:
        for mk in range(5):
            mk1s = {mk, mk - 1, mk - 2}
            if signed:
                mk1s |= {-(mk - 1), -(mk - 2)}
            for mk1 in mk1s:
                if (mk1 >= 0 or signed) and abs(mk1) <= mk:
                    weights.append((0,) * (k - 2) + (mk1, mk))
    checked = 0
    for w in weights:
        rep = build_ladder_rep(alg, w)
        for rec in classify_common_eigenvectors(rep, n):
            got = coefficients_from_record(rec)
            want = radial_coefficients(n, rec.case_id, None if n == 2 else w[-1])
            assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
            assert got.mass_mode == want.mass_mode
            # carrier agrees up to the sign of the next-to-last entry (the
            # mirrored so(4) module has the same dimension)
            assert [abs(x) for x in got.carrier.coeffs] == [
                abs(x) for x in want.carrier.coeffs
            ]
            checked += 1
    assert checked > 0


def test_kinetic_coefficients_identities():
    rs = np.linspace(0.05, 3.0, 40)
    eq = PhysicalParams(4, 2.0, 2.0, 1.3, 1.0)
    A, B, C = hamiltonian_ABC(eq)
    m = eq.reduced_mass
    for r in rs:
        assert B(r) == pytest.approx(0.0, abs=1e-14)
        want = (1 + r * r) ** 2 / (4 * m * eq.radius ** 2 * r * r)
        assert A(r) + C(r) == pytest.approx(want, rel=1e-13)

    uneq = PhysicalParams(4, 1.0, 3.0, 1.3, 1.0)
    A, B, C = hamiltonian_ABC(uneq)
    m = uneq.reduced_mass
    assert max(abs(B(r)) for r in rs) > 1e-3  # B only vanishes at equal masses
    for r in rs:
        want = (1 + r * r) ** 2 / (4 * m * uneq.radius ** 2 * r * r)
        assert A(r) + C(r) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValidationError):
        hamiltonian_ABC(eq, alpha=1.5)


def test_potentials():
    p = PhysicalParams(3, 2.0, 2.0, 2.0, 1.5)
    Vc = potential(KIND_COULOMB, p)
    assert Vc(1.0) == 0.0  # equator
    assert Vc(0.01) < -30  # attractive well toward r = 0
    Vo = potential(KIND_OSCILLATOR, p)
    assert Vo(0.5) == pytest.approx(2 * 4 * 1.5 ** 2 * 0.25 / 0.5625)
    assert Vo(0.999) > 1e5  # wall at the equator


def test_spectral_ode_equal_mass_guard():
    co = radial_coefficients(3, 2, 1)  # equal-mass case
    with pytest.raises(ValidationError):
        spectral_ode(KIND_COULOMB, PhysicalParams(3, 1.0, 2.0, 1.0, 1.0), co, 0.5)
    # arbitrary-mass case accepts unequal masses
    co1 = radial_coefficients(3, 1, 1)
    spectral_ode(KIND_COULOMB, PhysicalParams(3, 1.0, 2.0, 1.0, 1.0), co1, 0.5)


def test_spectral_ode_matches_displayed_coefficients():
    params = PhysicalParams(3, 2.0, 2.0, 1.0, 1.0)
    co = radial_coefficients(3, 1, 1)
    E = 1.2
    p, q = spectral_ode(KIND_COULOMB, params, co, E)
    m, R, g = params.reduced_mass, params.radius, params.coupling
    a, b, c = float(co.a), float(co.b), float(co.c)
    n = 3
    for r in (0.2, 0.7, 1.4):
        want_p = (n - 1 + (3 - n) * r * r) / ((1 + r * r) * r)
        V = (g / (2 * R)) * (r - 1 / r)
        want_q = (8 / (1 + r * r) ** 2) * (
            m * R * R * (E - V) - a / (r * r) - b - c * r * r
        )
        assert p(r) == pytest.approx(want_p, rel=1e-14)
        assert q(r) == pytest.approx(want_q, rel=1e-14)


@pytest.mark.parametrize("kind", [KIND_COULOMB, KIND_OSCILLATOR])
@pytest.mark.parametrize("params, sector", [
    (PhysicalParams(3, 2.0, 2.0, 1.0, 1.0), (3, 1, 1)),
    (PhysicalParams(4, 1.3, 1.3, 0.7, 2.9), (4, 3, 2)),
    (PhysicalParams(2, 0.3, 5.0, 3.1, 0.45), (2, 1, None)),
])
def test_spectral_ode_q_is_bit_identical_to_the_potential_form(kind, params, sector):
    # q calls `potential`: the same operations in the same order as the form below
    co = radial_coefficients(*sector)
    m, R = params.reduced_mass, params.radius
    a, b, c = float(co.a), float(co.b), float(co.c)
    V = potential(kind, params)
    for E in (-3.7, 0.0, 1.25, 41.0):
        _, q = spectral_ode(kind, params, co, E)
        for r in (1e-5, 0.013, 0.3, 0.5, 0.71, 0.999, 1.0 - 1e-5, 1.7, 40.0):
            if kind == KIND_OSCILLATOR and r >= 1.0:
                continue
            want = (8.0 / (1 + r * r) ** 2) * (m * R * R * (E - V(r)) - a / (r * r) - b - c * r * r)
            assert q(r) == want, (E, r)


def test_reduced_mass_matches_mpmath_where_the_product_overflows_or_underflows():
    mpmath = pytest.importorskip("mpmath")
    for m1, m2 in ((1e200, 1e200), (1e300, 3e250), (1.7e308, 1.0e308), (1e-300, 1e-300),
                   (3e-200, 7e-170), (1e-300, 1e-10), (2.5e-160, 4e-160), (1.0, 3.0), (2.0, 2.0), (0.3, 5.0)):
        for x, y in ((m1, m2), (m2, m1)):
            got = PhysicalParams(3, x, y, 1.0, 1.0).reduced_mass
            want = mpmath.mpf(x) * mpmath.mpf(y) / (mpmath.mpf(x) + mpmath.mpf(y))
            assert math.isfinite(got) and got > 0.0
            assert abs(got - want) <= 1e-15 * want, (x, y)
    # where the direct formula gives a normal float, it is used bit for bit
    for m1, m2 in ((1.0, 3.0), (0.3, 5.0), (1e150, 1e150), (1e-150, 3e-100), (7.0, 1e-300)):
        assert PhysicalParams(3, m1, m2, 1.0, 1.0).reduced_mass == m1 * m2 / (m1 + m2)
    # m R^2 = 5e199 is a normal float: the spectrum exists
    assert PhysicalParams(3, 1e200, 1e200, 1.0, 1.0).reduced_mass == 5e199


def test_indicial_roots():
    assert endpoint_root(3, 0.25) == 3.0  # sqrt(1 + 8)
    assert endpoint_root(2, 0.0) == 0.0
    # reduced mass, radius and frequency 1: W = sqrt(1 + 4)
    assert wall_root(PhysicalParams(2, 2.0, 2.0, 1.0, 1.0)) == math.sqrt(5.0)
    # a hand-built triple below the table's range has complex exponents
    with pytest.raises(ValidationError):
        endpoint_root(3, -1.0)
