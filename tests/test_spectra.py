"""Closed-form levels, eigenfunctions, and spectrum reports."""

import contextlib
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_twobody import (
    ConvergenceError,
    PhysicalParams,
    ValidationError,
    branch_residuals,
    closed_form_energy,
    coulomb_energy,
    oscillator_energy,
    radial_coefficients,
    ode_residual,
    radial_eigenfunction,
    spectral_ode,
    spectrum,
    weyl_dim,
)
from sphere_twobody import spectra
from sphere_twobody.cli import main
from sphere_twobody.radial import sample_radii

UNIT = {n: PhysicalParams(n, 2.0, 2.0, 1.0, 1.0) for n in (2, 3, 4, 5)}


def test_coulomb_free_series_n3():
    # a = b = c = 0, reduced mass = radius = coupling = 1:
    # E_k = (k^2 - 1)/2 - 1/(2 k^2)
    co = radial_coefficients(3, 1, 0)
    for k in (1, 2, 3, 5):
        want = (k * k - 1) / 2.0 - 1.0 / (2.0 * k * k)
        assert coulomb_energy(UNIT[3], co, k) == pytest.approx(want, abs=1e-14)


def test_oscillator_ground_state_n2():
    co = radial_coefficients(2, 1)
    want = 0.5 + math.sqrt(5.0) / 2.0
    assert oscillator_energy(UNIT[2], co, 0) == pytest.approx(want, abs=1e-14)


def test_oscillator_integer_level_unequal_masses():
    # n = 3, case 1, m_k = 1 with masses 1 and 3 lands exactly on 7
    p = PhysicalParams(3, 1.0, 3.0, 1.0, 1.0)
    co = radial_coefficients(3, 1, 1)
    assert oscillator_energy(p, co, 0) == pytest.approx(7.0, abs=1e-12)


def test_oscillator_spacing_strictly_increasing():
    co = radial_coefficients(4, 1, 2)
    E = [oscillator_energy(UNIT[4], co, k) for k in range(8)]
    gaps = [b - a for a, b in zip(E, E[1:])]
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_oscillator_flat_space_limit():
    # R -> oo with a = 0: E_k -> (omega / (2 sqrt(m))) (4k + 2 + n - 2),
    # with corrections in even powers of 1/R; one Richardson step removes
    # the 1/R^2 term.
    n, w = 5, 0.9
    co = radial_coefficients(n, 1, 0)
    m = 0.5  # equal masses 1.0
    for k in (0, 1, 3):
        E1 = oscillator_energy(PhysicalParams(n, 1.0, 1.0, 100.0, w), co, k)
        E2 = oscillator_energy(PhysicalParams(n, 1.0, 1.0, 200.0, w), co, k)
        extrap = (4.0 * E2 - E1) / 3.0
        want = (w / (2.0 * math.sqrt(m))) * (4 * k + 2 + n - 2)
        assert extrap == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("kind,k0", [("coulomb", 1), ("oscillator", 0)])
def test_branch_residuals_vanish_on_levels(kind, k0):
    for n in (2, 3, 5):
        mk = None if n == 2 else 2
        co = radial_coefficients(n, 1, mk)
        for k in (k0, k0 + 2):
            res = branch_residuals(kind, UNIT[n], co, k)
            assert set(res) == {"stated_branch", "imag_energy"}
            assert max(res.values()) < 1e-9, res


def test_branch_residuals_detect_off_eigenvalue_energy():
    co = radial_coefficients(3, 1, 1)
    for kind, k in (("oscillator", 1), ("coulomb", 2)):
        E = closed_form_energy(kind, UNIT[3], co, k)
        res = branch_residuals(kind, UNIT[3], co, k, energy=E + 0.05)
        assert set(res) == {"stated_branch", "imag_energy"}
        assert res["stated_branch"] > 1e-3


@pytest.mark.parametrize("kind,k0", [("coulomb", 1), ("oscillator", 0)])
def test_eigenfunction_ode_residual(kind, k0):
    pts = (0.2, 0.45, 0.7, 0.9) if kind == "oscillator" else (0.3, 0.8, 1.7, 4.0)
    for n, mk in ((2, None), (4, 2)):
        co = radial_coefficients(n, 1, mk)
        for k in (k0, k0 + 1, k0 + 2):
            fn = radial_eigenfunction(kind, UNIT[n], co, k)
            p, q = spectral_ode(kind, UNIT[n], co, fn.energy)
            for r in pts:
                # the method applies the oracle's scaled-residual rule
                assert fn.ode_residual(r) == ode_residual(p, q, fn.jet, [r])
                assert fn.ode_residual(r) < 1e-9


@pytest.mark.parametrize("kind,k0", [("coulomb", 1), ("oscillator", 0)])
def test_eigenfunction_dual_evaluation(kind, k0):
    r = 0.6 if kind == "oscillator" else 1.4
    co = radial_coefficients(5, 4, 2)
    for k in (k0, k0 + 2):
        fn = radial_eigenfunction(kind, UNIT[5], co, k)
        direct = fn(r)
        via = fn.hypergeometric_value(r)
        assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


def test_jet_matches_value_and_finite_differences():
    co = radial_coefficients(3, 1, 1)
    fn = radial_eigenfunction("oscillator", UNIT[3], co, 2)
    r, h = 0.55, 1e-6
    f, df, d2f = fn.jet(r)
    assert f == pytest.approx(fn(r), rel=1e-12)
    fd1 = (fn(r + h) - fn(r - h)) / (2 * h)
    assert df == pytest.approx(fd1, rel=1e-8)


def test_coulomb_first_level_prefactor_only():
    # k = 1: the terminating sum has a single term, so f divided by the
    # prefactor is the same constant at every radius
    co = radial_coefficients(4, 1, 1)
    fn = radial_eigenfunction("coulomb", UNIT[4], co, 1)
    assert fn._data.d == 0
    rho0, rho_i = fn._data.rho0, fn._data.rho1

    def pre(r):
        return r ** rho0 * (r - 1j) ** rho_i * (r + 1j) ** (-(2.0 * rho0 + rho_i))

    vals = [fn(r) / pre(r) for r in (0.4, 1.1, 2.7)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_oscillator_values_real_up_to_phase():
    co = radial_coefficients(2, 5)
    fn = radial_eigenfunction("oscillator", UNIT[2], co, 2)
    base = fn(0.37)
    for r in (0.2, 0.52, 0.81):
        ratio = fn(r) / base
        assert abs(ratio.imag) < 1e-12 * max(1.0, abs(ratio))


def test_coulomb_complex_parameters_cancel_on_level():
    # the 2F1 data are genuinely complex (coupling enters as i m R g), yet
    # on a level the value is real up to a constant global phase
    co = radial_coefficients(3, 1, 1)
    fn = radial_eigenfunction("coulomb", UNIT[3], co, 2)
    assert abs(fn._data.b.imag) > 0.05  # half of Im u
    assert abs(fn._data.rho1.imag) > 0.1
    base = fn(0.9)
    for r in (0.3, 1.3, 3.2):
        ratio = fn(r) / base
        assert abs(ratio.imag) < 1e-10 * max(1.0, abs(ratio))


def test_norm_squared_quadrature_stable():
    for kind, k in (("coulomb", 2), ("oscillator", 1)):
        co = radial_coefficients(3, 1, 1)
        fn = radial_eigenfunction(kind, UNIT[3], co, k)
        lo, hi = fn.norm_squared(nodes=240), fn.norm_squared(nodes=480)
        assert lo > 0
        assert abs(hi - lo) <= 1e-8 * abs(lo)


def test_spectrum_report_multiplicities_and_checks():
    co = radial_coefficients(5, 4, 2)
    rep = spectrum("oscillator", UNIT[5], co, 0, 3)
    assert not rep.numeric_only
    assert [lv.k for lv in rep.levels] == [0, 1, 2, 3]
    mult = weyl_dim(co.carrier.algebra, co.carrier)
    assert all(lv.multiplicity == mult for lv in rep.levels)
    assert all(lv.branch_check for lv in rep.levels)
    doc = rep.to_dict()
    assert doc["kind"] == "oscillator"
    assert doc["case"] == 4
    assert doc["mk"] == 2
    assert doc["numeric_only"] is False
    assert [lv["k"] for lv in doc["levels"]] == [0, 1, 2, 3]
    assert all(lv["verified"] is True for lv in doc["levels"])


def test_spectrum_asymmetric_is_numeric_only():
    co = radial_coefficients(4, 2, 2)
    rep = spectrum("coulomb", UNIT[4], co, 1, 3)
    assert rep.numeric_only
    assert rep.levels == ()
    assert rep.to_dict()["levels"] == []


def test_level_index_validation():
    co = radial_coefficients(3, 1, 0)
    with pytest.raises(ValidationError):
        coulomb_energy(UNIT[3], co, 0)
    with pytest.raises(ValidationError):
        oscillator_energy(UNIT[3], co, -1)
    with pytest.raises(ValidationError):
        closed_form_energy("coulomb", UNIT[3], co, 1.5)
    with pytest.raises(ValidationError):
        spectrum("coulomb", UNIT[3], co, 3, 1)


def test_closed_form_requires_symmetric_coefficients():
    asym = radial_coefficients(3, 2, 1)
    with pytest.raises(ValidationError):
        coulomb_energy(UNIT[3], asym, 1)
    with pytest.raises(ValidationError):
        radial_eigenfunction("oscillator", UNIT[3], asym, 0)
    with pytest.raises(ValidationError):
        branch_residuals("coulomb", UNIT[3], asym, 1)


def test_equal_mass_cases_reject_unequal_masses():
    asym_masses = PhysicalParams(3, 1.0, 2.0, 1.0, 1.0)
    co = radial_coefficients(3, 4, 2)  # equal-mass-only eigenvector
    with pytest.raises(ValidationError):
        spectrum("oscillator", asym_masses, co, 0, 2)


# ------------------------------------------------ the recurrence kernel

REF_DIGITS = 40
KERNEL_KS = {"coulomb": (1, 5, 20, 40, 80, 150), "oscillator": (0, 5, 20, 40, 80, 150)}
KERNEL_RADII = {"coulomb": (0.3, 0.7, 2.5), "oscillator": (0.2, 0.45, 0.8)}
KERNEL_SECTORS = {2: None, 3: 1, 5: 2}  # n -> mk, case 1


def _reference(kind, params, coeffs, k, energy):
    """r -> prefactor(r) 2F1(-d, b; c; z(r)) / d! with mpmath's hyp2f1.

    The 2F1 data are rebuilt in mpmath from the physical parameters and the
    float energy, so nothing but the energy is shared with the package.
    """
    mp = mpmath
    n, m = params.n, mp.mpf(params.reduced_mass)
    R, g = mp.mpf(params.radius), mp.mpf(params.coupling)
    a, b = (mp.mpf(x.numerator) / x.denominator for x in (coeffs.a, coeffs.b))
    E = mp.mpf(energy)
    A = mp.sqrt((n - 2) ** 2 + 32 * a)
    rho0 = (2 - n + A) / 2
    if kind == "coulomb":
        u = mp.sqrt((n - 1) ** 2 + 8 * (m * E * R * R + 1j * m * R * g + 2 * a - b))
        d, bb, c = k - 1, (1 + A) / 2 + 0.5j * mp.im(u), 1 + A
        rho_i = ((n - 1) - mp.conj(u)) / 2

        def f(r):
            pre = r ** rho0 * (r - 1j) ** rho_i * (r + 1j) ** (-(2 * rho0 + rho_i))
            return pre * mp.hyp2f1(-d, bb, c, 4j * r / (r + 1j) ** 2) / mp.factorial(d)
    else:
        W = mp.sqrt(1 + 4 * m * R ** 4 * g * g)
        s = mp.sqrt((n - 1) ** 2 + 8 * m * E * R * R + 4 * m * R ** 4 * g * g + 16 * a - 8 * b)
        d, bb, c, rho1 = k, (2 + A + W + s) / 4, 1 + A / 2, (1 + W) / 2

        def f(r):
            pre = r ** rho0 * (1 - r * r) ** rho1 * (r * r + 1) ** (-(rho0 + rho1))
            return pre * mp.hyp2f1(-d, bb, c, 4 * r * r / (r * r + 1) ** 2) / mp.factorial(d)

    return f


def _kernel_cases():
    for kind, ks in KERNEL_KS.items():
        for n in KERNEL_SECTORS:
            for k in ks:
                yield kind, n, k


@pytest.mark.parametrize("kind,n,k", list(_kernel_cases()))
def test_kernel_matches_mpmath(kind, n, k):
    """Values, first derivatives and the vectorised path against mpmath.

    Errors are measured against the local amplitude max(|f|, |f'|/(k+1)):
    near one of the k nodes |f| itself is no scale, since rounding z(r) in
    its last bit already moves f by about |f'| ulp(r) there (at Coulomb
    k = 150, n = 5 a node lies within 1e-3 of r = 0.7).
    """
    co = radial_coefficients(n, 1, KERNEL_SECTORS[n])
    fn = radial_eigenfunction(kind, UNIT[n], co, k)
    rs = KERNEL_RADII[kind]
    vec = fn._evaluate(np.array(rs))
    with mpmath.workdps(REF_DIGITS):
        ref = _reference(kind, UNIT[n], co, k, fn.energy)
        for r, v in zip(rs, vec):
            want = complex(ref(mpmath.mpf(r)))
            dwant = complex(mpmath.diff(ref, mpmath.mpf(r)))
            amp = max(abs(want), abs(dwant) / (k + 1))
            got = fn(r)
            assert abs(got - want) <= 1e-12 * amp, (r, got, want)
            # the array path takes the same steps with numpy's rounding
            assert abs(v - got) <= 1e-12 * amp, (r, v, got)
            df = fn.jet(r)[1]
            assert abs(df - dwant) <= 1e-12 * (k + 1) * amp, (r, df, dwant)


@pytest.mark.parametrize("kind,n,k", [c for c in _kernel_cases() if c[2] <= 40])
def test_kernel_norm_quadrature_stable(kind, n, k):
    fn = radial_eigenfunction(kind, UNIT[n], radial_coefficients(n, 1, KERNEL_SECTORS[n]), k)
    lo, hi = fn.norm_squared(240), fn.norm_squared(480)
    assert lo > 0.0
    assert abs(hi - lo) <= 1e-8 * lo


@pytest.mark.parametrize("k", [80, 150])
def test_coulomb_high_k_norm_finite(k):
    # the outer quadrature nodes reach r ~ 1e5, where (r + i) to a power of order k overflows;
    # by k = 150 |f|^2 underflows instead, and norm_squared raises rather than return 0.0
    fn = radial_eigenfunction("coulomb", UNIT[3], radial_coefficients(3, 1, 1), k)
    with np.errstate(over="raise", invalid="raise"):
        if k < 100:
            assert math.isfinite(fn.norm_squared(480))
        else:
            with pytest.raises(ConvergenceError, match="norm quadrature"):
                fn.norm_squared(480)
    assert math.isfinite(abs(fn(1e5)))


def test_coulomb_high_k_verified_only_when_accurate():
    """k = 34..40 at r0 = 0.7, where |f| is about 1e-48, far below an
    absolute floor such as 1e-30 that would make the residual test absolute.
    `verified` vouches for the recurrence value, not for the term-by-term
    sum of `hypergeometric_value`, which is 29 % off at k = 34."""
    params = PhysicalParams(3, 1.0, 1.0, 1.0, 1.0)
    co = radial_coefficients(3, 1, 1)
    for level in spectrum("coulomb", params, co, 34, 40).levels:
        if not level.branch_check:
            continue
        fn = radial_eigenfunction("coulomb", params, co, level.k)
        with mpmath.workdps(REF_DIGITS):
            want = complex(_reference("coulomb", params, co, level.k, fn.energy)(mpmath.mpf(0.7)))
        got = fn(0.7)
        assert abs(got - want) <= 1e-10 * abs(want), (level.k, got, want)


# ------------------------------------------------ the verified flag at high k

UNIT_MASSES = PhysicalParams(3, 1.0, 1.0, 1.0, 1.0)  # masses, radius and coupling all 1
KINDS = ("coulomb", "oscillator")


def _mpmath_value(kind, params, coeffs, k, energy, r):
    """(f(r), f'(r)) from the mpmath reference."""
    with mpmath.workdps(REF_DIGITS):
        ref = _reference(kind, params, coeffs, k, energy)
        return complex(ref(mpmath.mpf(r))), complex(mpmath.diff(ref, mpmath.mpf(r)))


@pytest.mark.parametrize("kind", KINDS)
def test_spectrum_verified_through_k150(kind):
    co = radial_coefficients(3, 1, 1)
    rep = spectrum(kind, UNIT_MASSES, co, spectra.K_MIN[kind], 150)
    assert [lv.k for lv in rep.levels if not lv.branch_check] == []
    r0 = spectra._R0[kind]
    for k in (11, 20, 60, 150):
        fn = radial_eigenfunction(kind, UNIT_MASSES, co, k)
        want, _ = _mpmath_value(kind, UNIT_MASSES, co, k, fn.energy, r0)
        assert abs(fn(r0) - want) <= 1e-10 * abs(want), (k, fn(r0), want)


@pytest.mark.parametrize("kind", KINDS)
def test_ode_residual_rejects_wrong_energy_at_k20(kind):
    # |f| is below 1e-19 here, so a residual floored at 1 passed this energy
    co = radial_coefficients(3, 1, 1)
    fn = radial_eigenfunction(kind, UNIT_MASSES, co, 20)
    p, q = spectral_ode(kind, UNIT_MASSES, co, fn.energy + 100.0)
    assert ode_residual(p, q, fn.jet, sample_radii(kind, 16)) > 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_spectrum_k200_unverified(kind):
    # f(r0) underflows to 0 from about k = 165, and an all-zero jet reads inf
    co = radial_coefficients(3, 1, 1)
    (level,) = spectrum(kind, UNIT_MASSES, co, 200, 200).levels
    assert not level.branch_check
    fn = radial_eigenfunction(kind, UNIT_MASSES, co, 200)
    assert fn.ode_residual(spectra._R0[kind]) == math.inf


@pytest.mark.parametrize("kind", KINDS)
def test_norm_squared_underflow_raises(kind):
    fn = radial_eigenfunction(kind, UNIT_MASSES, radial_coefficients(3, 1, 1), 120)
    with pytest.raises(ConvergenceError, match=f"{kind} k=120: norm quadrature over 240 nodes"):
        fn.norm_squared()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), mk=st.integers(0, 4),
       m1=st.floats(0.5, 2.5), m2=st.floats(0.5, 2.5), radius=st.floats(0.5, 2.0),
       coupling=st.floats(0.2, 2.0), k=st.integers(1, 150))
def test_verified_levels_match_mpmath(kind, n, mk, m1, m2, radius, coupling, k):
    """Verified implies within 1e-8 of mpmath at r0, and the CLI exits cleanly.

    The error is measured against the local amplitude max(|f|, |f'|/(k+1)),
    as in the kernel tests, since r0 may sit next to one of the k nodes.
    """
    params = PhysicalParams(n, m1, m2, radius, coupling)
    co = radial_coefficients(n, 1, None if n == 2 else mk)
    (level,) = spectrum(kind, params, co, k, k).levels
    if level.branch_check:
        r0 = spectra._R0[kind]
        fn = radial_eigenfunction(kind, params, co, k)
        want, dwant = _mpmath_value(kind, params, co, k, fn.energy, r0)
        amp = max(abs(want), abs(dwant) / (k + 1))
        assert abs(fn(r0) - want) <= 1e-8 * amp, (fn(r0), want)
    argv = ["spectrum", "--kind", kind, "--n", str(n), "--case", "1", "--m1", repr(m1),
            "--m2", repr(m2), "--radius", repr(radius), "--coupling", repr(coupling),
            "--k-min", str(k), "--k-max", str(k), "--samples", "3"]
    if n > 2:
        argv += ["--mk", str(mk)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)
