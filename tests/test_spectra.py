"""Closed-form levels, eigenfunctions, and spectrum reports."""

import contextlib
import io
import math
import random
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from sphere_twobody.oracle import gauss_legendre
from sphere_twobody.radial import sample_radii

UNIT = {n: PhysicalParams(n, 2.0, 2.0, 1.0, 1.0) for n in (2, 3, 4, 5)}
KINDS = ("coulomb", "oscillator")


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
            assert set(res) == {"stated_branch"}
            assert res["stated_branch"] < 1e-9, res


def test_branch_residuals_detect_off_eigenvalue_energy():
    co = radial_coefficients(3, 1, 1)
    for kind, k in (("oscillator", 1), ("coulomb", 2)):
        E = closed_form_energy(kind, UNIT[3], co, k)
        res = branch_residuals(kind, UNIT[3], co, k, energy=E + 0.05)
        assert set(res) == {"stated_branch"}
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
    assert fn.data.d == 0
    rho0, rho_i = fn.data.rho0, fn.data.rho1

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
    assert abs(fn.data.b.imag) > 0.05  # half of Im u
    assert abs(fn.data.rho1.imag) > 0.1
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


def test_spectrum_asymmetric_is_numeric_only():
    co = radial_coefficients(4, 2, 2)
    rep = spectrum("coulomb", UNIT[4], co, 1, 3)
    assert rep.numeric_only
    assert rep.levels == ()


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
    # the level overflows: -inf for Coulomb, inf for the oscillator
    strong = PhysicalParams(3, 1.0, 1.0, 1.0, 1e200)
    for energy in (coulomb_energy, oscillator_energy):
        with pytest.raises(ValidationError, match="non-finite energy"):
            energy(strong, radial_coefficients(3, 1, 1), 1)


def test_bool_is_not_a_level_index():
    # bool subclasses int, but False and True are no more a level than 0.0 is
    co = radial_coefficients(3, 1, 1)
    for kind in ("coulomb", "oscillator"):
        for flag in (False, True):
            with pytest.raises(ValidationError, match="indexed by integer k"):
                closed_form_energy(kind, UNIT[3], co, flag)
            with pytest.raises(ValidationError, match="indexed by integer k"):
                radial_eigenfunction(kind, UNIT[3], co, flag)
        for k_min, k_max in ((True, True), (1, True), (True, 2)):
            with pytest.raises(ValidationError, match="need integer k_min <= k_max"):
                spectrum(kind, UNIT[3], co, k_min, k_max)
    assert closed_form_energy("oscillator", UNIT[3], co, 0) == spectrum(
        "oscillator", UNIT[3], co, 0, 0).levels[0].energy


_ENTRIES = ("__call__", "jet", "ode_residual")
_BAD_RADII = (
    [(kind, entry, r, ValidationError, "eigenfunctions live on")
     for kind in KINDS for entry in _ENTRIES for r in (0.0, math.inf, math.nan)]
    + [("oscillator", entry, r, ValidationError, "eigenfunctions live on")
       for entry in _ENTRIES for r in (1.0, 1.5)]
    + [(kind, entry, r, ValidationError, "non-real radius")
       for kind in KINDS for entry in _ENTRIES for r in (True, 0.5 + 0j)]
    # inside the domain, but L'' divides by r**2, which is 0.0 here
    + [(kind, entry, 1e-170, ConvergenceError, "underflows")
       for kind in KINDS for entry in ("jet", "ode_residual")])


@pytest.mark.parametrize("kind,entry,r,error,text", _BAD_RADII)
def test_scalar_entry_points_reject_radii_outside_the_domain(kind, entry, r, error, text):
    fn = radial_eigenfunction(kind, UNIT[3], radial_coefficients(3, 1, 1), 3)
    with pytest.raises(error, match=text):
        getattr(fn, entry)(r)


@pytest.mark.parametrize("r", [2e77, 1.35e154, 1e300])
def test_coulomb_eigenfunction_at_huge_radii_raises_convergence_error(r):
    # ri ** 3 in the jet overflows from r = 2e77, (r + i) ** 2 in z from 1.35e154
    fn = radial_eigenfunction("coulomb", UNIT_MASSES, radial_coefficients(3, 1, 1), 3)
    for entry in ("jet", "ode_residual") + (("__call__",) if r > 1e100 else ()):
        with pytest.raises(ConvergenceError, match=re.escape(f"overflows at r = {r!r}")):
            getattr(fn, entry)(r)
    if r < 1e100:
        assert math.isfinite(abs(fn(r)))
    assert math.isfinite(abs(fn(1e77))) and all(map(math.isfinite, map(abs, fn.jet(1e77))))


@pytest.mark.parametrize("kind", KINDS)
def test_jet_raises_where_its_second_derivative_is_not_finite(kind):
    # rho0 = 6: r**2 is normal at 2e-154, but -rho0/r**2 and L'**2 overflow to
    # infinities of opposite sign; from 1e-150 everything underflows to 0
    params = PhysicalParams(7, 1.0, 1.0, 1.0, 1.0)
    fn = radial_eigenfunction(kind, params, radial_coefficients(7, 1, 6), 3)
    assert fn.data.rho0 == 6.0
    for entry in ("jet", "ode_residual"):
        with pytest.raises(ConvergenceError, match="overflows at r = 2e-154"):
            getattr(fn, entry)(2e-154)
    assert fn.jet(1e-150) == (0j, 0j, 0j)
    assert fn.ode_residual(1e-150) == math.inf


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

_SCALARS = (int, float, complex)


class Jet:
    """(f, f', f'') over the complex numbers, carried through arithmetic and
    principal-branch powers: `_evaluate(Jet.variable(r))` is `jet`'s reference."""

    __slots__ = ("f", "df", "d2f")

    def __init__(self, f, df=0.0, d2f=0.0):
        self.f = complex(f)
        self.df = complex(df)
        self.d2f = complex(d2f)

    @staticmethod
    def variable(x):
        return Jet(x, 1.0, 0.0)

    def __repr__(self):
        return f"Jet({self.f!r}, {self.df!r}, {self.d2f!r})"

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, _SCALARS):
            return Jet(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.f + o.f, self.df + o.df, self.d2f + o.d2f)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.df, -self.d2f)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.f - o.f, self.df - o.df, self.d2f - o.d2f)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(o.f - self.f, o.df - self.df, o.d2f - self.d2f)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(
            self.f * o.f,
            self.df * o.f + self.f * o.df,
            self.d2f * o.f + 2.0 * self.df * o.df + self.f * o.d2f,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        h = self.f / o.f
        dh = (self.df - h * o.df) / o.f
        d2h = (self.d2f - 2.0 * dh * o.df - h * o.d2f) / o.f
        return Jet(h, dh, d2h)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, s):
        if not isinstance(s, _SCALARS):
            return NotImplemented
        s = complex(s)
        if s == 0:
            return Jet(1.0)
        w = self.f ** s
        w1 = s * self.f ** (s - 1)
        w2 = s * (s - 1) * self.f ** (s - 2)
        return Jet(w, w1 * self.df, w2 * self.df * self.df + w1 * self.d2f)


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
    """Values, both derivatives and the vectorised path against mpmath.

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
            _, df, d2f = fn.jet(r)
            assert abs(df - dwant) <= 1e-12 * (k + 1) * amp, (r, df, dwant)
            d2want = complex(mpmath.diff(ref, mpmath.mpf(r), 2))
            assert abs(d2f - d2want) <= 1e-12 * (k + 1) ** 2 * amp, (r, d2f, d2want)


# one non-unit parameter set per kind: unequal masses, n = 3 and n = 5
KERNEL_NON_UNIT = [("coulomb", 3, 17, PhysicalParams(3, 0.7, 2.3, 1.6, 0.35)),
                   ("oscillator", 5, 23, PhysicalParams(5, 1.3, 0.6, 0.8, 1.9))]


@pytest.mark.parametrize("kind,n,k,params",
                         [(kind, n, k, UNIT[n]) for kind, n, k in _kernel_cases()]
                         + KERNEL_NON_UNIT)
def test_jet_equals_generic_jet_path(kind, n, k, params):
    """`jet` against `_evaluate` on a Jet and against mpmath.

    f is `fn(r)` and the Jet path's value bit for bit.  f' and f'' come from
    other arithmetic, and must match both mpmath's and the Jet path's within
    test_kernel_matches_mpmath's bounds.
    """
    co = radial_coefficients(n, 1, KERNEL_SECTORS[n])
    fn = radial_eigenfunction(kind, params, co, k)
    with mpmath.workdps(REF_DIGITS):
        ref = _reference(kind, params, co, k, fn.energy)
        for r in (*KERNEL_RADII[kind], *sample_radii(kind, 16), spectra._R0[kind]):
            f, df, d2f = fn.jet(r)
            out = fn._evaluate(Jet.variable(r))
            assert f == out.f == fn(r), r
            x = mpmath.mpf(r)
            want, dwant, d2want = (complex(mpmath.diff(ref, x, i)) for i in range(3))
            amp = max(abs(want), abs(dwant) / (k + 1))
            tol1, tol2 = 1e-12 * (k + 1) * amp, 1e-12 * (k + 1) ** 2 * amp
            assert abs(df - dwant) <= tol1, (r, df, dwant)
            assert abs(d2f - d2want) <= tol2, (r, d2f, d2want)
            assert abs(df - out.df) <= tol1, (r, df, out.df)
            assert abs(d2f - out.d2f) <= tol2, (r, d2f, out.d2f)


# z -> 0 at r -> 0 (and at r -> oo for Coulomb), where `jet` divides by z for
# G''.  The m_k = 0 sector has rho0 = 0 (n = 2's case 1 already does), so f'
# stays finite at r = 0 and nothing else hides the loss.  k <= 20 is the range
# `jet`'s docstring states.
EDGE_SECTORS = {2: None, 3: 0, 5: 0}  # n -> mk, case 1
EDGE_KS = {kind: tuple(k for k in ks if k <= 20) for kind, ks in KERNEL_KS.items()}
EDGE_RADII = {"coulomb": (1e-3, 1e3), "oscillator": (1e-3,)}


@pytest.mark.parametrize("kind,n,k", [(kind, n, k) for kind, ks in EDGE_KS.items()
                                      for n in EDGE_SECTORS for k in ks])
def test_jet_matches_mpmath_near_the_ends_at_mk0(kind, n, k):
    """test_kernel_matches_mpmath's bounds at the m_k = 0 sector's EDGE_RADII."""
    co = radial_coefficients(n, 1, EDGE_SECTORS[n])
    fn = radial_eigenfunction(kind, UNIT[n], co, k)
    with mpmath.workdps(REF_DIGITS):
        ref = _reference(kind, UNIT[n], co, k, fn.energy)
        for r in EDGE_RADII[kind]:
            x = mpmath.mpf(r)
            want, dwant, d2want = (complex(mpmath.diff(ref, x, i)) for i in range(3))
            amp = max(abs(want), abs(dwant) / (k + 1))
            f, df, d2f = fn.jet(r)
            assert abs(f - want) <= 1e-12 * amp, (r, f, want)
            assert abs(df - dwant) <= 1e-12 * (k + 1) * amp, (r, df, dwant)
            assert abs(d2f - d2want) <= 1e-12 * (k + 1) ** 2 * amp, (r, d2f, d2want)


@pytest.mark.parametrize("kind,n,mk,k", [(kind, n, mk, k) for kind, ks in EDGE_KS.items()
                                         for n, mk in (*KERNEL_SECTORS.items(), (3, 0), (5, 0))
                                         for k in ks])
def test_scaled_residual_near_the_ends(kind, n, mk, k):
    fn = radial_eigenfunction(kind, UNIT[n], radial_coefficients(n, 1, mk), k)
    for r in (1e-6, 1e6) if kind == "coulomb" else (1e-6, 0.9999):
        assert fn.ode_residual(r) <= 1e-12, r


@pytest.mark.parametrize("kind,n,k", [c for c in _kernel_cases() if c[2] <= 40])
def test_kernel_norm_quadrature_stable(kind, n, k):
    fn = radial_eigenfunction(kind, UNIT[n], radial_coefficients(n, 1, KERNEL_SECTORS[n]), k)
    lo, hi = fn.norm_squared(240), fn.norm_squared(480)
    assert lo > 0.0
    assert abs(hi - lo) <= 1e-8 * lo


@pytest.mark.parametrize("k", [80, 90, 100, 150])
def test_coulomb_high_k_norm_finite(k):
    # the outer quadrature nodes reach r ~ 1e5, where (r + i) to a power of order k overflows;
    # by k = 100 |f|^2 sums to a subnormal (5e-321, a few significant bits) and by
    # k = 150 to 0.0, and norm_squared raises rather than return either
    fn = radial_eigenfunction("coulomb", UNIT[3], radial_coefficients(3, 1, 1), k)
    with np.errstate(over="raise", invalid="raise"):
        if k < 100:
            lo, hi = fn.norm_squared(240), fn.norm_squared(480)
            assert math.isfinite(hi)
            assert abs(hi - lo) <= 1e-8 * lo
        else:
            with pytest.raises(ConvergenceError, match="norm quadrature"):
                fn.norm_squared(480)
    assert math.isfinite(abs(fn(1e5)))


def test_coulomb_high_k_verified_only_when_accurate():
    """k = 34..40 at r0 = 0.7, where |f| is about 1e-48, far below an
    absolute floor such as 1e-30 that would make the residual test absolute.
    `verified` vouches for the recurrence value itself, checked here against
    mpmath."""
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


@pytest.mark.parametrize("radius", [1000.0, 1500.0, 1e6])
def test_coulomb_norm_squared_prefactor_overflow_raises_without_warning(radius):
    # on the quadrature's nodes the prefactor's modulus exp(Im rho1 (pi - theta))
    # overflows where float `**` raises; the scalar path's error comes out, no warning
    params = PhysicalParams(3, 1.0, 1.0, radius, 1.0)
    fn = radial_eigenfunction("coulomb", params, radial_coefficients(3, 1, 1), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError,
                           match="coulomb level k=1: the eigenfunction prefactor"):
            fn.norm_squared()


# ------------------------------------------- the norm against independent values

def _jacobi_norm(params, coeffs, d):
    """The oscillator's norm in closed form, through the Jacobi integral (DLMF §18.3).

    2^-(2 rho0 + n + 1) G(alpha+1)^2 G(d+beta+1)
        / [(2d + alpha + beta + 1) G(d+alpha+beta+1) G(d+alpha+1) d!]
    with alpha = A/2, beta = W/2, rho0 = (2 - n + A)/2, summed in lgamma form.
    """
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    A = math.sqrt((n - 2) ** 2 + 32 * float(coeffs.a))
    W = math.sqrt(1 + 4 * m * R ** 4 * g * g)
    alpha, beta, rho0 = A / 2, W / 2, (2 - n + A) / 2
    return math.exp(-(2 * rho0 + n + 1) * math.log(2.0) + 2 * math.lgamma(alpha + 1)
                    + math.lgamma(d + beta + 1) - math.log(2 * d + alpha + beta + 1)
                    - math.lgamma(d + alpha + beta + 1) - math.lgamma(d + alpha + 1)
                    - math.lgamma(d + 1))


JACOBI_SETS = ((2.0, 2.0, 1.0, 1.0), (0.7, 1.9, 0.6, 1.9), (2.3, 1.2, 1.8, 0.3))  # m1, m2, R, g


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("masses_radius_coupling", JACOBI_SETS)
def test_oscillator_norm_matches_jacobi_closed_form(n, masses_radius_coupling):
    params = PhysicalParams(n, *masses_radius_coupling)
    co = radial_coefficients(n, 1, None if n == 2 else n - 2)
    for d in range(0, 41, 5):
        fn = radial_eigenfunction("oscillator", params, co, d)
        want = _jacobi_norm(params, co, d)
        for nodes in (240, 480):
            got = fn.norm_squared(nodes)
            assert abs(got - want) <= 1e-12 * want, (d, nodes, got, want)


@pytest.mark.parametrize("kind,n,k", list(_kernel_cases()))
def test_modulus_matches_mpmath(kind, n, k):
    """The norm's real |f| path against mpmath's |f|, to 1e-12 of the local amplitude."""
    co = radial_coefficients(n, 1, KERNEL_SECTORS[n])
    fn = radial_eigenfunction(kind, UNIT[n], co, k)
    rs = np.array(KERNEL_RADII[kind])
    got = fn._modulus(rs, 2.0 * np.arctan(rs) if kind == "coulomb" else None)
    assert got.dtype == np.float64
    with mpmath.workdps(REF_DIGITS):
        ref = _reference(kind, UNIT[n], co, k, fn.energy)
        for r, v in zip(rs, got):
            want = complex(ref(mpmath.mpf(r)))
            amp = max(abs(want), abs(complex(mpmath.diff(ref, mpmath.mpf(r)))) / (k + 1))
            assert abs(v - abs(want)) <= 1e-12 * amp, (r, v, want)


def _complex_norm_squared(fn, nodes):
    """`norm_squared` as complex arithmetic: f = P G_d as complex numpy arrays, then |f|^2.

    The reference for the real-arithmetic norm, with the same nodes, the same
    2F1 data and the same errors.
    """
    n, kind = fn.params.n, fn.kind
    x, w = gauss_legendre(-1.0, 1.0, nodes)
    if kind == "coulomb":
        r = np.tan((x + 1.0) * (math.pi / 2.0) / 2.0)
        jac = (math.pi / 2.0) * (1.0 + r * r) / 2.0
    else:
        r = (x + 1.0) / 2.0
        jac = 0.5
    d, b, c, z = fn.data.d, fn.data.b, fn.data.c, fn._z(r)
    prev, cur = 0.0, 1.0
    for m in range(d):
        prev, cur = cur, ((c + 2 * m - (b + m) * z) * cur + (z - 1.0) * prev) / (
            (c + m) * (m + 1))
    rho0, rho1 = fn.data.rho0, fn.data.rho1
    if kind == "coulomb":
        try:
            with np.errstate(over="raise", invalid="raise"):
                power = ((r - 1j) / (r + 1j)) ** rho1
        except FloatingPointError:
            raise ConvergenceError(
                f"{kind} level k={fn.k}: the eigenfunction prefactor "
                f"((r - i)/(r + i)) ** rho1 overflows, rho1 = {rho1}") from None
        pre = r ** rho0 * power * (r + 1j) ** (-2.0 * rho0)
    else:
        pre = r ** rho0 * (1.0 - r * r) ** rho1 * (r * r + 1.0) ** (-(rho0 + rho1))
    f = pre * cur
    total = float(np.sum(w * jac * np.abs(f) ** 2 * r ** (n - 1) / (1.0 + r * r) ** n))
    if not sys.float_info.min <= total < math.inf:
        raise ConvergenceError(
            f"{kind} k={fn.k}: norm quadrature over {nodes} nodes gave {total!r}")
    return total


def _norm_outcome(norm, fn, nodes):
    """(value, None) or (None, the exception), with numpy's overflow warnings muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return norm(fn, nodes), None
        except ConvergenceError as exc:
            return None, exc


# Coulomb's prefactor overflows only where m R g / k is large, which random draws
# rarely reach: pin one case raising there and one whose |f|^2 sums to inf
@example(kind="coulomb", n=2, case=0, mk=0, m1=2.5, m2=2.5, log_radius=2.0, coupling=2.0,
         k=1, nodes=240)
@example(kind="coulomb", n=2, case=0, mk=0, m1=2.5, m2=2.5, log_radius=1.5, coupling=2.0,
         k=1, nodes=480)
@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), case=st.integers(0, 3),
       mk=st.integers(0, 4),
       m1=st.floats(0.5, 2.5), m2=st.floats(0.5, 2.5), log_radius=st.floats(-3.0, 2.0),
       coupling=st.floats(0.2, 2.0), k=st.integers(0, 60), nodes=st.sampled_from((240, 480)))
def test_norm_matches_complex_arithmetic(kind, n, case, mk, m1, m2, log_radius, coupling,
                                         k, nodes):
    """The real-arithmetic norm against `_complex_norm_squared` on the a = c sectors.

    Where both return, they agree to 1e-13 relative; where the reference
    returns, so does the norm; where the norm raises, the reference raised
    the same error, up to the value a subnormal or infinite sum quotes.
    """
    if n == 2:
        case, mk = (1, 2, 5, 8)[case], None
    else:
        case = (1, 4)[case % 2]
        mk = mk if case == 1 else max(mk, 2)
    if case != 1 and (n, case) not in ((2, 1), (2, 2)):
        m2 = m1  # these sectors need equal masses
    k = max(k, spectra.K_MIN[kind])
    params = PhysicalParams(n, m1, m2, 10.0 ** log_radius, coupling)
    fn = radial_eigenfunction(kind, params, radial_coefficients(n, case, mk), k)
    want, want_exc = _norm_outcome(_complex_norm_squared, fn, nodes)
    got, got_exc = _norm_outcome(spectra.RadialEigenfunction.norm_squared, fn, nodes)
    if want is not None:
        assert got is not None, got_exc
        assert abs(got - want) <= 1e-13 * want, (got, want)
    if got_exc is not None:
        assert want_exc is not None, want
        assert str(got_exc).split(" gave ")[0] == str(want_exc).split(" gave ")[0]


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


# ------------------------------------------------ float recurrence, bit for bit


def _complex_value_and_jet(fn, r):
    """`fn(r)` and `fn.jet(r)` with the 2F1 recurrence in complex arithmetic throughout.

    The reference for the float recurrence on real levels: the recurrence,
    z and the derivative closed forms as they stood before b and z became
    floats there, on the same prefactor, with G'' from the contiguous
    relation z G''_d = (d-1) G'_d - G'_(d-1) after the loop.
    """
    x = complex(r)
    d, b, c = fn.data.d, complex(fn.data.b), fn.data.c
    if fn.kind == "coulomb":
        z = 4j * x / (x + 1j) ** 2
    else:
        z = 4.0 * x * x / (x * x + 1.0) ** 2
    w = z - 1.0
    prev, cur = 0.0, 1.0
    dprev, dcur = 0.0, 0.0
    for m in range(d):
        bm = b + m
        s = c + 2 * m - bm * z
        den = (c + m) * (m + 1)
        prev, cur, dprev, dcur = (cur, (s * cur + w * prev) / den,
                                  dcur, (s * dcur - bm * cur + w * dprev + prev) / den)
    d2cur = ((d - 1) * dcur - dprev) / z
    rho0, rho1 = fn.data.rho0, fn.data.rho1
    if fn.kind == "coulomb":
        ri = r + 1j
        u = r * r + 1.0
        dz = -4j * (r - 1j) / ri ** 3
        d2z = 8j * (r - 2j) / ri ** 4
        dL = rho0 / r + 2j * rho1 / u - 2.0 * rho0 / ri
        d2L = -rho0 / (r * r) - 4j * rho1 * r / (u * u) + 2.0 * rho0 / (ri * ri)
    else:
        u, v = r * r + 1.0, 1.0 - r * r
        dz = 8.0 * r * v / u ** 3
        d2z = 8.0 * ((3.0 * r * r - 8.0) * r * r + 1.0) / u ** 4
        dL = rho0 / r - 2.0 * rho1 * r / v - 2.0 * (rho0 + rho1) * r / u
        d2L = (-rho0 / (r * r) - 2.0 * rho1 * u / (v * v)
               - 2.0 * (rho0 + rho1) * v / (u * u))
    pre = fn._prefactor(x)
    jet = (pre * cur,
           pre * (dcur * dz + dL * cur),
           pre * (d2cur * dz * dz + dcur * d2z + 2.0 * dL * dcur * dz
                  + (d2L + dL * dL) * cur))
    return pre * cur, jet


def _bit_pin_levels(kind, n):
    """Seeded levels of one kind and dimension: sectors, masses, R in [1e-2, 1e2], k <= 40."""
    rng = random.Random(f"bit-pin:{kind}:{n}")
    for _ in range(8):
        if n == 2:
            case, mk = rng.choice((1, 2, 5, 8)), None
        else:
            case = rng.choice((1, 4))
            mk = rng.randint(case // 2, 4)
        m1, m2 = rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)
        if case != 1 and (n, case) != (2, 2):
            m2 = m1  # equal-mass sectors
        params = PhysicalParams(n, m1, m2, 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        k = rng.randint(spectra.K_MIN[kind], 40)
        if kind == "coulomb":
            rs = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(4)]
        else:
            rs = [rng.uniform(0.01, 0.99) for _ in range(4)]
        yield radial_eigenfunction(kind, params, radial_coefficients(n, case, mk), k), rs


def _assert_bits_match_complex_reference(fn, rs):
    for r in rs:
        want_value, want_jet = _complex_value_and_jet(fn, r)
        assert repr(fn(r)) == repr(want_value), (fn.k, r)
        assert repr(fn.jet(r)) == repr(want_jet), (fn.k, r)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", KINDS)
def test_values_and_jets_match_complex_arithmetic_bit_for_bit(kind, n):
    """`fn(r)` and `jet(r)` repr for repr against `_complex_value_and_jet`.

    Every oscillator level at its closed-form energy has a real b, so its
    recurrence runs in floats; Coulomb's stays complex.
    """
    real = kind == "oscillator"
    for fn, rs in _bit_pin_levels(kind, n):
        assert isinstance(fn.data.b, float) == real
        assert isinstance(fn._z(complex(rs[0])), float) == real
        _assert_bits_match_complex_reference(fn, rs)


def test_complex_oscillator_b_keeps_complex_arithmetic():
    # an energy below the pole threshold makes s, so b, complex: b = 1.683 + 3.102i
    params, co = PhysicalParams(3, 1.0, 1.0, 1.0, 1.0), radial_coefficients(3, 1, 1)
    for k in (0, 7, 40):
        fn = radial_eigenfunction("oscillator", params, co, k, energy=-40.0)
        assert fn.data.b == pytest.approx(1.683 + 3.102j, abs=1e-3)
        assert isinstance(fn._z(0.3 + 0j), complex)
        _assert_bits_match_complex_reference(fn, (0.05, 0.3, 0.45, 0.9))
        _assert_norms_match_inline_reference(fn)


def _inline_norm_squared(fn, nodes):
    """`norm_squared` with every step constant and grid array computed inline.

    The reference for the level's shared step lists and the grid's cached
    z, z - 1, r^(n-1) and (1 + r^2)^n: the recurrence, z, |P| and the volume
    weight as they stood before either was built once, on the same
    Gauss-Legendre rule, with the same errors.
    """
    n, kind = fn.params.n, fn.kind
    x, w = gauss_legendre(-1.0, 1.0, nodes)
    if kind == "coulomb":
        theta = (x + 1.0) * (math.pi / 2.0)
        r = np.tan(theta / 2.0)
        jac = (math.pi / 2.0) * (1.0 + r * r) / 2.0
        z = 4j * r / (r + 1j) ** 2
    else:
        r = (x + 1.0) / 2.0
        jac = 0.5
        u = r * r + 1.0
        z = 4.0 * r * r / (u * u)
    d, b, c = fn.data.d, fn.data.b, fn.data.c
    wz = z - 1.0
    prev, cur = 0.0, 1.0
    for m in range(d):
        prev, cur = cur, ((c + 2 * m - (b + m) * z) * cur + wz * prev) / ((c + m) * (m + 1))
    rho0, rho1 = fn.data.rho0, fn.data.rho1
    if kind == "coulomb":
        try:
            with np.errstate(over="raise", invalid="raise"):
                pre = r ** rho0 * (1.0 + r * r) ** -rho0 * np.exp(rho1.imag * (math.pi - theta))
        except FloatingPointError:
            raise fn._prefactor_overflow() from None
    else:
        pre = r ** rho0 * (1.0 - r * r) ** rho1 * (r * r + 1.0) ** (-(rho0 + rho1))
    f = pre * np.abs(cur)
    total = float(np.sum(w * jac * f ** 2 * r ** (n - 1) / (1.0 + r * r) ** n))
    if not sys.float_info.min <= total < math.inf:
        raise ConvergenceError(
            f"{kind} k={fn.k}: norm quadrature over {nodes} nodes gave {total!r}")
    return total


def _assert_norms_match_inline_reference(fn):
    for nodes in (240, 480):
        want = _norm_outcome(_inline_norm_squared, fn, nodes)
        got = _norm_outcome(spectra.RadialEigenfunction.norm_squared, fn, nodes)
        assert repr(got) == repr(want), (fn.kind, fn.k, nodes)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", KINDS)
def test_norms_match_inline_reference_bit_for_bit(kind, n):
    """`norm_squared` at 240 and 480 nodes repr for repr against `_inline_norm_squared`.

    The same seeded levels as the value and jet pin: the shared step lists
    and the cached grid arrays must not move a bit of any norm or error.
    """
    for fn, _ in _bit_pin_levels(kind, n):
        assert [len(steps) for steps in fn.data.steps] == [fn.data.d] * 3
        _assert_norms_match_inline_reference(fn)


def test_quadrature_grid_cached_read_only():
    for kind in KINDS:
        theta, r, wj, z, w = spectra._quadrature_grid(kind, 240)
        assert spectra._quadrature_grid(kind, 240)[1] is r
        assert (theta is None) == (kind == "oscillator")
        assert z.dtype == (np.complex128 if kind == "coulomb" else np.float64)
        r1, un = spectra._volume_weight(kind, 240, 3)
        assert spectra._volume_weight(kind, 240, 3)[0] is r1
        arrays = (r, wj, z, w, r1, un) + (() if theta is None else (theta,))
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # 240.0 and True hash like 240 and 1, whose grids are now cached
    fn = radial_eigenfunction("oscillator", UNIT[3], radial_coefficients(3, 1, 1), 1)
    fn.norm_squared(240)
    fn.norm_squared(1)
    for nodes in (240.0, True, "240", 1.0):
        with pytest.raises(ValidationError, match="node count"):
            fn.norm_squared(nodes)
