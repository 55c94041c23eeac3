"""Fuchsian structure of the radial equation and its Heun normal form.

The Coulomb equation has regular singular points {0, i, -i, oo} in the
stereographic radius; the oscillator has {0, 1, -1, i, -i, oo}, collapsing
to four points in zeta = r^2.  A Mobius map sends the four relevant points
to {0, 1, 2, oo}; peeling one exponent at each finite point leaves a Heun
equation whose parameters come out in closed form.  The accessory parameter
can be probed independently from the ODE coefficients by a residue limit at
t = 0, which is how the closed form is cross-checked.

When the radial coefficients satisfy a = c the Heun equation degenerates to
a hypergeometric one under the quadratic pullback z = t(2 - t); this is the
first entry of the classical table of quadratic Heun-to-hypergeometric
reductions, and `maier_classify` locates a given parameter set in that
table (or reports that none applies).
"""

import cmath
import functools
import itertools
import math
import operator
import sys
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError, VerificationError, _Validated
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    _check_compatible,
    _check_energy,
    _check_kind,
    _pole_root,
    endpoint_root,
    wall_root,
)

__all__ = [
    "INFINITY",
    "SingularPoint",
    "FuchsianEq",
    "coulomb_exponents",
    "oscillator_exponents",
    "oscillator_zeta_exponents",
    "cross_ratio",
    "cross_ratio_orbit",
    "cross_ratio_classify",
    "HeunParams",
    "HeunReduction",
    "to_heun",
    "accessory_parameter_probe",
    "MaierMatch",
    "maier_classify",
    "HypergeomParams",
    "reduce_case1",
    "case1_pullback_residual",
    "psymbol",
]


class _Infinity:
    """Sentinel for the point at infinity."""

    __slots__ = ()

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()

_TOL = 1e-10  # matches cross-ratio classes and reduction-table rows


def _sum_tolerance(terms):
    """How far a sum of these terms may miss an exact identity: 1e-8, or
    3 eps sum|term| where that is larger.

    Each term of size t carries about eps |t| of rounding, which exceeds
    1e-8 once the exponents are near 1e8 (|E| m R^2 ~ 1e16).  Both sums
    checked here have at most 12 terms, so the allowance stays under 1e-8,
    and the check as it was, while every exponent is at most 1e6.
    """
    return max(1e-8, 3.0 * sys.float_info.epsilon * sum(abs(complex(t)) for t in terms))


def _fmtc(x):
    x = complex(x)
    if abs(x.imag) <= 1e-12 * max(1.0, abs(x.real)):
        return f"{x.real:.6g}"
    return f"{x.real:.6g}{x.imag:+.6g}i"


class SingularPoint(NamedTuple):
    """One regular singular point and its two indicial exponents."""

    location: object  # complex or INFINITY
    exponents: tuple  # (rho_plus, rho_minus)


class _FuchsianEqFields(NamedTuple):
    points: tuple


class FuchsianEq(_Validated, _FuchsianEqFields):
    """Second-order equation with regular singular points only."""

    __slots__ = ()

    def _validate(self):
        finite = [p.location for p in self.points if p.location is not INFINITY]
        for i, z in enumerate(finite):
            for w in finite[i + 1:]:
                if abs(complex(z) - complex(w)) < 1e-12:
                    raise ValidationError(f"coincident singular points at {z}")
        res = self.fuchs_residual()
        if not math.isfinite(abs(res)):
            raise ValidationError(f"an indicial exponent left the float range (sum {res})")
        if abs(res) > _sum_tolerance(e for p in self.points for e in p.exponents):
            raise ValidationError(
                f"exponent sums violate the Fuchs relation by {abs(res):.3e}"
            )

    @property
    def n_points(self):
        return len(self.points)

    def fuchs_sum(self):
        return sum(complex(e) for p in self.points for e in p.exponents)

    def fuchs_residual(self):
        """fuchs_sum minus (number of points - 2); zero for any Fuchsian eq."""
        return self.fuchs_sum() - (self.n_points - 2)

    def exponents_at(self, location):
        for p in self.points:
            if (p.location is INFINITY if location is INFINITY else p.location is not INFINITY
                    and abs(complex(p.location) - complex(location)) < 1e-12):
                return p.exponents
        raise ValidationError(f"no singular point at {location}")


def psymbol(eq):
    """Riemann-style exponent table, one column per singular point."""
    table = (
        [repr(p.location) if p.location is INFINITY else _fmtc(p.location) for p in eq.points],
        [_fmtc(p.exponents[0]) for p in eq.points],
        [_fmtc(p.exponents[1]) for p in eq.points],
    )
    width = [max(map(len, column)) for column in zip(*table)]
    rows = ["  ".join(s.rjust(w) for s, w in zip(row, width)) for row in table]
    return "P {\n  " + "\n  ".join(rows) + "\n}"


def _pair(center, root):
    """Exponents (center +- root)/2: centre 2 - n at 0 and oo, n - 1 at +-i, 1 at the walls +-1."""
    return ((center + root) / 2.0, (center - root) / 2.0)


def _endpoint_pairs(params, coeffs, energy):
    """The exponent pairs at r = 0 and oo, after checking the arguments."""
    _check_compatible(params, coeffs)
    _check_energy(energy)
    n = params.n
    return tuple(_pair(2.0 - n, complex(endpoint_root(n, float(x))))
                 for x in (coeffs.a, coeffs.c))


def coulomb_exponents(params, coeffs, energy):
    """Indicial exponents of the Coulomb radial equation, in the point order 0, i, -i, oo."""
    rho0, rhoinf = _endpoint_pairs(params, coeffs, energy)
    rhoi, rhoj = (_pair(params.n - 1, _pole_root(KIND_COULOMB, params, coeffs, energy, sign))
                  for sign in (+1, -1))
    return FuchsianEq((
        SingularPoint(0.0, rho0),
        SingularPoint(1j, rhoi),
        SingularPoint(-1j, rhoj),
        SingularPoint(INFINITY, rhoinf),
    ))


def oscillator_exponents(params, coeffs, energy):
    """Indicial exponents of the oscillator equation, in the point order 0, 1, -1, i, -i, oo."""
    rho0, rhoinf = _endpoint_pairs(params, coeffs, energy)
    rho1 = _pair(1.0, complex(wall_root(params)))
    rhoi = _pair(params.n - 1, _pole_root(KIND_OSCILLATOR, params, coeffs, energy))
    return FuchsianEq((
        SingularPoint(0.0, rho0),
        SingularPoint(1.0, rho1),
        SingularPoint(-1.0, rho1),
        SingularPoint(1j, rhoi),
        SingularPoint(-1j, rhoi),
        SingularPoint(INFINITY, rhoinf),
    ))


def _zeta_form(eq):
    """The oscillator's table folded into zeta = r^2, in the point order 0, 1, -1, oo.

    +-1 map to 1 and +-i to -1; the exponents at 0 and oo are halved.
    """
    rho0, rho1, _, rhoi, _, rhoinf = (p.exponents for p in eq.points)
    half = lambda pair: (pair[0] / 2.0, pair[1] / 2.0)
    return FuchsianEq((
        SingularPoint(0.0, half(rho0)),
        SingularPoint(1.0, rho1),
        SingularPoint(-1.0, rhoi),
        SingularPoint(INFINITY, half(rhoinf)),
    ))


def oscillator_zeta_exponents(params, coeffs, energy):
    """The same equation in zeta = r^2: four singular points."""
    return _zeta_form(oscillator_exponents(params, coeffs, energy))


def cross_ratio(z1, z2, z3, z4):
    """(z1-z3)(z2-z4) / ((z1-z4)(z2-z3)); at INFINITY the two factors holding it cancel."""
    if sum(z is INFINITY for z in (z1, z2, z3, z4)) > 1:
        raise ValidationError("cross ratio needs distinct points")

    def product(pairs):
        return functools.reduce(operator.mul, [complex(a) - complex(b) for a, b in pairs
                                              if a is not INFINITY and b is not INFINITY])

    return product(((z1, z3), (z2, z4))) / product(((z1, z4), (z2, z3)))


def cross_ratio_orbit(s):
    """The six values of the cross ratio under point permutations."""
    s = complex(s)
    return (s, 1 - s, 1 / s, 1 / (1 - s), s / (s - 1), (s - 1) / s)


_HARMONIC = (-1 + 0j, 0.5 + 0j, 2 + 0j)
_EQUIANHARMONIC = (0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j)


def cross_ratio_classify(s):
    """'harmonic', 'equianharmonic', 'degenerate', or 'generic'."""
    s = complex(s)
    for v in (0.0, 1.0):
        if abs(s - v) <= _TOL:
            return "degenerate"
    if any(abs(v - h) <= _TOL for v in cross_ratio_orbit(s) for h in _HARMONIC):
        return "harmonic"
    if any(abs(v - e) <= _TOL for v in cross_ratio_orbit(s) for e in _EQUIANHARMONIC):
        return "equianharmonic"
    return "generic"


class _HeunParamsFields(NamedTuple):
    d: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    epsilon: complex
    q: complex


class HeunParams(_Validated, _HeunParamsFields):
    """Parameters of g'' + (gamma/t + delta/(t-1) + eps/(t-d)) g'
    + (alpha beta t - q) / (t (t-1) (t-d)) g = 0."""

    __slots__ = ()

    def _validate(self):
        d = complex(self.d)
        if not (cmath.isfinite(d) and min(abs(d), abs(d - 1.0)) >= 1e-12):
            raise ValidationError(f"singular point d = {self.d} must be finite and apart "
                                  "from 0 and 1")
        res = self.consistency_residual()
        terms = (self.alpha, self.beta, 1.0, self.gamma, self.delta, self.epsilon)
        if abs(res) > _sum_tolerance(terms):
            raise ValidationError(
                f"Heun parameters violate alpha+beta+1 = gamma+delta+epsilon by {abs(res):.3e}"
            )

    def consistency_residual(self):
        return (self.alpha + self.beta + 1.0) - (self.gamma + self.delta + self.epsilon)


class HeunReduction(NamedTuple):
    """Heun normal form of a radial equation, plus the raw translated ODE.

    A, B are the coefficients of f'' + A f' - B f = 0 in the Mobius variable
    before peeling; sigma holds the peeled exponents at t = 0, 1, 2.
    """

    kind: str
    heun: HeunParams
    sigma: tuple
    fuchsian: FuchsianEq
    A: object
    B: object
    t_of_r: object


def to_heun(kind, params, coeffs, energy):
    """Closed-form Heun parameters of the radial equation at given energy.

    Coulomb uses t = 2r/(r + i); the oscillator is first reduced to
    zeta = r^2 and then t = 2 zeta/(zeta + 1).  Both land the singular
    points on {0, 1, 2, oo}.
    """
    _check_kind(kind)  # the exponent tables check params, coeffs and energy
    n, m, R = params.n, params.reduced_mass, params.radius
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    E = energy

    if kind == KIND_COULOMB:
        g = params.coupling
        eq = coulomb_exponents(params, coeffs, energy)
        (r0p, r0m), (rip, rim), (rjp, rjm), (rfp, rfm) = (p.exponents for p in eq.points)
        hp = HeunParams(
            d=2.0 + 0j,
            alpha=r0p + rip + rfp + rjp,
            beta=r0p + rip + rfp + rjm,
            gamma=1.0 - r0m + r0p,
            delta=1.0 - rim + rip,
            epsilon=1.0 - rfm + rfp,
            q=(
                4.0 * r0p * rip + 2.0 * r0p * rfp - (n - 3.0) * r0p
                + (n - 1.0) * (2.0 * rip + rfp) - 4.0 * m * R * g * 1j + 16.0 * a
            ),
        )

        def A(t):
            return (n * t * t - 2.0 * n * t + 2.0 * n - 2.0) / (t * (t - 1.0) * (t - 2.0))

        def B(t):
            num = 2.0 * (
                m * (E * R * R * t * t * (t - 2.0) ** 2
                     + R * g * 1j * t * (t - 2.0) * (t * t - 2.0 * t + 2.0))
                + a * (t - 2.0) ** 4 - b * t * t * (t - 2.0) ** 2 + c * t ** 4
            )
            return num / (t * t * (t - 1.0) ** 2 * (t - 2.0) ** 2)

        return HeunReduction(
            kind, hp, (r0p, rip, rfp), eq, A, B, lambda r: 2.0 * r / (r + 1j)
        )

    w = params.coupling
    eq = oscillator_exponents(params, coeffs, energy)
    zeq = _zeta_form(eq)
    (r0p, r0m), (r1p, r1m), _, (rip, rim), _, (rfp, rfm) = (p.exponents for p in eq.points)
    hp = HeunParams(
        d=2.0 + 0j,
        alpha=0.5 * r0p + r1p + 0.5 * rfp + rip,
        beta=0.5 * r0p + r1p + 0.5 * rfp + rim,
        gamma=1.0 + 0.5 * (r0p - r0m),
        delta=1.0 + r1p - r1m,
        epsilon=1.0 + 0.5 * (rfp - rfm),
        q=(
            -2.0 * m * R * R * E + 2.0 * b + n * (r1p + 0.25 * rfp)
            + 2.0 * r0p * r1p + 0.5 * r0p * rfp + 0.25 * n * r0p
        ),
    )
    mR2 = m * R * R

    def A(t):
        return n * (t - 1.0) / (t * (t - 2.0))

    def B(t):
        return (2.0 / (t * (t - 2.0))) * (
            mR2 * (E + R * R * w * w * t * (t - 2.0) / (2.0 * (t - 1.0) ** 2))
            - 2.0 * a / t + a - b + c * t / (t - 2.0)
        )

    return HeunReduction(
        kind, hp, (0.5 * r0p, r1p, 0.5 * rfp), zeq, A, B,
        lambda r: 2.0 * r * r / (r * r + 1.0),
    )


def accessory_parameter_probe(reduction):
    """Recover the accessory parameter from the raw ODE by a residue limit.

    Independent of the closed-form q: evaluates the peeled equation's
    t -> 0 residue numerically with one Richardson step from t0 = 1e-6;
    accurate to about 1e-8.  ConvergenceError if the limit is not finite.
    """
    t0 = 1e-6
    A, B = reduction.A, reduction.B
    s0, s1, s2 = reduction.sigma

    def g(t):
        S = s0 / t + s1 / (t - 1.0) + s2 / (t - 2.0)
        bracket = (
            -B(t) + S * A(t) + s0 * (s0 - 1.0) / (t * t)
            + 2.0 * s0 * s1 / (t * (t - 1.0)) + 2.0 * s0 * s2 / (t * (t - 2.0))
        )
        return t * bracket

    probe = -2.0 * (2.0 * g(t0 / 2.0) - g(t0))
    if not cmath.isfinite(probe):
        raise ConvergenceError(
            f"accessory_probe: the residue limit at t = 0 gave {probe!r}, not a finite number")
    return probe


# Quadratic and higher reductions of Heun to hypergeometric exist only for
# isolated parameter sets; each row is (canonical d, q/(alpha beta), local
# parameter constraints at the canonical position).
def _case1_constraints(hp):
    return {"gamma = epsilon": hp.gamma - hp.epsilon}


def _case2_constraints(hp):
    return {"gamma = 1/2": hp.gamma - 0.5, "2 eps - delta = 1": 2.0 * hp.epsilon - hp.delta - 1.0}


def _case3_constraints(hp):
    return {"gamma = delta": hp.gamma - hp.delta, "delta = epsilon": hp.delta - hp.epsilon}


def _case4_constraints(hp):
    return {
        "gamma = 1/2": hp.gamma - 0.5,
        "delta = 1/2": hp.delta - 0.5,
        "epsilon = 2/3": hp.epsilon - 2.0 / 3.0,
    }


def _case5_constraints(hp):
    return {
        "gamma = 2/3": hp.gamma - 2.0 / 3.0,
        "delta = 2/3": hp.delta - 2.0 / 3.0,
        "epsilon = 1/2": hp.epsilon - 0.5,
    }


_MAIER_TABLE = (
    (1, 2.0 + 0j, 1.0 + 0j, _case1_constraints),
    (2, 4.0 + 0j, 1.0 + 0j, _case2_constraints),
    (3, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 + math.sqrt(3) / 6 * 1j, _case3_constraints),
    (4, 0.5 + 5 * math.sqrt(2) / 4 * 1j, 0.5 + math.sqrt(2) / 4 * 1j, _case4_constraints),
    (5, 0.5 + 11 * math.sqrt(15) / 90 * 1j, 0.5 + math.sqrt(15) / 18 * 1j, _case5_constraints),
)


class MaierMatch(NamedTuple):
    """A Heun parameter set landed on a row of the reduction table."""

    case_id: int
    d_canonical: complex
    affine: tuple  # (a, b) with u = a t + b moving d onto d_canonical
    normalized: HeunParams
    residuals: dict


def _affine_variants(hp):
    """All relabelings u = a t + b of {0, 1, d} keeping oo fixed."""
    # (Pa, Pb, Pc) move to (0, 1, d_new); maier_classify takes the first match, so order counts
    pts = ((0.0 + 0j, hp.gamma), (1.0 + 0j, hp.delta), (complex(hp.d), hp.epsilon))
    out = []
    for (Pa, ga), (Pb, gb), (Pc, gc) in itertools.permutations(pts):
        a = 1.0 / (Pb - Pa)
        bshift = -Pa / (Pb - Pa)
        d_new = (Pc - Pa) / (Pb - Pa)
        q_new = a * hp.q + bshift * hp.alpha * hp.beta
        out.append(((a, bshift), d_new, ga, gb, gc, q_new))
    return out


def maier_classify(hp):
    """Locate hp in the hypergeometric-reduction table; None if absent.

    Raises VerificationError when both q and alpha*beta vanish, since the
    multiplicative constraints are then vacuous and the equation is
    degenerate rather than genuinely reducible.
    """
    ab = hp.alpha * hp.beta
    scale = max(abs(ab), abs(hp.q), 1.0)
    if abs(ab) <= _TOL * scale and abs(hp.q) <= _TOL * scale:
        raise VerificationError(
            "degenerate Heun equation: q and alpha*beta both vanish, "
            "reduction table does not apply"
        )
    variants = _affine_variants(hp)
    for case_id, d0, ratio, constraints in _MAIER_TABLE:
        for (aa, bb), d_new, ga, gb, gc, q_new in variants:
            if abs(d_new - d0) > _TOL:
                continue
            cand = HeunParams(d0, hp.alpha, hp.beta, ga, gb, gc, q_new)
            resid = dict(constraints(cand))
            resid["q = ratio * alpha beta"] = q_new - ratio * ab
            if all(abs(v) <= _TOL * scale for v in resid.values()):
                return MaierMatch(case_id, d0, (aa, bb), cand, resid)
    return None


class HypergeomParams(NamedTuple):
    """2F1 parameters of the pulled-back equation F(alpha, beta; gamma; z)."""

    alpha: complex
    beta: complex
    gamma: complex

    @staticmethod
    def z_of_t(t):
        return t * (2.0 - t)


def reduce_case1(hp):
    """Degenerate a symmetric Heun equation via z = t(2 - t).

    Needs d = 2, q = alpha beta, gamma = epsilon; the solution becomes
    2F1(alpha/2, beta/2; gamma; t(2 - t)).
    """
    ab = hp.alpha * hp.beta
    scale = max(abs(ab), abs(hp.q), 1.0)
    checks = {
        "d = 2": abs(complex(hp.d) - 2.0),
        "q = alpha beta": abs(hp.q - ab) / scale,
        "gamma = epsilon": abs(hp.gamma - hp.epsilon),
    }
    bad = {k: v for k, v in checks.items() if v > _TOL}
    if bad:
        raise ValidationError(f"not a symmetric (case 1) Heun equation: {bad}")
    return HypergeomParams(hp.alpha / 2.0, hp.beta / 2.0, hp.gamma)


# where case1_pullback_residual compares the two equations: away from the
# pullback's singular points, min(|z|, |1 - z|, |2(1 - t)|) = 0.0225 over them
_PULLBACK_POINTS = (0.3 + 0j, 0.85 + 0j, 1.4 + 0.2j, 0.6 - 0.3j)


def case1_pullback_residual(hp):
    """Max deviation between the Heun coefficients and the pullback of the
    hypergeometric equation under z = t(2 - t); zero in exact arithmetic."""
    hyp = reduce_case1(hp)
    al, be, ga = hyp.alpha, hyp.beta, hyp.gamma
    worst = 0.0
    for t in _PULLBACK_POINTS:
        z = HypergeomParams.z_of_t(t)
        dphi = 2.0 * (1.0 - t)
        p_pb = 2.0 / dphi + dphi * (ga - (al + be + 1.0) * z) / (z * (1.0 - z))
        q_pb = -al * be * dphi * dphi / (z * (1.0 - z))
        p_heun = hp.gamma / t + hp.delta / (t - 1.0) + hp.epsilon / (t - hp.d)
        q_heun = (hp.alpha * hp.beta * t - hp.q) / (t * (t - 1.0) * (t - hp.d))
        worst = max(worst, abs(p_pb - p_heun), abs(q_pb - q_heun))
    return worst
