"""Numerical oracles, independent of every closed form in the package.

Shooting integrates the radial equation with LSODA from Frobenius starts at
both endpoints and roots the Wronskian mismatch at a midpoint -- no
quantization condition, no hypergeometric function enters.  The Coulomb
problem is marched in the polar angle theta = 2 arctan r, so that both
endpoints are at finite coordinate and the equation reads f'' + P f' + Q f = 0
with

    P = (n-1) cot(theta),
    Q = 2 [m R^2 E - b + m R g cot(theta) - a cot^2(theta/2) - c tan^2(theta/2)];

the oscillator is marched in r on (0, 1) directly.  Measured from its own
endpoint, each half covers the same interval, so both are marched together:
one energy is one compiled scipy.integrate.odeint call on the stacked state
(f_in, f_in', f_out, f_out'), each half with its own absolute tolerance, and
Python runs only the right-hand side.  That right-hand side evaluates each
equation in reduced closed form, with every energy-dependent constant taken
out of it, and the two Coulomb halves share one tan(phi/2).

Each half starts from the full Frobenius series x^rho sum c_j x^j of the
regular solution at its singular end (DLMF 2.7(i)), in the end's own
variable x (r and 1/r for Coulomb, r and 1 - r for the oscillator).  The
series comes from the indicial form x^2 f'' + x P f' + (Q0 + E Q1) f = 0,
with P, Q0 and Q1 as Taylor series of ratios of polynomials and rho from
radial.endpoint_exponent / wall_exponent: the equation and its exponents,
no closed-form level.  Both halves start at the offset _OFFSET, halved
until both series meet _SERIES_TOL within _TERMS terms, so the start is
exact to rounding and LSODA marches only the regular part.  Where a series
has not converged by _EPS (from m R^2 |E| ~ 3e9 for the oscillator and
~ 1.2e10 for Coulomb at n = 3, case 1, m_k = 1) ConvergenceError is raised
before any march.  A march may spend at most _MAX_RHS_EVALS right-hand-side
evaluations, and LSODA's step limit is set to the same number so the
evaluation count is the only work bound; a march that passes it or that
LSODA stops early raises ConvergenceError.

joint_diagonalize finds the common eigenvectors of a family of matrices by
intersecting eigenspace candidates with stacked SVDs, walking the eigenvalue
combinations depth-first and dropping every combination whose partial stack
already has no null space.  The family is NOT assumed commuting: by default
a commutator check runs first and a failure raises, since common
eigenvectors of a noncommuting family span only part of the space; pass
require_commuting=False to search anyway (that partial span is exactly what
the invariant-operator classification predicts, so the cross-check needs
the opt-out).
"""

import collections
import contextvars
import functools
import itertools
import math
import operator
import types
import warnings
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError, VerificationError
from .jets import scaled_residual
from .radial import (
    KIND_COULOMB,
    _check_compatible,
    _check_energy,
    _check_kind,
    endpoint_exponent,
    spectral_ode,  # noqa: F401 -- not called; the benchmark tracer wraps oracle.spectral_ode
    wall_exponent,
)

__all__ = [
    "ShootingResult",
    "shooting_mismatch",
    "shooting_eigenvalue",
    "RESIDUAL_TOLERANCE",
    "ode_residual",
    "gauss_legendre",
    "JointEigenspace",
    "joint_diagonalize",
]


_OFFSET = 0.05       # first offset of a march's start from the singular endpoints
_EPS = 1e-5          # last offset: a series not converged there raises
_TERMS = 22          # Frobenius series terms at most
_SERIES_TOL = 1e-18  # the last two terms, relative to the series' sum
_RTOL = 1e-10
_ATOL_SCALE = 1e-12  # atol = _ATOL_SCALE * |start vector|
_SCAN_POINTS = 8     # bracket subdivisions when hunting a sign change
_XTOL = 1e-11        # brentq tolerance, times the energy scale
# Right-hand-side evaluations allowed per (stacked) march, and so also LSODA's
# step limit.  A march on the criteria grids needs at most 390; at very large
# energies LSODA can otherwise spin inside a single step forever.
_MAX_RHS_EVALS = 100_000
# the shooting_eigenvalue call in progress: its endpoint series, built once,
# and the right-hand-side evaluations its marches spent, summed by _march
# without changing what shooting_mismatch returns
_CALL = contextvars.ContextVar("shooting_call")
JOINT_TOL = 1e-10    # joint_diagonalize's default null-space tolerance
RESIDUAL_TOLERANCE = 1e-9  # every scaled ODE residual: `verified`, criteria 6 and 8


class ShootingResult(NamedTuple):
    """One located level, with the scan subinterval that bracketed it.

    `mismatch` is |shooting_mismatch| at the returned energy, at most 1.
    It does not measure the root's quality where the scaled Wronskian turns
    steeply: for Coulomb at R = 1000 and 1200 (n = 3, case 1, m_k = 1, unit
    masses and coupling) it jumps from -1 to +1 within Brent's xtol, so the
    k = 1 level, 9.1e-11 off, reads mismatch 1.0.  There `bracket`, inside
    which the mismatch changes sign, and the closed form judge a root.
    """

    energy: float
    mismatch: float
    bracket: tuple
    evaluations: int  # distinct mismatch evaluations, scan and Brent together
    iterations: int   # Brent iterations; 0 when a scan energy was an exact zero
    rhs_evaluations: int = 0  # right-hand-side evaluations of every march, summed


# the end state of one march and the right-hand-side evaluations it spent
_March = collections.namedtuple("_March", "y nfev")


def solve_ivp(rhs, t0, t1, y0, atol):
    """One LSODA march from t0 to t1 as a single scipy.integrate.odeint call.

    scipy is imported on first call.  The whole march runs in compiled
    ODEPACK code and Python is entered only for rhs(t, y).  t0 is the start
    offset that _start chose, where the Frobenius series is already exact,
    so the march never creeps away from a singular end.  Returns the state
    at t1 and the right-hand-side evaluations spent.  The name is kept from
    the solve_ivp this replaced because tracing wrappers patch the march at
    this import site and read `nfev` from its result.  Raises
    ConvergenceError past _MAX_RHS_EVALS evaluations, when LSODA stops
    early, or when the end state left the float range (LSODA can report
    success on a state that overflowed to NaN).
    """
    from scipy.integrate import ODEintWarning, odeint

    nfev = 0

    def bounded(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > _MAX_RHS_EVALS:
            raise ConvergenceError(
                f"integration from {t0} to {t1} exceeded {_MAX_RHS_EVALS} "
                "right-hand-side evaluations"
            )
        return rhs(t, y)

    # the step limit is the evaluation bound, so the evaluation count stays
    # the only work bound; odeint warns even with full_output, and a failed
    # march raises below instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(
            bounded, y0, (t0, t1), rtol=_RTOL, atol=atol, mxstep=_MAX_RHS_EVALS,
            full_output=True, tfirst=True,
        )
    if info["message"] != "Integration successful.":
        raise ConvergenceError(
            f"integration from {t0} to {t1} failed after {nfev} "
            f"right-hand-side evaluations: {info['message']}"
        )
    if not all(map(math.isfinite, ys[-1])):
        raise ConvergenceError(
            f"integration from {t0} to {t1} left the float range after {nfev} "
            "right-hand-side evaluations"
        )
    return _March(ys[-1], nfev)


def _march(rhs, t1, ends, energy):
    """March both halves as one stacked state (f_in, f_in', f_out, f_out').

    Both start at _start's offset t0 from their endpoints.  Each half keeps
    its own absolute tolerance, scaled by its start vector.  Returns the two
    half-states at t1.
    """
    t0, y_in, y_out = _start(ends, energy)
    atol_in = _ATOL_SCALE * max(abs(y_in[0]), abs(y_in[1]))
    atol_out = _ATOL_SCALE * max(abs(y_out[0]), abs(y_out[1]))
    sol = solve_ivp(rhs, t0, t1, (*y_in, *y_out), (atol_in, atol_in, atol_out, atol_out))
    call = _CALL.get(None)
    if call is not None:
        call.rhs_spent += sol.nfev
    y = sol.y
    return (y[0], y[1]), (y[2], y[3])


class _End(NamedTuple):
    """One singular end of x^2 f'' + x P(x) f' + (Q0(x) + E Q1(x)) f = 0.

    P, Q0 and Q1 are Taylor coefficient lists in the end's own variable x,
    and rho is the regular indicial exponent there.
    """

    P: list
    Q0: list
    Q1: list
    rho: float


class _Ends(NamedTuple):
    inner: _End
    outer: _End
    angle: bool  # x = tan(t/2) and d/dtheta (Coulomb), else x = t and d/dr


def _taylor(*fractions):
    """Taylor coefficients 0.._TERMS at x = 0 of a sum of fractions.

    Each fraction is (num, den_1, den_2, ...), polynomials as ascending
    coefficient lists, for num(x) / (den_1(x) den_2(x) ...).
    """
    out = [0.0] * (_TERMS + 1)
    for num, *dens in fractions:
        series = num + [0.0] * (_TERMS + 1 - len(num))
        for den in dens:
            quotient, head, tail = [], den[0], den[1:]
            for j in range(_TERMS + 1):
                # quotient[j-1], quotient[j-2], ... against den[1], den[2], ...
                rest = sum(map(operator.mul, tail, quotient[:-len(den):-1]))
                quotient.append((series[j] - rest) / head)
            series = quotient
        out = [u + v for u, v in zip(out, series)]
    return out


def _series_ends(kind, params, coeffs):
    """Both ends of the radial equation in indicial form, as Taylor series.

    Coulomb in r = tan(theta/2): P = (n-1 + (3-n) x^2)/(1 + x^2) and
    Q = 8 [(m R^2 E - b) x^2 + (m R g/2)(x - x^3) - a - c x^4]/(1 + x^2)^2 at
    x = r; at x = 1/r the same with a <-> c and g -> -g.  The oscillator at
    x = r has the same P and Q = 8 [(m R^2 E - b) x^2 - a - c x^4]/(1 + x^2)^2
    - 8 w x^4/((1 + x^2)(1 - x^2))^2 with w = 2 m R^4 g^2, and at x = 1 - r
    P = -x p(r), Q = x^2 q(r) for the p, q of _oscillator_halves.
    """
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    mR2 = m * R * R
    one = [1.0, 0.0, 1.0]  # 1 + x^2
    P = _taylor(([n - 1.0, 0.0, 3.0 - n], one))
    Q1 = _taylor(([0.0, 0.0, 8.0 * mR2], one, one))
    if kind == KIND_COULOMB:
        def end(a, c, h):
            return _End(P, _taylor(([-8.0 * a, h, -8.0 * b, -h, -8.0 * c], one, one)), Q1,
                        endpoint_exponent(n, a))

        h = 4.0 * m * R * g
        return _Ends(end(a, c, h), end(c, a, -h), True)
    w8 = 16.0 * mR2 * R * R * g * g  # 8 w
    wall = [1.0, 0.0, -1.0]  # 1 - x^2
    inner = _End(P, _taylor(([-8.0 * a, 0.0, -8.0 * b, 0.0, -8.0 * c], one, one),
                            ([0.0, 0.0, 0.0, 0.0, -w8], one, one, wall, wall)),
                 Q1, endpoint_exponent(n, a))
    # r = 1 - x, so 1 + r^2 = 2 - 2x + x^2 and 1 - r^2 = x (2 - x)
    r, one_r, two = [1.0, -1.0], [2.0, -2.0, 1.0], [2.0, -1.0]
    outer = _End(
        _taylor(([0.0, -2.0, 2.0 * (3.0 - n), n - 3.0], one_r, r)),
        _taylor(([0.0, 0.0, -8.0 * (b + c), 16.0 * c, -8.0 * c], one_r, one_r),
                ([0.0, 0.0, -8.0 * a], r, r, one_r, one_r),
                ([-w8, 2.0 * w8, -w8], two, two, one_r, one_r)),
        _taylor(([0.0, 0.0, 8.0 * mR2], one_r, one_r)),
        wall_exponent(params),
    )
    return _Ends(inner, outer, False)


def _frobenius(end, energy):
    """Coefficients c_j and (rho + j) c_j, j <= _TERMS, of f = x^rho sum c_j x^j.

    The recurrence is c_j F(rho + j) = -sum_i c_{j-i} [P_i (rho + j - i) + Q_i]
    with c_0 = 1, and F(rho + j) = j (j + 2 rho - 1 + P_0) since F(rho) = 0.
    Plain floats: past the float range a coefficient turns inf or NaN
    silently, and _series_state rejects it.
    """
    P, rho = end.P, end.rho
    Q = [u + energy * v for u, v in zip(end.Q0, end.Q1)]
    gap = 2.0 * rho - 1.0 + P[0]
    c, d = [1.0], [rho]
    for j in range(1, _TERMS + 1):
        s = sum(map(operator.mul, d, P[j:0:-1])) + sum(map(operator.mul, c, Q[j:0:-1]))
        c.append(-s / (j * (j + gap)))
        d.append((rho + j) * c[j])
    return c, d


def _series_state(c, d, x):
    """(f, df/dx) / x^rho at x from _frobenius's sums.

    None unless the last two terms of both sums lie within _SERIES_TOL of
    the larger sum.
    """
    sf = sd = 0.0
    for cj, dj in zip(reversed(c), reversed(d)):
        sf = sf * x + cj
        sd = sd * x + dj
    tail = (max(abs(c[-2]), abs(d[-2])) + max(abs(c[-1]), abs(d[-1])) * x) * x ** (_TERMS - 1)
    if math.isfinite(sf) and math.isfinite(sd) and tail <= _SERIES_TOL * max(abs(sf), abs(sd)):
        return sf, sd / x
    return None


def _start(ends, energy):
    """Offset t0 and both halves' start states (f, df/dt) / x^rho at t0.

    t0 is _OFFSET, halved down to _EPS until both Frobenius series converge
    there; ConvergenceError if they have not by _EPS.  Dividing a half by
    x^rho > 0 changes neither the mismatch nor the march, whose tolerance
    scales with the start vector, and keeps x^rho from underflowing.  The
    outer half's derivative is d/dtheta or d/dr, the negative of d/dt.
    """
    series = [_frobenius(end, energy) for end in ends[:2]]
    t = _OFFSET
    while True:
        x = math.tan(t / 2.0) if ends.angle else t
        states = [_series_state(c, d, x) for c, d in series]
        if None not in states:
            break
        if t == _EPS:
            raise ConvergenceError(
                f"the Frobenius start series at E = {energy} have not converged "
                f"by the last start offset {_EPS}")
        t = max(t / 2.0, _EPS)
    dxdt = (1.0 + x * x) / 2.0 if ends.angle else 1.0
    (f_in, d_in), (f_out, d_out) = states
    return t, (f_in, d_in * dxdt), (f_out, -d_out * dxdt)


def _coulomb_halves(params, coeffs, energy, ends):
    """Both halves in phi from t0 to pi/2: theta = phi inside, pi - phi outside.

    The equation is the module docstring's f'' + P f' + Q f = 0 in theta.
    Every derivative is d/dtheta, so the outer half's right-hand side is the
    inner one's with the sign flipped at theta = pi - phi, where cot theta =
    -cot phi and the half-angle tangent and cotangent trade places: both
    halves share t = tan(phi/2), 1/t and cot phi = (1/t - t)/2.
    """
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, c = float(coeffs.a), float(coeffs.c)
    e = m * R * R * energy - float(coeffs.b)
    h = m * R * g
    n1 = n - 1.0

    def rhs(phi, y):
        f_in, d_in, f_out, d_out = y.tolist()  # plain floats: numpy scalars are slower
        t = math.tan(phi / 2.0)
        u = 1.0 / t
        t2, u2 = t * t, u * u
        cot = (u - t) / 2.0
        P = n1 * cot
        Q_in = 2.0 * (e + h * cot - a * u2 - c * t2)
        Q_out = 2.0 * (e - h * cot - a * t2 - c * u2)
        return (d_in, -P * d_in - Q_in * f_in, -d_out, -P * d_out + Q_out * f_out)

    return _march(rhs, math.pi / 2.0, ends, energy)


def _oscillator_halves(params, coeffs, energy, ends):
    """Both halves in s from t0 to 1/2: r = s inside, 1 - s outside.

    In r the equation is f'' + p f' + q f = 0 with
    p = (n - 1 + (3 - n) r^2) / ((1 + r^2) r) and
    q = 8 [m R^2 E - b - a/r^2 - c r^2 - 2 m R^4 g^2 r^2/(1 - r^2)^2] / (1 + r^2)^2.
    Every derivative is d/dr, so the outer half's right-hand side is the
    inner one's with the sign flipped, at r = 1 - s.
    """
    m, R, g = params.reduced_mass, params.radius, params.coupling
    a, c = float(coeffs.a), float(coeffs.c)
    mR2 = m * R * R
    e = mR2 * energy - float(coeffs.b)
    w = mR2 * (2.0 * R * R * g * g)
    n1, n3 = params.n - 1.0, 3.0 - params.n

    def rhs(s, y):
        f_in, d_in, f_out, d_out = y.tolist()
        r = 1.0 - s
        s2, r2 = s * s, r * r
        one_s, one_r = 1.0 + s2, 1.0 + r2
        wall_s, wall_r = 1.0 - s2, 1.0 - r2
        p_in = (n1 + n3 * s2) / (one_s * s)
        q_in = 8.0 * (e - a / s2 - c * s2 - w * s2 / (wall_s * wall_s)) / (one_s * one_s)
        p_out = (n1 + n3 * r2) / (one_r * r)
        q_out = 8.0 * (e - a / r2 - c * r2 - w * r2 / (wall_r * wall_r)) / (one_r * one_r)
        return (d_in, -p_in * d_in - q_in * f_in, -d_out, p_out * d_out + q_out * f_out)

    return _march(rhs, 0.5, ends, energy)


def _binary_normalized(f, df):
    """(f, df) divided by the power of two that brings the larger below 1.

    A power of two is exact, so the mantissas are untouched.
    """
    exp = math.frexp(max(abs(f), abs(df)))[1]
    return math.ldexp(f, -exp), math.ldexp(df, -exp)


def shooting_mismatch(kind, params, coeffs, energy):
    """Scaled Wronskian of the two half-solutions at the matching point.

    Zero exactly at eigenvalues; smooth and sign-changing across them.
    Each half's end state is normalized by a power of two first: the ratio
    does not change, and half-states near 1e200 (Coulomb at R ~ 1e3) no
    longer overflow the products.  Raises ValidationError on a non-real or
    non-finite energy.
    """
    _check_kind(kind)
    _check_compatible(params, coeffs)
    _check_energy(energy)
    call = _CALL.get(None)
    ends = _series_ends(kind, params, coeffs) if call is None else call.ends
    halves = _coulomb_halves if kind == KIND_COULOMB else _oscillator_halves
    y_in, y_out = halves(params, coeffs, energy, ends)
    fi, fpi = _binary_normalized(*y_in)
    fo, fpo = _binary_normalized(*y_out)
    wron = fi * fpo - fpi * fo
    scale = abs(fi * fpo) + abs(fpi * fo) + 1e-300
    return wron / scale


def shooting_eigenvalue(kind, params, coeffs, e_lo, e_hi):
    """Locate one eigenvalue inside [e_lo, e_hi] by bisection of the mismatch.

    Walks 8 subintervals left to right, stops at the first sign
    change and polishes it with brentq, so a bracket holding several levels
    yields the lowest.  Each energy is marched once per call, and the
    endpoint Taylor series of P, Q0 and Q1 are built once per call, so an
    energy costs only the Frobenius recurrence before its march.  Raises
    ValidationError on a non-real, non-finite or empty bracket and
    ConvergenceError when the bracket contains no sign change.
    """
    import numpy as np

    _check_energy(e_lo)
    _check_energy(e_hi)
    if not e_lo < e_hi:
        raise ValidationError(f"empty energy bracket [{e_lo}, {e_hi}]")
    memo = {}

    def w(E):
        if E not in memo:
            memo[E] = shooting_mismatch(kind, params, coeffs, E)
        return memo[E]

    grid = np.linspace(e_lo, e_hi, _SCAN_POINTS + 1).tolist()
    _check_kind(kind)
    _check_compatible(params, coeffs)
    call = types.SimpleNamespace(ends=_series_ends(kind, params, coeffs), rhs_spent=0)
    token = _CALL.set(call)
    try:
        for Ea, Eb in zip(grid, grid[1:]):
            wa = w(Ea)
            if wa == 0.0:
                return ShootingResult(Ea, 0.0, (Ea, Eb), len(memo), 0, call.rhs_spent)
            if wa * w(Eb) < 0.0:
                from scipy.optimize import brentq

                scale = max(1.0, abs(e_lo), abs(e_hi))
                root, info = brentq(
                    w, Ea, Eb, xtol=_XTOL * scale, rtol=1e-15, full_output=True
                )
                mismatch = float(abs(w(root)))
                return ShootingResult(
                    float(root), mismatch, (Ea, Eb), len(memo), info.iterations,
                    call.rhs_spent,
                )
    finally:
        _CALL.reset(token)
    raise ConvergenceError(
        f"no {kind} eigenvalue bracketed in [{e_lo}, {e_hi}]: "
        f"mismatch keeps sign over {_SCAN_POINTS} subintervals"
    )


def ode_residual(p, q, jet_fn, rs):
    """Max scaled residual |f'' + p f' + q f| over sample points.

    jet_fn(r) must return (f, f', f''); each point is scaled by its own terms.
    A NaN residual at any point is returned as is, never maxed away.
    """
    worst = 0.0
    for r in rs:
        f, df, d2f = jet_fn(float(r))
        res = scaled_residual(d2f, p(r) * df, q(r) * f)
        if math.isnan(res):
            return res
        worst = max(worst, res)
    return worst


@functools.lru_cache(maxsize=16)
def _legendre_rule(nodes):
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), built once."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a, b, nodes):
    """Nodes and weights on (a, b); ValidationError unless nodes is a positive int."""
    if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1:
        raise ValidationError(f"quadrature needs a positive integer node count, got {nodes!r}")
    x, w = _legendre_rule(nodes)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


class JointEigenspace(NamedTuple):
    eigenvalues: tuple  # one per input matrix
    basis: "np.ndarray"  # columns span the joint eigenspace


def _eigenvalue_clusters(mat, tol):
    import numpy as np

    vals = np.linalg.eigvals(mat)
    order = np.lexsort((vals.imag, vals.real))
    clusters = []
    for v in vals[order]:
        if clusters and abs(v - clusters[-1][-1]) <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [complex(np.mean(c)) for c in clusters]


def joint_diagonalize(mats, require_commuting=True, tol=JOINT_TOL):
    """All joint eigenspaces of a family of square matrices.

    Returns JointEigenspace records sorted by eigenvalue tuple: the same
    records, bit for bit, as a full SVD of every eigenvalue combination's
    stack, with the combinations that provably have none pruned early.  With
    require_commuting (the default) a noncommuting family raises
    VerificationError, reporting the worst commutator norm; a non-finite
    entry raises ValidationError.
    """
    import numpy as np

    mats = [np.asarray(M, dtype=complex) for M in mats]
    if not mats:
        raise ValidationError("need at least one matrix")
    d = mats[0].shape[0]
    for M in mats:
        if M.shape != (d, d):
            raise ValidationError("matrices must be square and of equal size")

    peaks = [np.abs(M).max() for M in mats]
    if not all(map(math.isfinite, peaks)):
        raise ValidationError("matrix entries must be finite")
    worst_comm = 0.0
    for Mi, Mj in itertools.combinations(mats, 2):
        nrm = np.abs(Mi @ Mj - Mj @ Mi).max()
        worst_comm = max(worst_comm, nrm)
    scale = max(1.0, *peaks)
    if require_commuting and worst_comm > tol * scale * scale:
        raise VerificationError(
            f"family does not commute (worst commutator entry {worst_comm:.3e}); "
            "pass require_commuting=False to search for partial joint eigenspaces"
        )

    ctol = max(tol, 1e-8) * scale
    clusters = [_eigenvalue_clusters(M, ctol) for M in mats]
    # Every full stack [M_1 - l_1 I; ...] has sigma_max <= bound (the
    # Frobenius norm bounds the spectral one), so its null-space threshold
    # is at most tol * max(1, bound).  Adding rows never lowers sigma_min,
    # so a partial stack whose sigma_min exceeds twice that (margin for
    # rounding) has no joint eigenvector below it: the subtree is dropped.
    bound = math.sqrt(sum(
        (np.linalg.norm(M) + max(abs(lam) for lam in cl)) ** 2
        for M, cl in zip(mats, clusters)
    ))
    prune_above = 2.0 * tol * max(1.0, bound)
    eye = np.eye(d)
    # depth-first over the combinations in cluster order, so the records come
    # out in the same order as a full product; a plain loop, not a recursive
    # closure, so no reference cycle keeps the family alive after the call
    out = []
    pending = [((), None)]
    while pending:
        combo, stack = pending.pop()
        depth = len(combo)
        if depth == len(mats):
            _, sv, vh = np.linalg.svd(stack)
            null_dim = int(np.sum(sv <= tol * max(1.0, sv[0] if len(sv) else 1.0)))
            if null_dim:
                out.append(JointEigenspace(combo, vh[d - null_dim:].T.conj()))
            continue
        M = mats[depth]
        children = []
        for lam in clusters[depth]:
            block = M - lam * eye
            grown = block if stack is None else np.vstack([stack, block])
            if depth + 1 < len(mats) and (
                    np.linalg.svd(grown, compute_uv=False)[-1] > prune_above):
                continue
            children.append((combo + (lam,), grown))
        pending.extend(reversed(children))

    out.sort(key=lambda js: tuple((round(v.real, 9), round(v.imag, 9)) for v in js.eigenvalues))
    return out
