"""Numerical oracles, independent of every closed form in the package.

Shooting continues the regular solution of the radial equation from both
singular ends to a matching point and roots the scaled Wronskian there -- no
quantization condition, no hypergeometric function enters.  The only
equation it evaluates is radial.reduced_equation's polynomial form, mapped
to each end's own variable x (r and 1/r for Coulomb, both marched to x = 1;
r and 1 - r for the oscillator, both marched to x = 1/2):

    A x^2 f'' + B x f' + (C0 + E C1) f = 0.

Each half starts from the Frobenius series x^rho sum c_j x^j of the regular
solution at its end (DLMF 2.7(i)), summed at x = _OFFSET, and continues by
Taylor steps at regular centres c with h = min(c/2, x_end - c): on both
intervals the nearest singularity is the half's own end, at distance c.
Both kinds of series come from one short linear recurrence (van der Hoeven,
"Fast evaluation of holonomic functions", Theor. Comput. Sci. 210 (1999)
199): see _recurrence.  A series is summed until its last two terms fall
below _SERIES_TOL of the sums.  Where it has not converged within _TERMS
terms, or its largest term exceeds the sums by more than _GROWTH, the step
is halved (the start offset down to _EPS) and the same coefficients are
summed again.  Each state is normalized by a power of two.  The energy-free
parts of every recurrence are built once per shooting_eigenvalue call, and
the march of both halves at one energy may sum at most _MAX_TERMS series
terms.  The root is polished by Brent's method in plain Python, so shooting
imports nothing beyond the standard library.

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
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError, VerificationError
from .jets import scaled_residual
from .radial import (
    KIND_COULOMB,
    _check_compatible,
    _check_energy,
    _check_kind,
    _shift,
    reduced_equation,
    spectral_ode,  # noqa: F401 -- not called; the benchmark tracer wraps oracle.spectral_ode
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


_OFFSET = 0.3        # first start offset from each singular end
_EPS = 1e-5          # last start offset: a start series not converged there raises
_TERMS = 256         # terms of one series before its step is halved
_SERIES_TOL = 1e-17  # the last two terms, relative to the sums
_GROWTH = 2.0 ** 10  # the largest term, relative to the sums
_MAX_TERMS = 100_000 # series terms one march of both halves may sum
_SCAN_POINTS = 8     # bracket subdivisions when hunting a sign change
_XTOL = 1e-14        # Brent's tolerance, times the energy scale
_MAX_ITER = 100      # Brent iterations
# the shooting_eigenvalue call in progress: its two ends and recurrences,
# built once, and the series terms its marches summed
_CALL = contextvars.ContextVar("shooting_call")
JOINT_TOL = 1e-10    # joint_diagonalize's default null-space tolerance
RESIDUAL_TOLERANCE = 1e-9  # every scaled ODE residual: `verified`, criteria 6 and 8


class ShootingResult(NamedTuple):
    """One located level, with the scan subinterval that bracketed it.

    `mismatch` is |shooting_mismatch| at the returned energy, at most 1.
    It does not measure the root's quality where the scaled Wronskian turns
    steeply: for Coulomb at R = 1000 and 1200 (n = 3, case 1, m_k = 1, unit
    masses and coupling) it jumps from -1 to +1 within Brent's xtol.  There
    `bracket`, inside which the mismatch changes sign, and the closed form
    judge a root.
    """

    energy: float
    mismatch: float
    bracket: tuple
    evaluations: int   # distinct mismatch evaluations, scan and Brent together
    iterations: int    # Brent iterations; 0 when a scan energy was an exact zero
    series_terms: int  # series terms summed by every march


# the end state of one march and the series terms it summed
_March = collections.namedtuple("_March", "y nfev")


class _End(NamedTuple):
    """One singular end of A x^2 f'' + B x f' + (C0 + E C1) f = 0.

    A, B, C0 and C1 are polynomials in the end's own variable x, ascending
    coefficient lists of one length, and rho is the regular indicial
    exponent there.
    """

    A: list
    B: list
    C0: list
    C1: list
    rho: float


class _Ends(NamedTuple):
    inner: _End
    outer: _End
    match: float  # the matching point in both ends' x


def _end(A, B, C0, C1, rho):
    """The _End of A x^2 f'' + B x f' + (C0 + E C1) f = 0, its lists padded to one length."""
    width = max(map(len, (A, B, C0, C1)))
    return _End(*(poly + [0.0] * (width - len(poly)) for poly in (A, B, C0, C1)), rho)


def _series_ends(kind, params, coeffs):
    """Both ends' _End, from radial.reduced_equation's polynomial form at each end."""
    inner, outer = reduced_equation(kind, params, coeffs).ends()
    return _Ends(_end(*inner), _end(*outer), 1.0 if kind == KIND_COULOMB else 0.5)


def _weights(s, beta):
    """1/(m (2 s + m - 1 + beta)), m + s and (m + s)(m + s - 1) for m < _TERMS.

    The first is 0.0 where it is never read: at m = 0, and at m = 1 about a
    regular point.
    """
    leads = [m * (2.0 * s + m - 1.0 + beta) for m in range(_TERMS)]
    d1 = [m + s for m in range(_TERMS)]
    return [1.0 / u if u else 0.0 for u in leads], d1, [d * (d - 1.0) for d in d1]


_REGULAR = _weights(0.0, 0.0)  # about every regular point


def _recurrence(end, c):
    """The energy-free parts of the series of `end`'s equation about x = c.

    The equation is taken in Frobenius form a t^2 f'' + b t f' + (c0 + E c1) f
    = 0 in t = x - c: at c = 0 it is the end's own, with exponent s = rho;
    at a regular c it is the equation times t^2, with x^2 A, x B, C0 and C1
    shifted to c, and s = 0, so that f(c) and f'(c) are free.  With f = t^s
    sum y_m t^m, D1_m = (m + s) y_m and D2_m = (m + s - 1) D1_m, the terms at
    t^(m + s) give, since s solves the indicial equation,

        m (a_0 (2 s + m - 1) + b_0) y_m
            = -sum_{i >= 1} [a_i D2_{m-i} + b_i D1_{m-i} + (c0_i + E c1_i) y_{m-i}].

    Returns (c0_i, b_i, a_i) and (c1_i, 0, 0) times -1/a_0, interleaved for
    i from the width down to 1, and the _weights.
    """
    a, b, c0, c1, s = end
    if c:
        a, b, c0, c1 = (_shift([0.0, 0.0] + a, c), [0.0] + _shift([0.0] + b, c),
                        [0.0, 0.0] + _shift(c0, c), [0.0, 0.0] + _shift(c1, c))
    scale = -1.0 / a[0]
    k0, k1 = [], []
    for i in range(len(a) - 1, 0, -1):
        k0 += (scale * c0[i], scale * b[i], scale * a[i])
        k1 += (scale * c1[i], 0.0, 0.0)
    return (k0, k1, *(_REGULAR if c else _weights(s, b[0] / a[0])))


def _series(call, half, c):
    """The _recurrence of one half about c, built once per call."""
    rec = call.series.get((half, c))
    if rec is None:
        rec = call.series[half, c] = _recurrence(call.ends[half], c)
    return rec


def _sum(rec, start, energy, x, x_min, budget):
    """Sum one series of `rec` at distance x from its centre.

    `start` holds the free coefficients.  Each coefficient is kept as its
    term at x, z_m = y_m x^m, with D1 and D2 scaled alike; halving x scales
    them by 2^-m, exactly, so a halving sums the same coefficients again.
    Returns (x, sum z_m, sum D1_m x^m, budget) at the first of x, x/2, ...
    where the sums converge and pass the growth rule.  A coefficient past
    the float range is dropped with all after it.  ConvergenceError when x
    falls below x_min (the start's last offset), or when the terms summed
    exceed the march's budget.
    """
    k0, k1, lead, d1, d2 = rec
    n = len(k0)
    K = [(u + energy * v) * x ** (n // 3 - j // 3) for j, (u, v) in enumerate(zip(k0, k1))]
    Z = [0.0] * n  # n zeros, then (z, D1, D2) per coefficient
    for m, y in enumerate(start):
        y *= x ** m
        Z += (y, d1[m] * y, d2[m] * y)
    top = _TERMS
    while True:
        f = g = big = last = 0.0
        for m in range(top):
            if n + 3 * m == len(Z):
                z = sum(map(operator.mul, Z[-n:], K)) * lead[m]
                dz = d1[m] * z
                Z += (z, dz, d2[m] * z)
            else:
                z, dz = Z[n + 3 * m], Z[n + 3 * m + 1]
            f += z
            g += dz
            size = abs(z) + abs(dz)
            if size > big:
                big = size
            if size + last < _SERIES_TOL * (abs(f) + abs(g)):
                passed = big <= _GROWTH * (abs(f) + abs(g))
                break
            last = size
        else:
            passed = False
        budget -= m + 1
        if budget < 0:
            raise ConvergenceError(
                f"the march at E = {energy} summed more than its budget of "
                f"{_MAX_TERMS} series terms")
        if passed:
            return x, f, g, budget
        x /= 2.0
        if x < x_min:
            raise ConvergenceError(
                f"the Frobenius start series at E = {energy} have not converged "
                f"by the last start offset {_EPS}")
        if not math.isfinite(sum(Z[-3:])):
            top = next(j for j in range(n, len(Z), 3) if not math.isfinite(sum(Z[j:j + 3])))
            del Z[top:]
            top = (top - n) // 3
        Z[n:] = [v * 0.5 ** (j // 3) for j, v in enumerate(Z[n:])]
        K = [v * 0.5 ** (n // 3 - j // 3) for j, v in enumerate(K)]


def _start(call, half, energy, budget):
    """(x0, f, df/dx) / x0^rho of one half's Frobenius start, and the budget left."""
    x, f, g, budget = _sum(_series(call, half, 0.0), [1.0], energy, _OFFSET, _EPS, budget)
    return x, f, g / x, budget


def solve_ivp(call, energy):
    """Both halves at one energy, continued from their starts to the matching point.

    Returns _March(y, nfev): y holds (f, df/dx) of the inner and of the outer
    half, each in its own x and normalized by a power of two, and nfev the
    series terms summed.  Each Taylor step sums at its centre c the series
    of _recurrence, from f(c) and f'(c), at h = min(c/2, x_end - c), or less
    where _sum halves it.  The name is kept from the integrator this
    replaced: the benchmark's tracer patches it at this import site and reads
    `nfev` from its result.
    """
    budget = _MAX_TERMS
    y = []
    for half in (0, 1):
        x, f, df, budget = _start(call, half, energy, budget)
        f, df = _binary_normalized(f, df)
        while x < call.ends.match:
            h, f, g, budget = _sum(_series(call, half, x), [f, df], energy,
                                   min(x / 2.0, call.ends.match - x), 0.0, budget)
            x += h
            f, df = _binary_normalized(f, g / h)
        y += (f, df)
    return _March(y, _MAX_TERMS - budget)


def _binary_normalized(f, df):
    """(f, df) divided by the power of two that brings the larger below 1.

    A power of two is exact, so the mantissas are untouched.
    """
    exp = math.frexp(max(abs(f), abs(df)))[1]
    return math.ldexp(f, -exp), math.ldexp(df, -exp)


def _new_call(kind, params, coeffs):
    """A call record: both ends, their recurrences by centre, the terms summed."""
    return types.SimpleNamespace(ends=_series_ends(kind, params, coeffs), series={}, terms=0)


def shooting_mismatch(kind, params, coeffs, energy):
    """Scaled Wronskian of the two half-solutions at the matching point.

    Zero exactly at eigenvalues; smooth and sign-changing across them.  The
    outer half's x runs against r, so its derivative changes sign.  Raises
    ValidationError on a non-real or non-finite energy.
    """
    _check_kind(kind)
    _check_compatible(params, coeffs)
    _check_energy(energy)
    call = _CALL.get(None) or _new_call(kind, params, coeffs)
    march = solve_ivp(call, float(energy))
    call.terms += march.nfev
    fi, fpi, fo, fpo = march.y
    wron = -fi * fpo - fpi * fo
    scale = abs(fi * fpo) + abs(fpi * fo) + 1e-300
    return wron / scale


def _brent(f, xpre, xcur, xtol):
    """A root of f between xpre and xcur, where f changes sign, and the iterations.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) step for step as the usual brentq routine runs it: the same
    bracket updates and iteration count, with rtol 1e-15 and at most
    _MAX_ITER iterations.
    """
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _MAX_ITER + 1):
        if fpre and fcur and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 1e-15 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {_MAX_ITER} iterations")


def shooting_eigenvalue(kind, params, coeffs, e_lo, e_hi):
    """Locate one eigenvalue inside [e_lo, e_hi] by a scan and Brent's method.

    Walks 8 subintervals left to right, stops at the first sign change of
    the mismatch and polishes it with _brent, so a bracket holding several
    levels yields the lowest.  Each energy is marched once per call, and both
    ends and their recurrences are built once per call.  Raises
    ValidationError on a non-real, non-finite or empty bracket, or one
    whose width is not finite, and ConvergenceError when the bracket
    contains no sign change.
    """
    _check_energy(e_lo)
    _check_energy(e_hi)
    if not e_lo < e_hi:
        raise ValidationError(f"empty energy bracket [{e_lo}, {e_hi}]")
    memo = {}

    def w(E):
        if E not in memo:
            memo[E] = shooting_mismatch(kind, params, coeffs, E)
        return memo[E]

    lo, hi = float(e_lo), float(e_hi)
    step = (hi - lo) / _SCAN_POINTS
    if not math.isfinite(step):
        raise ValidationError(f"energy bracket [{e_lo}, {e_hi}] has a non-finite width")
    grid = [lo + i * step for i in range(_SCAN_POINTS)] + [hi]
    _check_kind(kind)
    _check_compatible(params, coeffs)
    call = _new_call(kind, params, coeffs)
    token = _CALL.set(call)
    try:
        for Ea, Eb in zip(grid, grid[1:]):
            wa = w(Ea)
            if wa == 0.0:
                return ShootingResult(Ea, 0.0, (Ea, Eb), len(memo), 0, call.terms)
            if wa * w(Eb) < 0.0:
                scale = max(1.0, abs(e_lo), abs(e_hi))
                root, iterations = _brent(w, Ea, Eb, _XTOL * scale)
                return ShootingResult(root, abs(w(root)), (Ea, Eb), len(memo), iterations,
                                      call.terms)
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


def _check_node_count(nodes):
    """ValidationError unless nodes is a positive int.

    A cache keyed on nodes calls this before its lookup, since 240.0 and
    True hash like 240 and 1.
    """
    if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1:
        raise ValidationError(f"quadrature needs a positive integer node count, got {nodes!r}")


def gauss_legendre(a, b, nodes):
    """Nodes and weights on (a, b); ValidationError unless nodes is a positive int."""
    _check_node_count(nodes)
    x, w = _legendre_rule(nodes)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


class JointEigenspace(NamedTuple):
    """One eigenvalue per matrix of a family, and an orthonormal basis of the joint eigenvectors."""

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
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    for M in mats:
        if d < 1 or M.shape != (d, d):
            raise ValidationError("matrices must be square, of equal size and at least 1 x 1")

    peaks = [np.abs(M).max() for M in mats]
    if not all(map(math.isfinite, peaks)):
        raise ValidationError("matrix entries must be finite")
    scale = max(1.0, *peaks)
    if require_commuting:
        worst_comm = 0.0
        for Mi, Mj in itertools.combinations(mats, 2):
            worst_comm = max(worst_comm, np.abs(Mi @ Mj - Mj @ Mi).max())
        if worst_comm > tol * scale * scale:
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
            null_dim = int(np.sum(sv <= tol * max(1.0, sv[0])))
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
