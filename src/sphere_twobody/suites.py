"""Verification suites: every closed form against an independent route.

Each check_* function walks its whole parameter grid through one fold,
`_fold`, into a CheckResult with numeric fields.  A row fails unless
deviation <= tolerance, so NaN fails; a case that raises fails with the
exception text, and the fold moves on.  Suites bundle the checks for the
command-line `verify` subcommand; the acceptance tests run the same
functions, so CLI verification and the test suite cannot drift apart.
"""

import collections
import itertools
import math
import random
import time
import types
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError, VerificationError
from .fuchsian import (
    accessory_parameter_probe,
    case1_pullback_residual,
    coulomb_exponents,
    maier_classify,
    oscillator_exponents,
    to_heun,
)
from .hyperfun import gauss_2f1, hypergeom_ode_residual, limit_near_one
from .ladder import (
    EMBEDDING_TOL,
    build_ladder_rep,
    classify_common_eigenvectors,
    operator_matrices,
    verify_embedding,
    verify_structure_relations,
)
from .liealg import (
    AlgebraLabel,
    HighestWeight,
    branch_B_to_D,
    branch_D_to_B,
    invariant_subspace_dim,
    weyl_dim,
)
from .oracle import JOINT_TOL, joint_diagonalize, ode_residual, shooting_eigenvalue
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    PhysicalParams,
    radial_coefficients,
    sample_radii,
    spectral_ode,
    valid_cases,
)
from .spectra import K_MIN, RESIDUAL_TOLERANCE, closed_form_energy, radial_eigenfunction

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "check_structure_relations",
    "check_classification_bruteforce",
    "check_embedding",
    "check_branching_sums",
    "check_invariant_dimension",
    "check_spectrum_vs_shooting",
    "check_pinned_values",
    "check_eigenfunction_residuals",
    "check_heun_reduction",
    "check_fuchs_sums",
    "check_hyperfun_dual_path",
    "check_hyperfun_limit",
    "check_hyperfun_ode",
]

# fixed values used more than once; a check's JSON reports its tolerance and case count
_SEED = 20260814          # every random draw
_N_VALUES = (2, 3, 4, 5)  # sphere dimensions of the level grids
_HEUN_SYM_TOL = 1e-10     # the a = c degenerations of the Heun parameters
_BRANCH_RANK, _BRANCH_ENTRY = 4, 5  # the dominant-weight grid of the branching checks
_FUCHS_DRAWS = 500        # random parameter draws per exponent-sum check


class CheckResult(NamedTuple):
    """Outcome of one check: `count` cases ran and `failed` failed, the first
    as `first_failure`.  `worst` and `tol` belong to the row with the largest
    deviation/tolerance ratio, `margin` is that ratio (0 for an exact match,
    non-finite for an exact miss or a raised case).  run_suite sets `seconds`.
    `solver` holds an oracle's summed statistics, or None where no oracle ran."""

    name: str
    passed: bool
    detail: str
    worst: float = 0.0
    tol: float = 0.0
    margin: float = 0.0
    count: int = 0
    failed: int = 0
    first_failure: str = None
    seconds: float = 0.0
    solver: dict = None


class SuiteReport(NamedTuple):
    """The checks one suite ran and its seconds; ok when every check passed."""

    name: str
    checks: tuple
    seconds: float

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def _fold(name, noun, cases, summary):
    """Fold (where, rows) cases into one CheckResult.

    `rows` yields (quantity, deviation, tolerance) and is consumed here, so a
    ConvergenceError, ValidationError or VerificationError it raises fails
    only its own case.
    A pass reads `summary(t)`; t has count, worst and seen (per quantity).
    """
    t = types.SimpleNamespace(count=0, worst=collections.defaultdict(float),
                              seen=collections.Counter())
    failed, first, pairs = 0, None, []  # pairs: (deviation, tol) of every row
    for where, rows in cases:
        t.count += 1
        miss = None
        try:
            for quantity, dev, tol in rows:
                t.seen[quantity] += 1
                if math.isnan(dev) or dev > t.worst[quantity]:
                    t.worst[quantity] = dev
                pairs.append((float(dev), float(tol)))
                if miss is None and not dev <= tol:
                    miss = f"{quantity} {dev:.2e}"
        except (ConvergenceError, ValidationError, VerificationError) as exc:
            pairs.append((math.nan, math.nan))
            miss = miss or str(exc)
        if miss is not None:
            failed += 1
            first = first or f"{where}: {miss}"
    if failed:
        worsts = [", ".join(f"worst {q} {w:.2e}" for q, w in t.worst.items())] if t.worst else []
        detail = "; ".join([f"{failed} of {t.count} {noun} failed", *worsts,
                            f"first failure {first}"])
    else:
        detail = summary(t)
    worst, tol = max(pairs, key=lambda pair: _rank(*pair), default=(0.0, 0.0))
    return CheckResult(name, not failed, detail, worst, tol, _rank(worst, tol)[1],
                       t.count, failed, first)


def _rank(dev, tol):
    """Sort key of deviation/tolerance: NaN outranks every number (max keeps the first tie)."""
    ratio = dev / tol if tol > 0 else 0.0 if dev == 0 else math.inf
    return math.isnan(ratio), ratio


def _ladder_weights(max_rank, max_mk):
    """Every ladder-bearing weight: zero-padded except the last two entries."""
    out = []
    for m in range(max_mk + 1):
        out.append((AlgebraLabel("B", 1), (m,)))
    for k in range(2, max_rank + 1):
        for mk in range(max_mk + 1):
            for mk1 in range(mk + 1):
                out.append((AlgebraLabel("B", k), (0,) * (k - 2) + (mk1, mk)))
            lo = -mk if k == 2 else 0
            for mk1 in range(lo, mk + 1):
                out.append((AlgebraLabel("D", k), (0,) * (k - 2) + (mk1, mk)))
    return out


def check_structure_relations(max_rank=6, max_mk=8):
    """All operator relations, exactly, over every ladder module in range."""
    def module(alg, w):
        verify_structure_relations(build_ladder_rep(alg, w))  # raises on any nonzero residual
        yield from ()

    return _fold(
        "structure relations (exact)", "modules",
        ((f"{alg}{w}", module(alg, w)) for alg, w in _ladder_weights(max_rank, max_mk)),
        lambda t: f"{t.count} modules across B1..B{max_rank}, D2..D{max_rank}, "
                  f"entries <= {max_mk}",
    )


def check_classification_bruteforce(max_rank=4, max_mk=6, include_d3=False):
    """Classified eigenvectors == numeric joint eigenspaces of {D0^2, D1, D2}."""
    def module(alg, w):
        import numpy as np

        rep = build_ladder_rep(alg, w)
        ops = operator_matrices(rep)
        recs = classify_common_eigenvectors(rep, alg.sphere_dim)
        D0 = ops.D0.to_numpy()
        family = [D0 @ D0, ops.D1.to_numpy(), ops.D2.to_numpy()]
        if include_d3:
            family.append(ops.D3.to_numpy())
            recs = [r for r in recs if r.delta3 is not None]
        joint = joint_diagonalize(family, require_commuting=False, tol=JOINT_TOL)
        if len(joint) != len(recs):
            raise VerificationError(f"{len(joint)} joint eigenspaces but {len(recs)} classified")
        free = list(range(len(joint)))
        for r in recs:
            tup = (float(r.delta0), float(r.delta1), float(r.delta2))
            if include_d3:
                tup += (0.0,)
            vec = np.zeros(rep.dim, dtype=complex)
            for j, coeff in r.coeffs.items():
                vec[rep.index(j)] = float(coeff)
            vec /= np.linalg.norm(vec)
            devs = [max(abs(complex(a) - b) for a, b in zip(joint[i].eigenvalues, tup))
                    for i in free]
            best = min(range(len(free)), key=devs.__getitem__)
            yield "eigenvalue dev", devs[best], JOINT_TOL
            B = joint[free.pop(best)].basis
            yield "span dev", np.linalg.norm(vec - B @ (B.conj().T @ vec)), 1e-8

    ops_name = "{D0^2,D1,D2,D3}" if include_d3 else "{D0^2,D1,D2}"
    return _fold(
        f"classification vs joint diagonalization {ops_name}", "modules",
        ((f"{alg}{w}", module(alg, w)) for alg, w in _ladder_weights(max_rank, max_mk)),
        lambda t: f"{t.seen['span dev']} vectors over {t.count} modules; worst eigenvalue "
                  f"dev {t.worst['eigenvalue dev']:.2e}, span dev {t.worst['span dev']:.2e}",
    )


def check_embedding():
    """Defining-representation formulas, rank by rank, k = 2..5."""
    def rank(k):
        rpt = verify_embedding(k)
        yield "deviation", max(rpt.max_deviation, rpt.j_identity_deviation), EMBEDDING_TOL

    return _fold(
        "defining-representation embedding", "ranks",
        ((f"k={k}", rank(k)) for k in range(2, 6)),
        lambda t: f"k = 2..5, worst deviation {t.worst['deviation']:.2e}",
    )


def _dominant_weights():
    """Dominant B_k then D_k weights, k = 2.._BRANCH_RANK, entries <= _BRANCH_ENTRY."""
    entries = range(_BRANCH_ENTRY + 1)
    for k in range(2, _BRANCH_RANK + 1):
        B, D = AlgebraLabel("B", k), AlgebraLabel("D", k)
        for coeffs in itertools.combinations_with_replacement(entries, k):
            yield HighestWeight(B, coeffs)
        for rest in itertools.combinations_with_replacement(entries, k - 1):
            for m1 in range(-rest[0], rest[0] + 1):
                yield HighestWeight(D, (m1,) + rest)


def check_branching_sums():
    """Branching multiplicities are dimension-exact in both directions."""
    def weight(w):
        alg = w.algebra
        if alg.series == "B":
            branch, sub = branch_B_to_D, AlgebraLabel("D", alg.rank)
        else:
            branch, sub = branch_D_to_B, AlgebraLabel("B", alg.rank - 1)
        total = sum(weyl_dim(sub, w2) for w2 in branch(w))
        yield "dimension gap", abs(total - weyl_dim(alg, w)), 0

    return _fold(
        "branching dimension sums", "weights",
        ((f"{w.algebra} {w.coeffs}", weight(w)) for w in _dominant_weights()),
        lambda t: f"{t.count} weights, B2..B{_BRANCH_RANK} and D2..D{_BRANCH_RANK}, "
                  f"entries <= {_BRANCH_ENTRY}",
    )


def _chain_count(alg, w):
    """Invariant vectors counted the slow way: restrict twice, count trivials."""
    k = alg.rank
    if alg.series == "D" and k == 2:
        # so(4) -> so(3) -> so(2): every so(3) module meets weight zero once
        return len(branch_D_to_B(w))
    first, second = ((branch_B_to_D, branch_D_to_B) if alg.series == "B"
                     else (branch_D_to_B, branch_B_to_D))
    zero = (0,) * (k - 1)
    return sum(1 for w2 in first(w) if zero in {x.coeffs for x in second(w2)})


def check_invariant_dimension():
    """Closed-form invariant-subspace dimension == two-step chain count."""
    def weight(w):
        fast = invariant_subspace_dim(w.algebra, w)
        yield "dimension gap", abs(fast - _chain_count(w.algebra, w)), 0

    return _fold(
        "invariant subspace dimension", "weights",
        ((f"{w.algebra} {w.coeffs}", weight(w)) for w in _dominant_weights()),
        lambda t: f"{t.count} weights against the two-step chain count",
    )


def _grid_params(n):
    # reduced mass 1, radius 1, coupling 1
    return PhysicalParams(n, 2.0, 2.0, 1.0, 1.0)


def _level_cases(kind, n_values, rows):
    """(where, rows(params, coeffs, k)) over the symmetric (a = c) sectors' three lowest levels."""
    for n in n_values:
        params = _grid_params(n)
        cases = ([(1, None), (2, None), (5, None)] if n == 2
                 else [(1, mk) for mk in range(3)] + [(4, 2)])
        for case_id, mk in cases:
            coeffs = radial_coefficients(n, case_id, mk)
            for k in range(K_MIN[kind], K_MIN[kind] + 3):
                yield f"n={n} case={case_id} mk={mk} k={k}", rows(params, coeffs, k)


def check_spectrum_vs_shooting(kind):
    """Closed-form levels against the shooting oracle over the whole grid.

    `solver` sums the oracle's evaluations, iterations and rhs_evaluations
    over the levels it located.
    """
    totals = dict.fromkeys(("evaluations", "iterations", "rhs_evaluations"), 0)

    def level(params, coeffs, k):
        E = closed_form_energy(kind, params, coeffs, k)
        gap = min(abs(closed_form_energy(kind, params, coeffs, k + 1) - E), 2.0)
        got = shooting_eigenvalue(kind, params, coeffs, E - 0.35 * gap, E + 0.35 * gap)
        for key in totals:
            totals[key] += getattr(got, key)
        yield "relative deviation", abs(got.energy - E) / max(1.0, abs(E)), 1e-6

    return _fold(
        f"{kind} spectrum vs shooting", "levels",
        _level_cases(kind, _N_VALUES, level),
        lambda t: f"{t.count} levels, worst relative deviation "
                  f"{t.worst['relative deviation']:.2e}",
    )._replace(solver=totals)


def check_pinned_values(kind):
    """Hand-checkable special values of the closed forms."""
    if kind == KIND_COULOMB:
        params, coeffs = _grid_params(3), radial_coefficients(3, 1, 0)
        pins = {k: (k * k - 1) / 2.0 - 1.0 / (2.0 * k * k) for k in range(1, 7)}
    else:
        params, coeffs = _grid_params(2), radial_coefficients(2, 1)
        pins = {0: 0.5 + math.sqrt(5.0) / 2.0}
    E = {k: closed_form_energy(kind, params, coeffs, k) for k in pins}
    cases = ((f"k={k}", [("deviation", abs(E[k] - pin), 1e-12)]) for k, pin in pins.items())
    if kind == KIND_COULOMB:
        return _fold("coulomb pinned values (n=3, free case)", "levels", cases, lambda t: (
            f"k=1..6 against (k^2-1)/2 - 1/(2k^2), worst {t.worst['deviation']:.2e}"))
    return _fold("oscillator pinned value (n=2, ground)", "levels", cases, lambda t: (
        f"E_0 = {E[0]!r} vs 1/2 + sqrt(5)/2 (dev {t.worst['deviation']:.2e})"))


def check_eigenfunction_residuals(kind, n_values=_N_VALUES, n_points=100):
    """Jet ODE residuals and quadrature-stable norms, on every eigenfunction."""
    rs = sample_radii(kind, n_points)

    def eigenfunction(params, coeffs, k):
        fn = radial_eigenfunction(kind, params, coeffs, k)
        p, q = spectral_ode(kind, params, coeffs, fn.energy)
        yield "residual", ode_residual(p, q, fn.jet, rs), RESIDUAL_TOLERANCE
        n1, n2 = fn.norm_squared(240), fn.norm_squared(480)  # each normal and finite
        yield "norm drift", abs(n1 - n2) / n1, 1e-8

    return _fold(
        f"{kind} eigenfunction residuals", "eigenfunctions",
        _level_cases(kind, n_values, eigenfunction),
        lambda t: f"{t.count} eigenfunctions x {n_points} points; worst residual "
                  f"{t.worst['residual']:.2e}, worst norm drift {t.worst['norm drift']:.2e}",
    )


def check_heun_reduction(kind):
    """Heun parameters: consistency, symmetric degeneration, table placement."""
    rng = random.Random(_SEED)

    def parameter_set(params, coeffs, E):
        red = to_heun(kind, params, coeffs, E)
        hp = red.heun
        yield "consistency", abs(hp.consistency_residual()), 1e-12
        scale = max(1.0, abs(hp.alpha * hp.beta), abs(hp.q))
        yield "accessory probe", abs(accessory_parameter_probe(red) - hp.q) / scale, 1e-6
        if kind == KIND_OSCILLATOR:
            # sigma holds the halved endpoint exponents; the identity
            # ab - q = rho1 (rho_inf - rho_0) relates the unhalved ones
            s0, s1, s2 = red.sigma
            identity = abs((hp.alpha * hp.beta - hp.q) - s1 * 2.0 * (s2 - s0)) / scale
            yield "accessory identity", identity, _HEUN_SYM_TOL
        match = maier_classify(hp)
        if coeffs.symmetric:
            yield "q-ab", abs(hp.q - hp.alpha * hp.beta) / scale, _HEUN_SYM_TOL
            yield "g-e", abs(hp.gamma - hp.epsilon), _HEUN_SYM_TOL
            if match is None or match.case_id != 1:  # then the pullback is undefined
                raise VerificationError(f"symmetric equation matched {match}, not case 1")
            yield "pullback", case1_pullback_residual(hp), 1e-12
        elif match is not None:
            raise VerificationError(f"asymmetric equation matched reduction case {match.case_id}")

    def cases():
        for n in _N_VALUES:
            params = _grid_params(n)
            for case_id in valid_cases(n):
                coeffs = radial_coefficients(n, case_id, None if n == 2 else 2)
                energies = [rng.uniform(-2.0, 6.0) for _ in range(2)]
                if coeffs.symmetric:
                    energies.append(closed_form_energy(kind, params, coeffs, 1))
                for E in energies:
                    yield f"n={n} case={case_id} E={E}", parameter_set(params, coeffs, E)

    def summary(t):
        w, sym = t.worst, t.seen["q-ab"]
        return (f"{sym} symmetric + {t.count - sym} asymmetric parameter sets; "
                f"worst consistency {w['consistency']:.2e}, q-ab {w['q-ab']:.2e}, "
                f"pullback {w['pullback']:.2e}, accessory probe {w['accessory probe']:.2e}")

    return _fold(f"{kind} Heun reduction", "parameter sets", cases(), summary)


def check_fuchs_sums(kind):
    """Exponent sums equal (points - 2) for random parameter draws.

    Each pair (center +- root)/2 sums to its centre whatever the root, so
    this tests only the centres 2 - n, n - 1 and 1: both pole roots shifted
    by 1e-3 still read 8.88e-16 (Coulomb).  A wrong root shows in the Heun
    reduction check instead, through its q-ab and accessory identity rows.
    """
    rng = random.Random(_SEED + (0 if kind == KIND_COULOMB else 1))
    expected = 2.0 if kind == KIND_COULOMB else 4.0
    exponents = coulomb_exponents if kind == KIND_COULOMB else oscillator_exponents

    def draw(params, coeffs, E):
        yield "sum deviation", abs(exponents(params, coeffs, E).fuchs_sum() - expected), 1e-12

    def cases():
        for _ in range(_FUCHS_DRAWS):
            n = rng.randint(2, 6)
            case_id = rng.choice(valid_cases(n))
            mk = None if n == 2 else rng.randint(2, 4)
            coeffs = radial_coefficients(n, case_id, mk)
            mass = rng.uniform(0.4, 3.0)
            params = PhysicalParams(n, mass, mass, rng.uniform(0.3, 2.5),
                                    rng.uniform(-2.0, 2.0))
            E = rng.uniform(-6.0, 10.0)
            yield f"n={n} case={case_id} E={E}", draw(params, coeffs, E)

    return _fold(
        f"{kind} exponent sums", "draws", cases(),
        lambda t: f"{t.count} draws, sum = {expected:g} within {t.worst['sum deviation']:.2e}",
    )


def _hyperfun_rng_params(rng):
    alpha = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-0.8, 0.8)
    beta = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-0.8, 0.8)
    gamma = rng.uniform(0.4, 3.5) + 1j * rng.uniform(-0.5, 0.5)
    return alpha, beta, gamma


def check_hyperfun_dual_path():
    """Series route == connection route at 150 points of the overlap ring."""
    rng = random.Random(_SEED)

    def agreement(alpha, beta, gamma, z):
        s = gauss_2f1(alpha, beta, gamma, z, method="series")
        c = gauss_2f1(alpha, beta, gamma, z, method="connection")
        yield "relative difference", abs(s - c) / max(abs(s), 1.0), 1e-10

    def cases():
        done = 0
        while done < 150:
            z = rng.uniform(0.30, 0.72) + 1j * rng.uniform(-0.28, 0.28)
            if abs(z) > 0.75 or abs(1 - z) > 0.75:
                continue
            alpha, beta, gamma = _hyperfun_rng_params(rng)
            done += 1
            yield f"({alpha}, {beta}; {gamma}; {z})", agreement(alpha, beta, gamma, z)

    return _fold(
        "2F1 dual-path agreement", "draws", cases(),
        lambda t: f"{t.count} draws on the overlap ring, "
                  f"worst {t.worst['relative difference']:.2e}",
    )


def _richardson_limit(alpha, beta, gamma, gap):
    """Extrapolate F(1-w) w^gap to w = 0 from w = 10^-3..10^-6.

    The error exponents are known (gap, 1, gap+1, 2, ...), so three
    eliminations with the leading three leave an O(w^2)-class remainder.
    """
    ws = [10.0 ** (-k) for k in range(3, 7)]
    seq = [gauss_2f1(alpha, beta, gamma, 1.0 - w) * w ** gap for w in ws]
    for p in sorted((gap, 1.0, gap + 1.0)):
        r = 10.0 ** (-p)
        seq = [(seq[i + 1] - r * seq[i]) / (1.0 - r) for i in range(len(seq) - 1)]
    return seq[-1]


def check_hyperfun_limit():
    """Singular limit near z = 1 at 60 parameter sets against Richardson extrapolation."""
    rng = random.Random(_SEED)
    pinned = (1.0, 1.0, 0.5)  # limit = pi/2
    cases = [pinned]
    while len(cases) < 60:
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.3, 2.0)
        gap = rng.uniform(0.6, 2.4)  # alpha + beta - gamma
        if abs(gap - round(gap)) < 0.15:
            continue  # integer gaps switch to the log formulas; keep clear
        gamma = alpha + beta - gap
        if abs(gamma - round(gamma)) < 1e-3 and round(gamma) <= 0:
            continue
        cases.append((alpha, beta, gamma))

    def coefficient(alpha, beta, gamma):
        C = limit_near_one(alpha, beta, gamma)
        extrapolated = _richardson_limit(alpha, beta, gamma, alpha + beta - gamma)
        yield "relative deviation", abs(extrapolated - C) / abs(C), 1e-6
        if (alpha, beta, gamma) == pinned:
            yield "pinned pi/2 deviation", abs(C - math.pi / 2.0), 1e-12

    return _fold(
        "2F1 singular limit", "parameter sets",
        ((f"({a}, {b}; {g})", coefficient(a, b, g)) for a, b, g in cases),
        lambda t: f"{t.count} parameter sets, worst relative deviation "
                  f"{t.worst['relative deviation']:.2e}",
    )


def check_hyperfun_ode():
    """Residual of the hypergeometric equation at up to 120 random points."""
    rng = random.Random(_SEED)

    def residual(alpha, beta, gamma, z):
        yield "scaled residual", hypergeom_ode_residual(alpha, beta, gamma, z), RESIDUAL_TOLERANCE

    def cases():
        for _ in range(120):
            alpha, beta, gamma = _hyperfun_rng_params(rng)
            if rng.random() < 0.5:
                z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.4, 0.4)
            else:
                z = rng.uniform(0.4, 0.95) + 1j * rng.uniform(-0.2, 0.2)
            if abs(z) > 0.75 and abs(1 - z) > 0.75:
                continue
            yield f"({alpha}, {beta}; {gamma}; {z})", residual(alpha, beta, gamma, z)

    return _fold(
        "2F1 differential equation residual", "points", cases(),
        lambda t: f"worst scaled residual {t.worst['scaled residual']:.2e}",
    )


_KIND_CHECKS = ("check_pinned_values", "check_spectrum_vs_shooting",
                "check_eigenfunction_residuals", "check_heun_reduction", "check_fuchs_sums")

# suite name -> (check function name, keyword arguments); the names resolve
# to module globals when the suite runs
_SUITES = {
    "ladder": (
        ("check_structure_relations", {}),
        ("check_classification_bruteforce", {}),
        ("check_classification_bruteforce", {"include_d3": True}),
        ("check_embedding", {}),
    ),
    "branching": (("check_branching_sums", {}), ("check_invariant_dimension", {})),
    **{kind: tuple((check, {"kind": kind}) for check in _KIND_CHECKS)
       for kind in (KIND_COULOMB, KIND_OSCILLATOR)},
    "hyperfun": (
        ("check_hyperfun_dual_path", {}),
        ("check_hyperfun_limit", {}),
        ("check_hyperfun_ode", {}),
    ),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name):
    """Run one named suite (or 'all') and return SuiteReport(s)."""
    if name == "all":
        return [run_suite(s) for s in SUITE_NAMES]
    if name not in _SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    t0 = time.perf_counter()
    checks = []
    for check, kwargs in _SUITES[name]:
        t1 = time.perf_counter()
        result = globals()[check](**kwargs)
        checks.append(result._replace(seconds=time.perf_counter() - t1))
    return SuiteReport(name, tuple(checks), time.perf_counter() - t0)
