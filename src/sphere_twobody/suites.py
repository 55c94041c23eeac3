"""Verification suites: every closed form against an independent route.

Each check_* function exercises one verifiable claim over a parameter grid
and returns a CheckResult with the worst deviation seen; suites bundle them
for the command-line `verify` subcommand.  The acceptance tests run the
same functions at their default grid sizes, so CLI verification and
the test suite cannot drift apart.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

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
from .oracle import joint_diagonalize, ode_residual, shooting_eigenvalue
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    PhysicalParams,
    radial_coefficients,
    sample_radii,
    spectral_ode,
    valid_cases,
)
from .spectra import closed_form_energy, radial_eigenfunction

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple
    seconds: float

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


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
    count = 0
    failures = []
    for alg, w in _ladder_weights(max_rank, max_mk):
        rep = build_ladder_rep(alg, w)
        try:
            verify_structure_relations(rep)  # raises on any nonzero residual
        except VerificationError as exc:
            failures.append(f"{alg}{w}: {exc}")
        count += 1
    if failures:
        return CheckResult(
            "structure relations (exact)",
            False,
            f"{len(failures)} of {count} modules failed; first {failures[0]}",
        )
    return CheckResult(
        "structure relations (exact)",
        True,
        f"{count} modules across B1..B{max_rank}, D2..D{max_rank}, entries <= {max_mk}",
    )


def check_classification_bruteforce(max_rank=4, max_mk=6, include_d3=False, tol=1e-10):
    """Classified eigenvectors == numeric joint eigenspaces of {D0^2, D1, D2}.

    Checks every module; a failure reports how many modules failed, the
    worst deviations and the first failure.
    """
    worst_eig = 0.0
    worst_span = 0.0
    modules = 0
    vectors = 0
    failures = []
    for alg, w in _ladder_weights(max_rank, max_mk):
        rep = build_ladder_rep(alg, w)
        ops = operator_matrices(rep)
        recs = classify_common_eigenvectors(rep, alg.sphere_dim)
        D0 = ops.D0.to_numpy()
        family = [D0 @ D0, ops.D1.to_numpy(), ops.D2.to_numpy()]
        if include_d3:
            family.append(ops.D3.to_numpy())
            recs = [r for r in recs if r.delta3 is not None]
        joint = joint_diagonalize(family, require_commuting=False, tol=tol)
        modules += 1
        expected = []
        for r in recs:
            tup = (float(r.delta0), float(r.delta1), float(r.delta2))
            if include_d3:
                tup += (0.0,)
            vec = np.zeros(rep.dim, dtype=complex)
            for j, coeff in r.coeffs.items():
                vec[rep.index(j)] = float(coeff)
            expected.append((tup, vec / np.linalg.norm(vec)))
        if len(joint) != len(expected):
            failures.append(
                f"{alg}{w}: {len(joint)} joint eigenspaces but {len(expected)} classified"
            )
            continue
        used = set()
        for tup, vec in expected:
            best, best_i = None, None
            for i, js in enumerate(joint):
                if i in used:
                    continue
                dev = max(abs(complex(a) - b) for a, b in zip(js.eigenvalues, tup))
                if best is None or dev < best:
                    best, best_i = dev, i
            if best is None or best > tol:
                worst_eig = max(worst_eig, best or 0.0)
                failures.append(f"{alg}{w}: eigenvalues {tup} missing numerically (dev {best})")
                break
            used.add(best_i)
            B = joint[best_i].basis
            proj = B @ (B.conj().T @ vec)
            span_dev = np.linalg.norm(vec - proj)
            worst_eig = max(worst_eig, best)
            worst_span = max(worst_span, span_dev)
            if span_dev > 1e-8:
                failures.append(
                    f"{alg}{w}: classified vector outside numeric eigenspace ({span_dev:.2e})"
                )
                break
            vectors += 1
    ops_name = "{D0^2,D1,D2,D3}" if include_d3 else "{D0^2,D1,D2}"
    name = f"classification vs joint diagonalization {ops_name}"
    worst = f"worst eigenvalue dev {worst_eig:.2e}, span dev {worst_span:.2e}"
    if failures:
        return CheckResult(
            name, False,
            f"{len(failures)} of {modules} modules failed; {worst}; first failure {failures[0]}",
        )
    return CheckResult(name, True, f"{vectors} vectors over {modules} modules; {worst}")


def check_embedding(max_rank=5, tol=1e-12):
    """Defining-representation formulas, every rank checked even after a miss."""
    name = "defining-representation embedding"
    worst = 0.0
    failures = []
    for k in range(2, max_rank + 1):
        try:
            rpt = verify_embedding(k, tol=tol)
        except VerificationError as exc:
            failures.append(f"k={k}: {exc}")
            continue
        worst = max(worst, rpt.max_deviation, rpt.j_identity_deviation)
    if failures:
        return CheckResult(
            name, False, f"{len(failures)} of {max_rank - 1} ranks failed; first {failures[0]}"
        )
    return CheckResult(name, True, f"k = 2..{max_rank}, worst deviation {worst:.2e}")


def _dominant_B(rank, max_entry):
    return [
        tuple(c)
        for c in itertools.combinations_with_replacement(range(max_entry + 1), rank)
    ]


def _dominant_D(rank, max_entry):
    out = []
    for rest in itertools.combinations_with_replacement(range(max_entry + 1), rank - 1):
        m2 = rest[0]
        for m1 in range(-m2, m2 + 1):
            out.append((m1,) + rest)
    return out


def check_branching_sums(max_rank=4, max_entry=5):
    """Branching multiplicities are dimension-exact in both directions."""
    count = 0
    for k in range(2, max_rank + 1):
        B, D, Bdown = AlgebraLabel("B", k), AlgebraLabel("D", k), AlgebraLabel("B", k - 1)
        for alg, dominant, branch, sub in ((B, _dominant_B, branch_B_to_D, D),
                                           (D, _dominant_D, branch_D_to_B, Bdown)):
            for coeffs in dominant(k, max_entry):
                w = HighestWeight(alg, coeffs)
                total = sum(weyl_dim(sub, w2) for w2 in branch(w))
                if total != weyl_dim(alg, w):
                    return CheckResult(
                        "branching dimension sums", False,
                        f"{alg} {coeffs}: branch total {total} != dim {weyl_dim(alg, w)}",
                    )
                count += 1
    return CheckResult(
        "branching dimension sums", True,
        f"{count} weights, B2..B{max_rank} and D2..D{max_rank}, entries <= {max_entry}",
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


def check_invariant_dimension(max_rank=4, max_entry=5):
    """Closed-form invariant-subspace dimension == two-step chain count."""
    count = 0
    for k in range(2, max_rank + 1):
        for series, gen in (("B", _dominant_B), ("D", _dominant_D)):
            alg = AlgebraLabel(series, k)
            for coeffs in gen(k, max_entry):
                w = HighestWeight(alg, coeffs)
                fast = invariant_subspace_dim(alg, w)
                slow = _chain_count(alg, w)
                if fast != slow:
                    return CheckResult(
                        "invariant subspace dimension", False,
                        f"{alg} {coeffs}: closed form {fast} != chain count {slow}",
                    )
                count += 1
    return CheckResult(
        "invariant subspace dimension", True,
        f"{count} weights against the two-step chain count",
    )


def _acceptance_cases(n, mk_max=2):
    """The symmetric (a = c) cases exercised by the spectrum checks."""
    if n == 2:
        return [(1, None), (2, None), (5, None)]
    return [(1, mk) for mk in range(mk_max + 1)] + [(4, 2)]


def _grid_params(n):
    # reduced mass 1, radius 1, coupling 1
    return PhysicalParams(n, 2.0, 2.0, 1.0, 1.0)


def check_spectrum_vs_shooting(kind, n_values=(2, 3, 4, 5), k_values=None,
                               mk_max=2, rel_tol=1e-6):
    """Closed-form levels against the shooting oracle over the whole grid."""
    if k_values is None:
        k_values = (1, 2, 3) if kind == KIND_COULOMB else (0, 1, 2)
    worst, worst_at = 0.0, None
    count = 0
    failures = []
    for n in n_values:
        for case_id, mk in _acceptance_cases(n, mk_max):
            coeffs = radial_coefficients(n, case_id, mk)
            params = _grid_params(n)
            energies = {k: closed_form_energy(kind, params, coeffs, k) for k in k_values}
            for k in k_values:
                E = energies[k]
                gap = min(
                    abs(closed_form_energy(kind, params, coeffs, k + 1) - E), 2.0
                )
                lo, hi = E - 0.35 * gap, E + 0.35 * gap
                where = f"n={n} case={case_id} mk={mk} k={k}"
                count += 1
                try:
                    got = shooting_eigenvalue(kind, params, coeffs, lo, hi)
                except ConvergenceError as exc:
                    failures.append(f"{where}: {exc}")
                    continue
                rel = abs(got.energy - E) / max(1.0, abs(E))
                if rel > rel_tol:
                    failures.append(
                        f"{where}: closed {E!r} vs shooting {got.energy!r} (rel {rel:.2e})"
                    )
                if worst_at is None or rel > worst:
                    worst, worst_at = rel, where
    if failures:
        detail = f"{len(failures)} of {count} levels failed"
        if worst_at is not None:
            detail += f"; worst relative deviation {worst:.2e} at {worst_at}"
        return CheckResult(
            f"{kind} spectrum vs shooting", False,
            f"{detail}; first failure {failures[0]}",
        )
    return CheckResult(
        f"{kind} spectrum vs shooting", True,
        f"{count} levels, worst relative deviation {worst:.2e}",
    )


def check_pinned_values(kind):
    """Hand-checkable special values of the closed forms."""
    if kind == KIND_COULOMB:
        params = _grid_params(3)
        coeffs = radial_coefficients(3, 1, 0)
        worst = 0.0
        for k in range(1, 7):
            E = closed_form_energy(kind, params, coeffs, k)
            worst = max(worst, abs(E - ((k * k - 1) / 2.0 - 1.0 / (2.0 * k * k))))
        ok = worst <= 1e-12
        return CheckResult(
            "coulomb pinned values (n=3, free case)", ok,
            f"k=1..6 against (k^2-1)/2 - 1/(2k^2), worst {worst:.2e}",
        )
    params = _grid_params(2)
    coeffs = radial_coefficients(2, 1)
    E0 = closed_form_energy(kind, params, coeffs, 0)
    dev = abs(E0 - (0.5 + math.sqrt(5.0) / 2.0))
    return CheckResult(
        "oscillator pinned value (n=2, ground)", dev <= 1e-12,
        f"E_0 = {E0!r} vs 1/2 + sqrt(5)/2 (dev {dev:.2e})",
    )


def check_eigenfunction_residuals(kind, n_values=(2, 3, 4, 5), k_values=None,
                                  mk_max=2, n_points=100, tol=1e-9,
                                  norm_nodes=(240, 480), norm_tol=1e-8):
    """Jet ODE residuals and quadrature-stable norms, on every eigenfunction."""
    if k_values is None:
        k_values = (1, 2, 3) if kind == KIND_COULOMB else (0, 1, 2)
    rs = sample_radii(kind, n_points)
    worst_res, worst_norm = 0.0, 0.0
    count = 0
    failures = []
    for n in n_values:
        for case_id, mk in _acceptance_cases(n, mk_max):
            coeffs = radial_coefficients(n, case_id, mk)
            params = _grid_params(n)
            for k in k_values:
                fn = radial_eigenfunction(kind, params, coeffs, k)
                p, q = spectral_ode(kind, params, coeffs, fn.energy)
                res = ode_residual(p, q, fn.jet, rs)
                n1 = fn.norm_squared(norm_nodes[0])
                n2 = fn.norm_squared(norm_nodes[1])
                stab = abs(n1 - n2) / max(n1, 1e-300)
                where = f"n={n} case={case_id} mk={mk} k={k}"
                if not res <= tol:  # a NaN residual fails too
                    failures.append(f"{where}: residual {res:.2e}")
                elif not (n1 > 0.0 and stab <= norm_tol):
                    failures.append(f"{where}: norm {n1!r} unstable (rel change {stab:.2e})")
                worst_res = max(worst_res, res)
                worst_norm = max(worst_norm, stab)
                count += 1
    worst = f"worst residual {worst_res:.2e}, worst norm drift {worst_norm:.2e}"
    if failures:
        return CheckResult(
            f"{kind} eigenfunction residuals", False,
            f"{len(failures)} of {count} eigenfunctions failed; {worst}; "
            f"first failure {failures[0]}",
        )
    return CheckResult(
        f"{kind} eigenfunction residuals", True,
        f"{count} eigenfunctions x {n_points} points; {worst}",
    )


def check_heun_reduction(kind, n_values=(2, 3, 4, 5),
                         tol_consistency=1e-12, tol_sym=1e-10, tol_pull=1e-12,
                         probe_tol=1e-6, seed=20260814):
    """Heun parameters: consistency, symmetric degeneration, table placement."""
    rng = random.Random(seed)
    worst = dict(consistency=0.0, sym_q=0.0, sym_ge=0.0, pull=0.0, probe=0.0,
                 osc_id=0.0)
    count_sym = count_asym = 0
    for n in n_values:
        for case_id in valid_cases(n):
            mk = None if n == 2 else 2
            coeffs = radial_coefficients(n, case_id, mk)
            params = _grid_params(n)
            energies = [rng.uniform(-2.0, 6.0) for _ in range(2)]
            if coeffs.symmetric:
                energies.append(closed_form_energy(kind, params, coeffs, 1))
            for E in energies:
                red = to_heun(kind, params, coeffs, E)
                hp = red.heun
                worst["consistency"] = max(
                    worst["consistency"], abs(hp.consistency_residual())
                )
                if worst["consistency"] > tol_consistency:
                    return CheckResult(
                        f"{kind} Heun reduction", False,
                        f"n={n} case={case_id} E={E}: parameter sum residual "
                        f"{worst['consistency']:.2e}",
                    )
                scale = max(1.0, abs(hp.alpha * hp.beta), abs(hp.q))
                probe_dev = abs(accessory_parameter_probe(red) - hp.q) / scale
                worst["probe"] = max(worst["probe"], probe_dev)
                if probe_dev > probe_tol:
                    return CheckResult(
                        f"{kind} Heun reduction", False,
                        f"n={n} case={case_id} E={E}: accessory parameter "
                        f"probe off by {probe_dev:.2e}",
                    )
                if kind == KIND_OSCILLATOR:
                    # sigma holds the halved endpoint exponents; the identity
                    # relates the unhalved ones
                    s0, s1, s2 = red.sigma
                    dev = abs(
                        (hp.alpha * hp.beta - hp.q) - s1 * 2.0 * (s2 - s0)
                    ) / scale
                    worst["osc_id"] = max(worst["osc_id"], dev)
                    if dev > tol_sym:
                        return CheckResult(
                            f"{kind} Heun reduction", False,
                            f"n={n} case={case_id} E={E}: accessory identity "
                            f"ab-q = rho1*(rho_inf - rho_0) off by {dev:.2e}",
                        )
                match = maier_classify(hp)
                if coeffs.symmetric:
                    dq = abs(hp.q - hp.alpha * hp.beta) / scale
                    dge = abs(hp.gamma - hp.epsilon)
                    pull = case1_pullback_residual(hp)
                    worst["sym_q"] = max(worst["sym_q"], dq)
                    worst["sym_ge"] = max(worst["sym_ge"], dge)
                    worst["pull"] = max(worst["pull"], pull)
                    if dq > tol_sym or dge > tol_sym or pull > tol_pull or (
                        match is None or match.case_id != 1
                    ):
                        return CheckResult(
                            f"{kind} Heun reduction", False,
                            f"n={n} case={case_id} E={E}: symmetric degeneration "
                            f"failed (q-ab {dq:.2e}, g-e {dge:.2e}, pullback "
                            f"{pull:.2e}, match {match})",
                        )
                    count_sym += 1
                else:
                    if match is not None:
                        return CheckResult(
                            f"{kind} Heun reduction", False,
                            f"n={n} case={case_id} E={E}: asymmetric equation "
                            f"wrongly matched reduction case {match.case_id}",
                        )
                    count_asym += 1
    return CheckResult(
        f"{kind} Heun reduction", True,
        f"{count_sym} symmetric + {count_asym} asymmetric parameter sets; "
        f"worst consistency {worst['consistency']:.2e}, q-ab {worst['sym_q']:.2e}, "
        f"pullback {worst['pull']:.2e}, accessory probe {worst['probe']:.2e}",
    )


def check_fuchs_sums(kind, draws=500, seed=20260814, tol=1e-12):
    """Exponent sums equal (points - 2) for random parameter draws."""
    rng = random.Random(seed + (0 if kind == KIND_COULOMB else 1))
    expected = 2.0 if kind == KIND_COULOMB else 4.0
    worst = 0.0
    for _ in range(draws):
        n = rng.randint(2, 6)
        case_id = rng.choice(valid_cases(n))
        mk = None if n == 2 else rng.randint(2, 4)
        coeffs = radial_coefficients(n, case_id, mk)
        mass = rng.uniform(0.4, 3.0)
        params = PhysicalParams(n, mass, mass, rng.uniform(0.3, 2.5),
                                rng.uniform(-2.0, 2.0))
        E = rng.uniform(-6.0, 10.0)
        eq = (coulomb_exponents if kind == KIND_COULOMB else oscillator_exponents)(
            params, coeffs, E
        )
        dev = abs(eq.fuchs_sum() - expected)
        if dev > tol:
            return CheckResult(
                f"{kind} exponent sums", False,
                f"n={n} case={case_id} E={E}: sum off by {dev:.2e}",
            )
        worst = max(worst, dev)
    return CheckResult(
        f"{kind} exponent sums", True,
        f"{draws} draws, sum = {expected:g} within {worst:.2e}",
    )


def _hyperfun_rng_params(rng):
    alpha = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-0.8, 0.8)
    beta = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-0.8, 0.8)
    gamma = rng.uniform(0.4, 3.5) + 1j * rng.uniform(-0.5, 0.5)
    return alpha, beta, gamma


def check_hyperfun_dual_path(draws=150, seed=20260814, tol=1e-10):
    """Series route == connection route on the overlap ring."""
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    while done < draws:
        z = rng.uniform(0.30, 0.72) + 1j * rng.uniform(-0.28, 0.28)
        if abs(z) > 0.75 or abs(1 - z) > 0.75:
            continue
        alpha, beta, gamma = _hyperfun_rng_params(rng)
        s = gauss_2f1(alpha, beta, gamma, z, method="series")
        c = gauss_2f1(alpha, beta, gamma, z, method="connection")
        rel = abs(s - c) / max(abs(s), 1.0)
        if rel > tol:
            return CheckResult(
                "2F1 dual-path agreement", False,
                f"({alpha}, {beta}; {gamma}; {z}): series vs connection differ by {rel:.2e}",
            )
        worst = max(worst, rel)
        done += 1
    return CheckResult(
        "2F1 dual-path agreement", True,
        f"{draws} draws on the overlap ring, worst {worst:.2e}",
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


def check_hyperfun_limit(draws=60, seed=20260814, tol=1e-6):
    """Singular-limit coefficient against Richardson extrapolation near z = 1."""
    rng = random.Random(seed)
    cases = [(1.0, 1.0, 0.5)]  # limit = pi/2
    while len(cases) < draws:
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.3, 2.0)
        gap = rng.uniform(0.6, 2.4)  # alpha + beta - gamma
        if abs(gap - round(gap)) < 0.15:
            continue  # integer gaps switch to the log formulas; keep clear
        gamma = alpha + beta - gap
        if abs(gamma - round(gamma)) < 1e-3 and round(gamma) <= 0:
            continue
        cases.append((alpha, beta, gamma))
    worst = 0.0
    for alpha, beta, gamma in cases:
        gap = (alpha + beta - gamma).real if isinstance(alpha, complex) else alpha + beta - gamma
        C = limit_near_one(alpha, beta, gamma)
        rel = abs(_richardson_limit(alpha, beta, gamma, gap) - C) / abs(C)
        if rel > tol:
            return CheckResult(
                "2F1 singular limit", False,
                f"({alpha}, {beta}; {gamma}): coefficient off by {rel:.2e}",
            )
        worst = max(worst, rel)
    dev_pi = abs(limit_near_one(1.0, 1.0, 0.5) - math.pi / 2.0)
    if dev_pi > 1e-12:
        return CheckResult(
            "2F1 singular limit", False,
            f"pinned value pi/2 off by {dev_pi:.2e}",
        )
    return CheckResult(
        "2F1 singular limit", True,
        f"{len(cases)} parameter sets, worst relative deviation {worst:.2e}",
    )


def check_hyperfun_ode(draws=120, seed=20260814, tol=1e-9):
    """Residual of the hypergeometric equation at random points."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(draws):
        alpha, beta, gamma = _hyperfun_rng_params(rng)
        if rng.random() < 0.5:
            z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.4, 0.4)
        else:
            z = rng.uniform(0.4, 0.95) + 1j * rng.uniform(-0.2, 0.2)
        if abs(z) > 0.75 and abs(1 - z) > 0.75:
            continue
        F = gauss_2f1(alpha, beta, gamma, z)
        res = abs(hypergeom_ode_residual(alpha, beta, gamma, z)) / max(abs(F), 1.0)
        if res > tol:
            return CheckResult(
                "2F1 differential equation residual", False,
                f"({alpha}, {beta}; {gamma}; {z}): residual {res:.2e}",
            )
        worst = max(worst, res)
    return CheckResult(
        "2F1 differential equation residual", True,
        f"worst scaled residual {worst:.2e}",
    )


SUITE_NAMES = ("ladder", "branching", "coulomb", "oscillator", "hyperfun")


def run_suite(name):
    """Run one named suite (or 'all') and return SuiteReport(s)."""
    if name == "all":
        return [run_suite(s) for s in SUITE_NAMES]
    t0 = time.perf_counter()
    if name == "ladder":
        checks = (
            check_structure_relations(),
            check_classification_bruteforce(),
            check_classification_bruteforce(include_d3=True),
            check_embedding(),
        )
    elif name == "branching":
        checks = (check_branching_sums(), check_invariant_dimension())
    elif name == "coulomb":
        checks = (
            check_pinned_values(KIND_COULOMB),
            check_spectrum_vs_shooting(KIND_COULOMB),
            check_eigenfunction_residuals(KIND_COULOMB),
            check_heun_reduction(KIND_COULOMB),
            check_fuchs_sums(KIND_COULOMB),
        )
    elif name == "oscillator":
        checks = (
            check_pinned_values(KIND_OSCILLATOR),
            check_spectrum_vs_shooting(KIND_OSCILLATOR),
            check_eigenfunction_residuals(KIND_OSCILLATOR),
            check_heun_reduction(KIND_OSCILLATOR),
            check_fuchs_sums(KIND_OSCILLATOR),
        )
    elif name == "hyperfun":
        checks = (
            check_hyperfun_dual_path(),
            check_hyperfun_limit(),
            check_hyperfun_ode(),
        )
    else:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    return SuiteReport(name, checks, time.perf_counter() - t0)
