"""Acceptance gate: one test -- and one printed pass/fail line -- per
acceptance criterion, each run at its stated grid and tolerance.

The checks are the same functions the `sphere-twobody verify` command runs;
this file pins the grids and adds the runtime ceilings.
"""

import time

from sphere_twobody.suites import (
    check_branching_sums,
    check_classification_bruteforce,
    check_eigenfunction_residuals,
    check_fuchs_sums,
    check_heun_reduction,
    check_hyperfun_dual_path,
    check_hyperfun_limit,
    check_hyperfun_ode,
    check_invariant_dimension,
    check_pinned_values,
    check_spectrum_vs_shooting,
    check_structure_relations,
)


def _gate(criterion, *checks):
    ok = all(c.passed for c in checks)
    detail = "; ".join(c.detail for c in checks)
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: " + "; ".join(
        f"{c.name}: {c.detail}" for c in checks if not c.passed
    )


def test_criterion_1_structure_relations_exact():
    t0 = time.perf_counter()
    chk = check_structure_relations(max_rank=6, max_mk=8)
    elapsed = time.perf_counter() - t0
    _gate("1 exact ladder structure relations", chk)
    assert elapsed < 10.0, f"structure sweep took {elapsed:.1f}s (limit 10s)"


def test_criterion_2_classification_matches_bruteforce():
    chk = check_classification_bruteforce(max_rank=4, max_mk=6, include_d3=False)
    chk3 = check_classification_bruteforce(max_rank=4, max_mk=6, include_d3=True)
    _gate("2 classification vs joint diagonalization", chk, chk3)


def test_criterion_3_branching_and_invariant_dimensions():
    chk = check_branching_sums()
    inv = check_invariant_dimension()
    _gate("3 branching sums and invariant-subspace dimension", chk, inv)


def test_criterion_4_coulomb_levels():
    t0 = time.perf_counter()
    pinned = check_pinned_values("coulomb")
    shoot = check_spectrum_vs_shooting("coulomb")
    elapsed = time.perf_counter() - t0
    _gate("4 coulomb closed-form levels", pinned, shoot)
    assert (pinned.tol, shoot.tol) == (1e-12, 1e-6)
    assert elapsed < 60.0, f"coulomb level sweep took {elapsed:.1f}s (limit 60s)"


def test_criterion_5_oscillator_levels():
    t0 = time.perf_counter()
    pinned = check_pinned_values("oscillator")
    shoot = check_spectrum_vs_shooting("oscillator")
    elapsed = time.perf_counter() - t0
    _gate("5 oscillator closed-form levels", pinned, shoot)
    assert (pinned.tol, shoot.tol) == (1e-12, 1e-6)
    assert elapsed < 60.0, f"oscillator level sweep took {elapsed:.1f}s (limit 60s)"


def test_criterion_6_eigenfunction_residuals_and_norms():
    cou = check_eigenfunction_residuals("coulomb")
    osc = check_eigenfunction_residuals("oscillator")
    _gate("6 eigenfunction ODE residuals and norms", cou, osc)


def test_criterion_7_heun_reduction():
    cou = check_heun_reduction("coulomb")
    osc = check_heun_reduction("oscillator")
    _gate("7 Heun reduction and hypergeometric pullback", cou, osc)


def test_criterion_8_hypergeometric_kernel():
    dual = check_hyperfun_dual_path()
    lim = check_hyperfun_limit()
    ode = check_hyperfun_ode()
    _gate("8 2F1 dual evaluation, singular limit, ODE residual", dual, lim, ode)


def test_criterion_9_fuchs_relation_random_draws():
    cou = check_fuchs_sums("coulomb")
    osc = check_fuchs_sums("oscillator")
    _gate("9 Fuchs exponent sums over 1000 random draws", cou, osc)
    assert cou.tol == osc.tol == 1e-12
