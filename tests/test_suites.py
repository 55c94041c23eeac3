"""Verification suites: failure reporting and the check set each suite runs."""

import json
import math
import re
import types

import numpy as np
import pytest

from sphere_twobody import AlgebraLabel, ladder, spectra, suites
from sphere_twobody.cli import main
from sphere_twobody.errors import ConvergenceError, ValidationError, VerificationError
from sphere_twobody.oracle import JointEigenspace, ShootingResult
from sphere_twobody.suites import CheckResult


def test_spectrum_vs_shooting_reports_the_whole_grid(monkeypatch):
    calls = []

    def fake_shooting(kind, params, coeffs, lo, hi):
        calls.append((params.n, lo, hi))
        E = lo + (hi - lo) * 0.33 / 0.7  # the bracket is E - 0.33 gap .. E + 0.37 gap
        if len(calls) == 3:
            raise ConvergenceError("synthetic miss")
        if len(calls) in (5, 9):
            E += 1e-3 * len(calls) * max(1.0, abs(E))
        return ShootingResult(E, 0.0, (lo, hi), 1, 0, 0)

    monkeypatch.setattr(suites, "shooting_eigenvalue", fake_shooting)
    chk = suites.check_spectrum_vs_shooting("coulomb")
    assert not chk.passed
    assert len(calls) == 45  # no early return at the first miss
    assert chk.detail.startswith("3 of 45 levels failed")
    assert "first failure n=2" in chk.detail and "synthetic miss" in chk.detail
    assert "worst relative deviation 9.00e-03" in chk.detail


def test_spectrum_vs_shooting_reports_solver_totals(monkeypatch, capsys):
    calls = []

    def fake_shooting(kind, params, coeffs, lo, hi):
        calls.append(kind)
        if len(calls) == 4:
            raise ConvergenceError("synthetic miss")  # counts nothing
        return ShootingResult(lo + (hi - lo) * 0.33 / 0.7, 0.0, (lo, hi), 9, 4,
                              1000 + len(calls))

    monkeypatch.setattr(suites, "shooting_eigenvalue", fake_shooting)
    for other, _ in suites._SUITES["oscillator"]:
        if other != "check_spectrum_vs_shooting":
            monkeypatch.setattr(suites, other, _cheap_pass)
    assert main(["verify", "--suite", "oscillator"]) == 3
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    located = [i for i in range(1, 46) if i != 4]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["oscillator spectrum vs shooting"]["solver"] == {
        "evaluations": 9 * 44, "iterations": 4 * 44,
        "series_terms": sum(1000 + i for i in located)}
    assert by_name["oscillator spectrum vs shooting"]["detail"].startswith("1 of 45 levels failed")
    # checks without an oracle carry no solver entry, so their JSON is unchanged
    assert "solver" not in by_name["stub"]


def test_structure_relations_failure_is_a_result(monkeypatch):
    def failing_verify(rep):
        if rep.weight.coeffs == (1, 2):
            raise VerificationError("[F,D+] = 2 D+ fails")

    monkeypatch.setattr(suites, "verify_structure_relations", failing_verify)
    chk = suites.check_structure_relations(max_rank=2, max_mk=2)
    assert not chk.passed
    assert chk.name == "structure relations (exact)"
    assert chk.detail.startswith("2 of ")  # B2(1, 2) and D2(1, 2)
    assert "first failure B2(1, 2): [F,D+] = 2 D+ fails" in chk.detail


def test_ladder_suite_runs_the_criterion_2_check_set(monkeypatch):
    calls = []

    def recorder(name):
        def check(**kwargs):
            calls.append((name, kwargs))
            return CheckResult(name, True, "")
        return check

    for name in ("check_structure_relations", "check_classification_bruteforce",
                 "check_embedding"):
        monkeypatch.setattr(suites, name, recorder(name))
    report = suites.run_suite("ladder")
    assert report.ok
    assert calls == [
        ("check_structure_relations", {}),
        ("check_classification_bruteforce", {}),
        ("check_classification_bruteforce", {"include_d3": True}),
        ("check_embedding", {}),
    ]


def test_classification_reports_every_module(monkeypatch):
    real = suites.joint_diagonalize
    calls = []

    def faulty(family, **kwargs):
        spaces = real(family, **kwargs)
        calls.append(len(spaces))
        if len(calls) == 1:  # B1 (0,): its one eigenspace goes missing
            return []
        if len(calls) == 2:  # B1 (1,): an eigenvalue moves by 1e-6
            first = spaces[0]
            shifted = tuple(v + 1e-6 for v in first.eigenvalues)
            return [JointEigenspace(shifted, first.basis)] + spaces[1:]
        if len(calls) == 4:  # B1 (3,): the basis turns orthogonal to chi_2 - chi_-2
            (only,) = spaces
            basis = np.zeros_like(only.basis)
            basis[0, 0] = basis[-1, 0] = 2 ** -0.5
            return [JointEigenspace(only.eigenvalues, basis)]
        return spaces

    monkeypatch.setattr(suites, "joint_diagonalize", faulty)
    chk = suites.check_classification_bruteforce(max_rank=2, max_mk=3)
    modules = len(suites._ladder_weights(2, 3))
    assert len(calls) == modules  # no early return at the first miss
    assert not chk.passed
    assert chk.name == "classification vs joint diagonalization {D0^2,D1,D2}"
    assert chk.detail.startswith(f"3 of {modules} modules failed; worst eigenvalue dev 1.00e-06, "
                                 "worst span dev 1.00e+00; ")
    assert chk.detail.endswith("first failure B1(0,): 0 joint eigenspaces but 1 classified")


def test_criterion_2_catches_a_corrupted_band_without_the_exact_check(monkeypatch):
    # the oracle builds its matrices from the bands, so it needs no help from the
    # exact record check to see one wrong entry
    monkeypatch.setattr(ladder, "_verify_record", lambda *args: None)
    real = suites.build_ladder_rep

    def corrupted(alg, weight):
        rep = real(alg, weight)
        if (alg, weight) != (AlgebraLabel("B", 2), (1, 2)):
            return rep
        return rep._replace(up=(rep.up[0] + 1,))

    monkeypatch.setattr(suites, "build_ladder_rep", corrupted)
    chk = suites.check_classification_bruteforce(max_rank=2, max_mk=3)
    assert not chk.passed and chk.failed == 1
    assert chk.first_failure.startswith("B2(1, 2): eigenvalue dev ")


def test_classification_passing_detail_is_unchanged():
    chk = suites.check_classification_bruteforce(max_rank=2, max_mk=3)
    assert chk.passed
    modules = len(suites._ladder_weights(2, 3))
    assert re.fullmatch(rf"\d+ vectors over {modules} modules; worst eigenvalue dev "
                        r"\d\.\d\de[-+]\d\d, span dev \d\.\d\de[-+]\d\d", chk.detail)


def test_embedding_failure_is_a_result(monkeypatch):
    real = suites.verify_embedding

    def failing(k):
        if k in (3, 5):
            raise VerificationError(f"embedding correspondence failed for k={k}: Psi_12")
        return real(k)

    monkeypatch.setattr(suites, "verify_embedding", failing)
    chk = suites.check_embedding()
    assert not chk.passed
    assert chk.name == "defining-representation embedding"
    assert chk.detail == (
        "2 of 4 ranks failed; worst deviation 2.22e-16; "
        "first failure k=3: embedding correspondence failed for k=3: Psi_12"
    )


def test_eigenfunction_residuals_report_every_failure(monkeypatch):
    chk = suites.check_eigenfunction_residuals("oscillator", n_values=(2, 3), n_points=10)
    assert chk.passed
    assert re.fullmatch(r"21 eigenfunctions x 10 points; worst residual \d\.\d\de-\d\d, "
                        r"worst norm drift \d\.\d\de[-+]\d\d", chk.detail)

    real_residual = suites.ode_residual
    real_norm = spectra.RadialEigenfunction.norm_squared
    calls = []

    def faulty_residual(p, q, jet_fn, rs):
        calls.append(len(rs))
        res = real_residual(p, q, jet_fn, rs)
        return 3e-8 * len(calls) if len(calls) in (2, 7) else res

    def faulty_norm(fn, nodes=240):
        value = real_norm(fn, nodes)
        last = fn.params.n == 3 and fn.coeffs.case_id == 4 and fn.k == 2
        return value * (1.0 + 1e-6) if last and nodes == 480 else value

    monkeypatch.setattr(suites, "ode_residual", faulty_residual)
    monkeypatch.setattr(spectra.RadialEigenfunction, "norm_squared", faulty_norm)
    chk = suites.check_eigenfunction_residuals("oscillator", n_values=(2, 3), n_points=10)
    assert len(calls) == 21  # no early return at the first miss
    assert not chk.passed
    assert chk.name == "oscillator eigenfunction residuals"
    assert chk.detail == (
        "3 of 21 eigenfunctions failed; worst residual 2.10e-07, worst norm drift 1.00e-06; "
        "first failure n=2 case=1 mk=None k=1: residual 6.00e-08"
    )


def _nan_connection(real):
    def fake(*args, method="auto"):
        return math.nan if method == "connection" else real(*args, method=method)
    return fake


def _nan_eigenvalues(real):
    # only lone eigenspaces turn NaN, so each vector still meets its own space
    def fake(family, **kwargs):
        spaces = real(family, **kwargs)
        if len(spaces) != 1:
            return spaces
        (only,) = spaces
        return [JointEigenspace(tuple(math.nan for _ in only.eigenvalues), only.basis)]
    return fake


def _returns_nan(real):
    return lambda *args: math.nan


# (check, keyword arguments, dependency patched, real -> fake returning NaN)
NAN_CASES = [
    ("check_spectrum_vs_shooting", {"kind": "coulomb"}, "shooting_eigenvalue",
     lambda real: lambda kind, params, coeffs, lo, hi: ShootingResult(math.nan, 0.0, (lo, hi),
                                                                      1, 0, 0)),
    ("check_hyperfun_dual_path", {}, "gauss_2f1", _nan_connection),
    ("check_hyperfun_limit", {}, "limit_near_one", _returns_nan),
    ("check_hyperfun_ode", {}, "hypergeom_ode_residual", _returns_nan),
    ("check_fuchs_sums", {"kind": "coulomb"}, "coulomb_exponents",
     lambda real: lambda *args: types.SimpleNamespace(fuchs_sum=lambda: math.nan)),
    ("check_pinned_values", {"kind": "coulomb"}, "closed_form_energy", _returns_nan),
    ("check_heun_reduction", {"kind": "coulomb"}, "accessory_parameter_probe", _returns_nan),
    ("check_classification_bruteforce", {"max_rank": 2, "max_mk": 3}, "joint_diagonalize",
     _nan_eigenvalues),
]


@pytest.mark.parametrize("check, kwargs, dependency, fake", NAN_CASES,
                         ids=[case[0] for case in NAN_CASES])
def test_nan_deviation_fails_the_check(monkeypatch, check, kwargs, dependency, fake):
    monkeypatch.setattr(suites, dependency, fake(getattr(suites, dependency)))
    chk = getattr(suites, check)(**kwargs)
    assert chk.passed is False
    assert chk.failed >= 1


def _faulty(monkeypatch, names, corrupt, counted, misses):
    """Wrap each named suites dependency; corrupt the `misses`-th counted call.

    Returns the list that collects the arguments of every counted call.
    """
    log = []

    def wrap(real):
        def fake(*args, **kwargs):
            value = real(*args, **kwargs)
            if counted(**kwargs):
                log.append(args)
                if len(log) in misses:
                    return corrupt(value)
            return value
        return fake

    for name in names:
        monkeypatch.setattr(suites, name, wrap(getattr(suites, name)))
    return log


def _shift_accessory(red):
    # q moves off alpha*beta: symmetric sets leave reduction case 1 as well
    return red._replace(heun=red.heun._replace(q=red.heun.q + 1e3))


def _where_2f1(alpha, beta, gamma, z=None):
    return f"({alpha}, {beta}; {gamma})" if z is None else f"({alpha}, {beta}; {gamma}; {z})"


def _where_draw(params, coeffs, E):
    return f"n={params.n} case={coeffs.case_id} E={E}"


def _always(**kwargs):
    return True


# (check, suite, dependencies called once per case, corrupt, calls counted,
#  where of a counted call)
FULL_REPORT_CASES = [
    ("check_branching_sums", "branching", ("branch_B_to_D", "branch_D_to_B"),
     lambda pieces: pieces[1:], _always, lambda w: f"{w.algebra} {w.coeffs}"),
    ("check_invariant_dimension", "branching", ("invariant_subspace_dim",), lambda d: d + 1,
     _always, lambda alg, w: f"{alg} {w.coeffs}"),
    ("check_heun_reduction", "coulomb", ("to_heun",), _shift_accessory, _always,
     lambda kind, *args: _where_draw(*args)),
    ("check_fuchs_sums", "coulomb", ("coulomb_exponents",),
     lambda eq: types.SimpleNamespace(fuchs_sum=lambda: eq.fuchs_sum() + 1.0), _always,
     _where_draw),
    ("check_hyperfun_dual_path", "hyperfun", ("gauss_2f1",), lambda F: F * (1.0 + 1e-6),
     lambda method="auto": method == "connection", _where_2f1),
    ("check_hyperfun_limit", "hyperfun", ("limit_near_one",), lambda C: C * 1.01, _always,
     _where_2f1),
    ("check_hyperfun_ode", "hyperfun", ("hypergeom_ode_residual",), lambda r: r + 1.0,
     _always, _where_2f1),
]


def _cheap_pass(**kwargs):
    return CheckResult("stub", True, "not run")


@pytest.mark.parametrize("check, suite, dependencies, corrupt, counted, where",
                         FULL_REPORT_CASES, ids=[case[0] for case in FULL_REPORT_CASES])
def test_check_reports_the_whole_grid(monkeypatch, capsys, check, suite, dependencies, corrupt,
                                      counted, where):
    # the suite's other checks are stubbed: fast, and the only callers of the dependency
    for other, _ in suites._SUITES[suite]:
        if other != check:
            monkeypatch.setattr(suites, other, _cheap_pass)
    log = _faulty(monkeypatch, dependencies, corrupt, counted, (3, 7))
    assert main(["verify", "--suite", suite]) == 3
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    assert len(report["checks"]) == len(suites._SUITES[suite])  # the suite went on
    (chk,) = [c for c in report["checks"] if not c["passed"]]
    assert len(log) == chk["count"]  # every case ran: no early return at the first miss
    assert chk["failed"] == 2
    assert chk["detail"].startswith(f"2 of {chk['count']} ")
    assert f"; first failure {where(*log[2])}: " in chk["detail"]
    assert chk["first_failure"].startswith(f"{where(*log[2])}: ")


def test_unknown_suite_is_a_validation_error():
    assert suites.SUITE_NAMES == ("ladder", "branching", "coulomb", "oscillator", "hyperfun")
    with pytest.raises(ValidationError, match="unknown suite 'nope'"):
        suites.run_suite("nope")
