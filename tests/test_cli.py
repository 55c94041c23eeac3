"""Command-line interface: output shape, determinism, config, exit codes."""

import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

import sphere_twobody
from sphere_twobody import fuchsian, spectra, suites
from sphere_twobody.cli import main
from sphere_twobody.errors import VerificationError
from sphere_twobody.radial import valid_cases
from sphere_twobody.suites import CheckResult, SuiteReport

SPEC_ARGS = [
    "spectrum", "--kind", "oscillator", "--n", "2", "--case", "1",
    "--m1", "2", "--m2", "2", "--k-min", "0", "--k-max", "2",
]


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_spectrum_json_document(capsys):
    rc, out, _ = run_cli(capsys, SPEC_ARGS)
    assert rc == 0
    doc = json.loads(out)
    md = doc["metadata"]
    assert md["tool"] == "sphere-twobody"
    assert md["kind"] == "oscillator" and md["n"] == 2 and md["case"] == 1
    assert md["mass_mode"] == "arbitrary"
    assert md["tolerances"] == {
        "branch_residual": spectra.BRANCH_TOLERANCE,
        "ode_residual": spectra.RESIDUAL_TOLERANCE,
    }
    assert [lv["k"] for lv in doc["levels"]] == [0, 1, 2]
    assert doc["levels"][0]["E"] == pytest.approx(0.5 + math.sqrt(5) / 2, abs=1e-14)
    assert all(lv["verified"] is True for lv in doc["levels"])


def test_spectrum_determinism_and_round_trip(capsys):
    rc1, out1, _ = run_cli(capsys, SPEC_ARGS)
    rc2, out2, _ = run_cli(capsys, SPEC_ARGS)
    assert rc1 == rc2 == 0
    assert out1 == out2
    # parse -> dump reproduces the exact byte stream
    assert json.dumps(json.loads(out1)) + "\n" == out1


def test_spectrum_csv_shape(capsys):
    rc, out, _ = run_cli(capsys, SPEC_ARGS + ["--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,E,multiplicity,verified"
    assert len(lines) == 1 + 3  # header + k = 0, 1, 2
    k, E, mult, ver = lines[1].split(",")
    assert (k, mult, ver) == ("0", "1", "true")
    assert float(E) == pytest.approx(0.5 + math.sqrt(5) / 2)


def test_spectrum_asymmetric_numeric_only(capsys):
    args = ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "2",
            "--mk", "1", "--k-min", "1", "--k-max", "3"]
    rc, out, err = run_cli(capsys, args)
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["numeric_only"] is True
    assert doc["levels"] == []
    assert "numeric" in err.lower()
    rc, out, _ = run_cli(capsys, args + ["--format", "csv"])
    assert rc == 0
    assert out == "k,E,multiplicity,verified\n"  # header-only is still valid


def test_spectrum_samples(capsys):
    rc, out, _ = run_cli(capsys, SPEC_ARGS + ["--samples", "3"])
    assert rc == 0
    doc = json.loads(out)
    for lv in doc["levels"]:
        assert len(lv["samples"]) == 3
        assert set(lv["samples"][0]) == {"r", "re", "im"}
    # samples are a JSON-only feature
    rc, _, err = run_cli(capsys, SPEC_ARGS + ["--samples", "3", "--format", "csv"])
    assert rc == 2
    assert "error:" in err


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _run_subprocess(tmp_path, argv):
    env = dict(os.environ)
    src = str(Path(sphere_twobody.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "sphere_twobody.cli"] + argv,
                          capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)


@pytest.mark.parametrize("sector", [[], ["--n", "3", "--case", "1", "--mk", "1"]])
def test_spectrum_high_k_samples_exit_cleanly(tmp_path, sector):
    """Oscillator k = 160..171 with samples: valid JSON or a typed error.

    1/k! went through math.factorial, whose float conversion overflows from
    k = 171 on; that, or a bare NaN sample, must never reach the output.
    Without a sector the command stops at the missing flags (exit 2).
    """
    argv = ["spectrum", "--kind", "oscillator", "--k-min", "160", "--k-max", "171",
            "--samples", "3"] + sector
    r = _run_subprocess(tmp_path, argv)
    assert r.returncode in (0, 2, 3), r.stderr
    assert "Traceback" not in r.stderr
    if r.returncode == 0:
        doc = json.loads(r.stdout, parse_constant=_reject_constant)
        assert [lv["k"] for lv in doc["levels"]] == list(range(160, 172))
        assert all(len(lv["samples"]) == 3 for lv in doc["levels"])
    else:
        assert r.stderr.startswith(("error:", "verification failure:")), r.stderr


@pytest.mark.parametrize("argv", [
    # the wall exponent overflows: [Infinity, NaN] exponents
    ["fuchs", "--kind", "oscillator", "--n", "2", "--case", "3", "--coupling", "1e300",
     "--energy", "1e100"],
    # the pole exponents overflow
    ["fuchs", "--kind", "coulomb", "--n", "2", "--case", "3", "--energy", "1e308"],
    # finite exponents, but a NaN accessory probe
    ["fuchs", "--kind", "oscillator", "--n", "5", "--case", "1", "--mk", "2", "--m1", "9e-184",
     "--radius", "3e-45", "--coupling", "9e231", "--energy", "-9"],
    # NaN eigenfunction samples
    ["spectrum", "--kind", "oscillator", "--n", "4", "--case", "1", "--mk", "1", "--m1",
     "1e-50", "--coupling", "1e100", "--k-min", "170", "--k-max", "172", "--samples", "3"],
])
def test_out_of_range_results_exit_typed_with_no_output(tmp_path, argv):
    r = _run_subprocess(tmp_path, argv)
    assert r.returncode in (2, 3), r.stdout[:200]
    assert r.stdout == ""
    assert r.stderr.startswith(("error:", "verification failure:")), r.stderr
    assert "Traceback" not in r.stderr


def test_reduced_mass_of_huge_masses_gives_strict_json(tmp_path):
    # m1 m2 overflows, but m = 5e199 and m R^2 are normal floats
    r = _run_subprocess(tmp_path, ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "1",
                                   "--mk", "1", "--m1", "1e200", "--m2", "1e200"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout, parse_constant=_reject_constant)
    assert doc["levels"][0]["E"] == pytest.approx(-5e199 / 8.0, rel=1e-12)


def test_spectrum_samples_underflow_is_a_convergence_error(capsys):
    # at k = 200 the nonzero eigenfunction underflows to 0.0 at every sample radius
    argv = ["spectrum", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1",
            "--k-min", "200", "--k-max", "200", "--samples", "3"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 3
    assert out == ""
    assert err == ("verification failure: oscillator level k=200: the eigenfunction "
                   "underflows to 0.0 at r=0.25\n")


def test_coulomb_prefactor_overflow_is_a_convergence_error(capsys):
    # |((r - i)/(r + i)) ** rho1| = exp(Im rho1 (pi - arg)) and Im rho1 grows like R
    argv = ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "1",
            "--radius"]
    rc, out, _ = run_cli(capsys, argv + ["1200"])
    assert rc == 0 and json.loads(out)["levels"]
    for radius in ("1500", "5000", "1e6"):
        rc, out, err = run_cli(capsys, argv + [radius])
        assert rc == 3, radius
        assert out == ""
        assert err.startswith("verification failure: coulomb level k=1: the "
                              "eigenfunction prefactor"), err
        assert "Traceback" not in err


def test_config_defaults_and_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# oscillator ground-state run\n"
        "kind = oscillator\n"
        "n = 2\n"
        "case = 1\n"
        "m1 = 2.0\n"
        "m2 = 2.0\n"
        "k-min = 0\n"
        "k-max = 2\n"
    )
    rc1, flat, _ = run_cli(capsys, SPEC_ARGS)
    rc2, via_cfg, _ = run_cli(capsys, ["--config", str(cfg), "spectrum"])
    assert rc1 == rc2 == 0
    assert via_cfg == flat
    # explicit flag beats the config value
    rc3, short, _ = run_cli(
        capsys, ["--config", str(cfg), "spectrum", "--k-max", "0"]
    )
    assert rc3 == 0
    assert [lv["k"] for lv in json.loads(short)["levels"]] == [0]


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flavor = strange\n")
    rc, _, err = run_cli(capsys, ["--config", str(cfg), "spectrum"])
    assert rc == 2
    assert "flavor" in err


@pytest.mark.parametrize("fmt", ["xml", "CSV"])
def test_config_value_outside_choices_rejected(capsys, tmp_path, fmt):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kind = oscillator\nn = 2\ncase = 1\nformat = {fmt}\n")
    rc, out, err = run_cli(capsys, ["--config", str(cfg), "spectrum"])
    assert rc == 2
    assert out == ""
    assert "format" in err


def test_config_loses_to_explicit_flags_abbreviated_or_not(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 5\nseries = Q\n")  # series: a ladder key, ignored here
    base = ["--config", str(cfg), "spectrum", "--kind", "coulomb", "--n", "3", "--case", "1",
            "--mk", "1", "--k-max", "1"]
    for flags, radius in (([], 5.0), (["--rad", "2"], 2.0), (["--radius=2"], 2.0)):
        rc, out, _ = run_cli(capsys, base + flags)
        assert rc == 0 and json.loads(out)["metadata"]["radius"] == radius, flags
    # a key of the chosen subcommand is checked even when a flag overrides it
    cfg.write_text("n = x\n")
    rc, out, err = run_cli(capsys, base)
    assert rc == 2 and out == ""
    assert err.startswith("error: config key 'n'"), err


def test_validation_exit_codes(capsys):
    cases = [
        ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk",
         "1", "--k-min", "0", "--k-max", "2"],          # coulomb starts at k = 1
        ["spectrum", "--n", "3", "--case", "1", "--mk", "1"],  # missing --kind
        ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "9", "--mk", "1"],
        ["classify", "--n", "2", "--mk", "1", "--mk1", "1"],   # mk1 is rank >= 2 only
        ["fuchs", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "1"],
        ["fuchs", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "1",
         "--k", "1", "--energy", "0.5"],                 # k and energy exclusive
        ["ladder", "--series", "B", "--rank", "2", "--weights", "2,1"],
        # m R^2 underflows: subnormal, then 0.0
        ["spectrum", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1",
         "--m1", "1e-300", "--m2", "1e-300", "--radius", "1e-10"],
        ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "1",
         "--radius", "1e-200"],
        # the energy overflows to inf
        ["spectrum", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1",
         "--k-min", "0", "--k-max", "0", "--coupling", "1e200"],
        # R^4 overflows a float
        ["spectrum", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1",
         "--radius", "1e80"],
        ["fuchs", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1",
         "--radius", "1e80", "--energy", "1.0"],
    ]
    for argv in cases:
        rc, _, err = run_cli(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def _numeric_argv(draw):
    """spectrum or fuchs argv over the CLI's numeric domain."""
    command = draw(st.sampled_from(["spectrum", "fuchs"]))
    n = draw(st.integers(2, 7))
    case = draw(st.sampled_from(valid_cases(n)))
    drop = (case + 1) // 3 if n == 2 else case // 2  # n = 2: the m the case carries
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    argv = [command, "--kind", draw(st.sampled_from(["coulomb", "oscillator"])),
            "--n", str(n), "--case", str(case), "--mk", str(draw(st.integers(drop, drop + 6))),
            "--m1", repr(draw(_log_uniform(-3, 3))), "--m2", repr(draw(_log_uniform(-3, 3))),
            "--radius", repr(draw(_log_uniform(-3, 3))),
            "--coupling", repr(sign * draw(_log_uniform(-3, 3)))]
    if command == "spectrum":
        k_min = draw(st.integers(1, 40))
        argv += ["--k-min", str(k_min), "--k-max", str(draw(st.integers(k_min, k_min + 4)))]
        argv += draw(st.one_of(st.integers(0, 5).map(lambda s: ["--samples", str(s)]),
                               st.just(["--format", "csv"])))
    elif draw(st.booleans()):
        argv += ["--k", str(draw(st.integers(1, 40)))]
    else:
        energy = draw(st.sampled_from([-1.0, 1.0])) * draw(_log_uniform(-3, 6))
        argv += ["--energy", repr(energy)]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_numeric_argv())
def test_numeric_domain_gives_strict_output_or_a_typed_exit(argv):
    # run in-process with redirected streams: capsys is function-scoped
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), argv
    if rc == 0:
        if "--format" in argv:
            assert out.getvalue().startswith("k,E,multiplicity,verified\n"), argv
        else:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", argv
        assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
def test_fuchs_rejects_non_finite_energy(capsys, kind, energy):
    rc, out, err = run_cli(capsys, [
        "fuchs", "--kind", kind, "--n", "3", "--case", "1", "--mk", "1",
        f"--energy={energy}",
    ])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: non-finite energy")


def _fuchs_argv(kind, energy):
    return ["fuchs", "--kind", kind, "--n", "3", "--case", "1", "--mk", "1", "--energy", energy]


@pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
@pytest.mark.parametrize("energy", ["1e32", "1e40"])
def test_fuchs_huge_energy_within_rounding(capsys, kind, energy):
    # exponents near 1e16 and 1e20: their sum loses n - 1 = 2 to rounding, which is
    # no violation of the Fuchs relation
    rc, out, err = run_cli(capsys, _fuchs_argv(kind, energy))
    assert rc == 0, err
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("energy, shift", [("1.3", 1e-6), ("1e32", 1e3)])
def test_fuchs_relation_violation_exits_2(capsys, monkeypatch, energy, shift):
    # shift both exponents of every pair: the four-point sum misses by 8 shift
    real = fuchsian._pair
    monkeypatch.setattr(fuchsian, "_pair",
                        lambda center, root: tuple(e + shift for e in real(center, root)))
    rc, out, err = run_cli(capsys, _fuchs_argv("coulomb", energy))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: exponent sums violate the Fuchs relation"), err


def test_verify_counts_a_fuchs_relation_violation_as_failed_cases(capsys, monkeypatch):
    # one exponent of every pair off by 1e-6: each exponent table the suite
    # builds raises ValidationError, which fails its own case and no other
    real = fuchsian._pair

    def shifted(center, root):
        plus, minus = real(center, root)
        return plus + 1e-6, minus

    monkeypatch.setattr(fuchsian, "_pair", shifted)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "coulomb"])
    assert rc == 3
    doc = json.loads(out, parse_constant=_reject_constant)
    checks = {c["name"]: c for c in doc["suites"][0]["checks"]}
    assert len(checks) == 5
    broken = {"coulomb Heun reduction": 50, "coulomb exponent sums": 500}
    for name, count in broken.items():
        assert (checks[name]["passed"], checks[name]["count"], checks[name]["failed"]) \
            == (False, count, count), name
        assert "exponent sums violate the Fuchs relation" in checks[name]["first_failure"]
    assert all(c["passed"] for name, c in checks.items() if name not in broken)
    assert "[coulomb] FAIL: coulomb Heun reduction -- 50 of 50 parameter sets failed" in err


def test_fuchs_nan_accessory_probe_named(tmp_path):
    r = _run_subprocess(tmp_path, [
        "fuchs", "--kind", "oscillator", "--n", "5", "--case", "1", "--mk", "2",
        "--m1", "9e-184", "--radius", "3e-45", "--coupling", "9e231", "--energy", "-9"])
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("verification failure: accessory_probe:"), r.stderr


def test_classify_document(capsys):
    rc, out, _ = run_cli(capsys, ["classify", "--n", "3", "--mk", "2", "--mk1", "0"])
    assert rc == 0
    doc = json.loads(out)
    (rec,) = doc["records"]
    assert rec["case"] == 4
    assert rec["vector"] == {"2": "1", "-2": "-1"}
    assert rec["delta0"] == "-4"
    assert rec["mass_mode"] == "equal"
    assert rec["multiplicity"] == 9
    rc, out, _ = run_cli(capsys, ["classify", "--n", "2", "--mk", "1"])
    assert rc == 0
    assert [r["case"] for r in json.loads(out)["records"]] == [2, 3, 4]


def test_ladder_document(capsys):
    rc, out, _ = run_cli(
        capsys, ["ladder", "--series", "B", "--rank", "2", "--weights", "0,2"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["dim"] == 3 and doc["basis"] == [-2, 0, 2]
    assert doc["matrices"]["F"][0] == ["-2", "0", "0"]
    assert all(v == 0 for v in doc["relations"].values())


def test_fuchs_document_symmetric_and_not(capsys):
    base = ["fuchs", "--kind", "oscillator", "--n", "4", "--mk", "2",
            "--m1", "2", "--m2", "2"]
    rc, out, _ = run_cli(capsys, base + ["--case", "1", "--k", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 6 and len(doc["zeta_points"]) == 4
    assert doc["fuchs_sum"] == pytest.approx(4.0)
    assert doc["maier"]["case"] == 1
    assert doc["maier"]["pullback_residual"] < 1e-10
    assert abs(doc["heun"]["consistency_residual"]) < 1e-12
    assert doc["psymbol"].startswith("P {")
    rc, out, _ = run_cli(capsys, base + ["--case", "2", "--energy", "1.0"])
    assert rc == 0
    assert json.loads(out)["maier"] is None


def test_fuchs_degenerate_maier_reported(capsys):
    # free oscillator ground state: q and alpha*beta both vanish
    rc, out, _ = run_cli(capsys, [
        "fuchs", "--kind", "oscillator", "--n", "2", "--case", "1",
        "--m1", "2", "--m2", "2", "--k", "0",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["maier"]["degenerate"] is True


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "sphere-twobody 0.1.0"


def test_verify_single_suite(capsys):
    rc, out, err = run_cli(capsys, ["verify", "--suite", "hyperfun"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [s["name"] for s in doc["suites"]] == ["hyperfun"]
    assert all(c["passed"] for s in doc["suites"] for c in s["checks"])
    assert "[hyperfun] ok" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_run_suite(name):
        return [SuiteReport(
            name="hyperfun",
            checks=(CheckResult("forced", False, "synthetic failure"),),
            seconds=0.0,
        )]

    monkeypatch.setattr("sphere_twobody.cli.run_suite", fake_run_suite)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "hyperfun"])
    assert rc == 3
    assert json.loads(out)["ok"] is False
    assert "FAIL" in err


def test_verify_reports_structure_failure(capsys, monkeypatch):
    def failing_verify(rep):
        raise VerificationError("[D0,D1] = -2 D3 fails")

    def cheap_pass(**kwargs):
        return CheckResult("stub", True, "not run")

    monkeypatch.setattr(suites, "verify_structure_relations", failing_verify)
    monkeypatch.setattr(suites, "check_classification_bruteforce", cheap_pass)
    monkeypatch.setattr(suites, "check_embedding", cheap_pass)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "ladder"])
    assert rc == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    structure = doc["suites"][0]["checks"][0]
    assert structure["name"] == "structure relations (exact)"
    assert structure["passed"] is False
    assert "first failure B1(0,): [D0,D1] = -2 D3 fails" in structure["detail"]
    assert "[ladder] FAIL" in err


def test_verify_reports_embedding_failure(capsys, monkeypatch):
    def failing_embedding(k):
        raise VerificationError(f"embedding correspondence failed for k={k}: Psi_12")

    def cheap_pass(**kwargs):
        return CheckResult("stub", True, "not run")

    monkeypatch.setattr(suites, "verify_embedding", failing_embedding)
    monkeypatch.setattr(suites, "check_structure_relations", cheap_pass)
    monkeypatch.setattr(suites, "check_classification_bruteforce", cheap_pass)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "ladder"])
    assert rc == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    embedding = doc["suites"][0]["checks"][-1]
    assert embedding["name"] == "defining-representation embedding"
    assert embedding["passed"] is False
    assert embedding["detail"].startswith("4 of 4 ranks failed; first failure k=2: ")
    assert "[ladder] FAIL: defining-representation embedding" in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_verify_json_stays_strict_when_a_deviation_is_nan(capsys, monkeypatch):
    monkeypatch.setattr(suites, "limit_near_one", lambda *args: math.nan)
    rc, out, err = run_cli(capsys, ["verify", "--suite", "hyperfun"])
    assert rc == 3
    doc = json.loads(out, parse_constant=_reject_constant)  # no NaN/Infinity tokens
    checks = {c["name"]: c for c in doc["suites"][0]["checks"]}
    limit = checks["2F1 singular limit"]
    assert (limit["passed"], limit["count"], limit["failed"]) == (False, 60, 60)
    assert limit["worst"] is None and limit["margin"] is None
    assert limit["tol"] == 1e-6
    assert limit["first_failure"] == "(1.0, 1.0; 0.5): relative deviation nan"
    assert checks["2F1 dual-path agreement"]["passed"] is True
    assert "[hyperfun] FAIL: 2F1 singular limit -- 60 of 60 parameter sets failed" in err
    rc_again, out_again, _ = run_cli(capsys, ["verify", "--suite", "hyperfun"])
    assert (rc_again, out_again) == (rc, out)  # timings stay on stderr


def _in_process_stdout(capsys, argv):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    return out.encode()


def test_console_script_installed(capsys, tmp_path):
    """The declared console script resolves and runs deterministically.

    The suite runs from a checkout with no install, so instead of looking the
    script up on PATH this reads the entry point from ``pyproject.toml`` and
    runs it the way a generated console-script wrapper does, in two fresh
    interpreters with different hash seeds.
    """
    toml = tomllib or pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = toml.load(fh)["project"].get("scripts", {})
    assert "sphere-twobody" in scripts, "console script not declared"
    module, _, attr = scripts["sphere-twobody"].partition(":")
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{scripts['sphere-twobody']} is not callable"

    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'sphere-twobody'; sys.exit({attr}())"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    # the child imports the same sphere_twobody this test imported
    src = str(Path(sphere_twobody.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", wrapper] + SPEC_ARGS,
            capture_output=True, timeout=120, env=env, cwd=tmp_path,
        )
        for _ in range(2)
    ]
    for r in runs:
        assert r.returncode == 0, r.stderr.decode(errors="replace")
    assert runs[0].stdout == runs[1].stdout  # byte-identical across processes
    json.loads(runs[0].stdout)
    assert runs[0].stdout == _in_process_stdout(capsys, SPEC_ARGS)


@pytest.mark.skipif(
    shutil.which("sphere-twobody") is None,
    reason="sphere-twobody is not installed on PATH",
)
def test_console_script_on_path(capsys):
    exe = shutil.which("sphere-twobody")
    expected = _in_process_stdout(capsys, SPEC_ARGS)
    for _ in range(2):
        r = subprocess.run([exe] + SPEC_ARGS, capture_output=True, timeout=120)
        assert r.returncode == 0, r.stderr.decode(errors="replace")
        assert r.stdout == expected


def test_commands_import_no_scipy(tmp_path):
    """Importing the package and the closed-form commands load no numpy or
    scipy module; the functions that use them import them on first call, and
    the shooting oracle loads neither.  Records are NamedTuples, so
    dataclasses and its inspect import never load."""
    script = """
import contextlib, io, math, sys
import sphere_twobody
from sphere_twobody.cli import main
from sphere_twobody import (PhysicalParams, hamiltonian_ABC, radial_coefficients,
                            radial_eigenfunction, shooting_eigenvalue, verify_embedding)


def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))


def stray():
    return [m for p in ("numpy", "scipy", "dataclasses", "inspect") for m in loaded(p)]


assert stray() == [], stray()
for argv in (
    ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "0",
     "--k-max", "4", "--samples", "3"],
    ["spectrum", "--kind", "oscillator", "--n", "2", "--case", "1", "--k-max", "3",
     "--format", "csv"],
    ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "2", "--mk", "1", "--k-max", "3"],
    ["classify", "--n", "3", "--mk", "2", "--mk1", "1"],
    ["classify", "--n", "2", "--mk", "2"],
    ["ladder", "--series", "B", "--rank", "2", "--weights", "1,2"],
    ["ladder", "--series", "B", "--rank", "1", "--weights", "3"],
    ["fuchs", "--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "0", "--k", "2"],
    ["fuchs", "--kind", "oscillator", "--n", "3", "--case", "1", "--mk", "1", "--k", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    assert stray() == [], (argv, stray())
found = shooting_eigenvalue("coulomb", PhysicalParams(3, 2.0, 2.0, 1.0, 1.0),
                            radial_coefficients(3, 1, 0), 3.5, 4.5)
assert abs(found.energy - (4.0 - 1.0 / 18.0)) < 1e-8, found  # (k^2 - 1)/2 - 1/(2k^2), k = 3
assert stray() == [], stray()
unit = PhysicalParams(3, 1.0, 1.0, 1.0, 1.0)
fn = radial_eigenfunction("coulomb", unit, radial_coefficients(3, 1, 1), 2)
assert math.isclose(fn.norm_squared(), 0.01051245607404121, rel_tol=1e-10)
assert "numpy" in loaded("numpy")
assert verify_embedding(2).max_deviation <= 1e-12
A, B, C = hamiltonian_ABC(unit)
assert math.isclose(A(0.5) + C(0.5), (1 + 0.25) ** 2 / (4 * 0.5 * 0.25), rel_tol=1e-13)
assert abs(B(0.5)) <= 1e-14
assert loaded("scipy") == [], loaded("scipy")
"""
    env = dict(os.environ)
    src = str(Path(sphere_twobody.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                       env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr.decode(errors="replace")
