"""Golden stdout: fixed command lines against stored byte streams.

Each case runs the CLI in-process and compares its stdout byte for byte with
`tests/golden/<name>.out`.  The stored files are the outputs of the code as it
stood before the closed forms, the oracle and the eigenfunctions were
refactored to share their indicial data, quadrature rule and residual rule;
a refactor that changes any printed digit fails here.  The two `--samples`
files were regenerated once, when eigenfunction values moved from the
term-by-term sum to the contiguous-relation recurrence: their sample digits
moved by at most 2.3e-16, every other byte stayed the same.  The two `verify`
files were written when check records gained numeric fields (worst, tol,
margin, count, failed, first_failure); with those keys deleted they are the
bytes the suites printed before, and every `detail` string is unchanged.

The four `spectrum` JSON files were regenerated once more when a level's
`verified` flag moved from the term-by-term 2F1 match to the floor-free ODE
residual: only the metadata key `tolerances.hypergeometric_match` (1e-10)
became `tolerances.ode_residual` (1e-9).  `verify_hyperfun.out` was
regenerated then too, because the 2F1 equation check now scales its
residual by the equation's own terms: only the `check_hyperfun_ode` entry
(worst, margin and detail) moved.
"""

from pathlib import Path

import pytest

from sphere_twobody.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_OSC2 = ["--kind", "oscillator", "--n", "2", "--case", "1", "--m1", "2", "--m2", "2"]
_COUL3 = ["--kind", "coulomb", "--n", "3", "--case", "1", "--mk", "1"]

GOLDEN_CASES = {
    "spectrum_oscillator_json_samples":
        ["spectrum"] + _OSC2 + ["--k-min", "0", "--k-max", "3", "--samples", "4"],
    "spectrum_coulomb_json_samples":
        ["spectrum"] + _COUL3 + ["--k-max", "4", "--samples", "5"],
    "spectrum_coulomb_n4_json":
        ["spectrum", "--kind", "coulomb", "--n", "4", "--case", "4", "--mk", "2",
         "--radius", "1.3", "--coupling", "0.7", "--k-max", "6"],
    "spectrum_oscillator_csv":
        ["spectrum", "--kind", "oscillator", "--n", "5", "--case", "1", "--mk", "2",
         "--m1", "1.5", "--m2", "0.5", "--k-max", "5", "--format", "csv"],
    "spectrum_coulomb_csv":
        ["spectrum"] + _COUL3 + ["--k-min", "2", "--k-max", "5", "--format", "csv"],
    "spectrum_asymmetric_json":
        ["spectrum", "--kind", "coulomb", "--n", "3", "--case", "2", "--mk", "1",
         "--k-max", "3"],
    "classify_n2":
        ["classify", "--n", "2", "--mk", "2"],
    "classify_n3":
        ["classify", "--n", "3", "--mk", "2", "--mk1", "1"],
    "classify_n4":
        ["classify", "--n", "4", "--mk", "3", "--mk1", "1"],
    "ladder_B1":
        ["ladder", "--series", "B", "--rank", "1", "--weights", "2"],
    "ladder_B3":
        ["ladder", "--series", "B", "--rank", "3", "--weights", "0,1,2"],
    "ladder_D2":
        ["ladder", "--series", "D", "--rank", "2", "--weights=-1,2"],
    "fuchs_coulomb_k":
        ["fuchs"] + _COUL3 + ["--k", "2"],
    "fuchs_coulomb_energy_asymmetric":
        ["fuchs", "--kind", "coulomb", "--n", "3", "--case", "3", "--mk", "1",
         "--energy", "0.7"],
    "fuchs_oscillator_k":
        ["fuchs", "--kind", "oscillator", "--n", "4", "--case", "1", "--mk", "2",
         "--m1", "2", "--m2", "2", "--radius", "0.8", "--k", "1"],
    "fuchs_oscillator_energy_asymmetric":
        ["fuchs", "--kind", "oscillator", "--n", "2", "--case", "6", "--energy", "1.3"],
    "fuchs_oscillator_degenerate":
        ["fuchs"] + _OSC2 + ["--k", "0"],
    "verify_hyperfun":
        ["verify", "--suite", "hyperfun"],
    "verify_branching":
        ["verify", "--suite", "branching"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_stdout(capsys, name):
    rc = main(GOLDEN_CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert out.encode() == expected
