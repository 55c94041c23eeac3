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
(worst, margin and detail) moved.  It was regenerated again when the
connection route's Gamma, 1/Gamma and psi moved from scipy.special to
Stirling's series in plain Python: only worst, margin and the digits in
`detail` of the three records moved, every tol stayed.  Dual-path
agreement went from 9.81e-14 to 8.94e-14, the singular limit's pinned
pi/2 deviation from 4.66e-15 to 2.44e-15, and the equation residual from
7.90e-15 to 3.67e-15.

`verify_ladder.out` was written before eigenvector classification moved
from exact matrix products onto the ladder bands; it covers the structure
relations, both classification-versus-joint-diagonalization checks and the
embedding check.

`verify_coulomb.out` and `verify_oscillator.out` were written before the
Fuchsian exponent tables were built from one pair rule and read by
position; they pin the pinned levels, the spectrum-versus-shooting
deviations, the eigenfunction residuals, the Heun reduction and the
exponent sums of each kind.  `verify_coulomb.out` was regenerated once,
when `norm_squared` moved to real arithmetic: only the eigenfunction
check's worst norm drift moved, from 1.86e-14 to 1.84e-14.
`verify_oscillator.out` was regenerated once, when the shooting oracle's
Frobenius starts moved from Taylor convolutions to each end's polynomial
form: only the "spectrum vs shooting" solver total `rhs_evaluations`
moved, from 71203 to 71207.  Both were regenerated once more when the
shooting oracle moved from an LSODA march to Taylor continuation of the
radial equation's polynomial record, and the check's brackets moved
off-centre, to E - 0.33 gap .. E + 0.37 gap, so that the closed form is
no scan energy.  Only the two "spectrum vs shooting" records changed:
their worst deviations (1.17e-10 to 2.94e-15 for Coulomb, 7.90e-11 to
2.47e-15 for the oscillator) and their solver totals, whose
`rhs_evaluations` became `series_terms`.  `verify_coulomb.out` was
regenerated once more when Coulomb's `norm_squared` moved from the complex
2F1 recurrence to the real one for e^(-i d theta) G_d: only the
eigenfunction check's worst norm drift moved, from 1.84e-14 to 1.86e-14.

The two `*_high_k_json_samples` files pin eigenfunction samples at k = 30..40,
where the other sample files stop at k <= 4.  They were written before the
oscillator's 2F1 recurrence moved from complex to float arithmetic, so they
hold that move to the same bytes.
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
    "spectrum_oscillator_high_k_json_samples":
        ["spectrum", "--kind", "oscillator", "--n", "4", "--case", "4", "--mk", "3",
         "--k-min", "30", "--k-max", "40", "--samples", "4"],
    "spectrum_coulomb_high_k_json_samples":
        ["spectrum", "--kind", "coulomb", "--n", "5", "--case", "1", "--mk", "2",
         "--k-min", "30", "--k-max", "40", "--samples", "5"],
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
    "verify_ladder":
        ["verify", "--suite", "ladder"],
    "verify_coulomb":
        ["verify", "--suite", "coulomb"],
    "verify_oscillator":
        ["verify", "--suite", "oscillator"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_stdout(capsys, name):
    rc = main(GOLDEN_CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert out.encode() == expected
