"""The names the benchmark tracer patches still exist.

`perfbench/tracing.py` wraps functions at their import sites in the package
(`spectra.gauss_2f1`, `RadialEigenfunction.hypergeometric_value`,
`oracle.solve_ivp`, ...).  Renaming or deleting one of them crashes
`perfbench/run.py --trace 1` at install; here it fails a test instead.
"""

import importlib.util
from pathlib import Path

from sphere_twobody import exactmat, hyperfun, ladder, liealg, oracle, spectra

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_exist():
    # names the tracer wraps even where no package code calls them any more
    for attr in _tracing()._GMAT_METHODS:
        assert attr in vars(exactmat.GMat), attr
    for name in ("build_ladder_rep", "verify_structure_relations", "classify_common_eigenvectors",
                 "operator_matrices", "casimir_eigenvalue", "invariant_subspace_dim"):
        assert callable(getattr(ladder, name)), name


def test_tracer_installs_and_restores():
    tracing = _tracing()
    originals = (spectra.spectrum, spectra.gauss_2f1, oracle.solve_ivp,
                 spectra.RadialEigenfunction.__dict__["hypergeometric_value"],
                 ladder.casimir_eigenvalue, spectra.weyl_dim)
    tracer = tracing.Tracer()
    try:
        tracer.install(with_cli=True)
        assert spectra.spectrum is not originals[0]
    finally:
        tracer.restore()
    assert (spectra.spectrum, spectra.gauss_2f1, oracle.solve_ivp,
            spectra.RadialEigenfunction.__dict__["hypergeometric_value"],
            ladder.casimir_eigenvalue, spectra.weyl_dim) == originals
    assert spectra.gauss_2f1 is hyperfun.gauss_2f1
    assert ladder.casimir_eigenvalue is liealg.casimir_eigenvalue
    assert spectra.weyl_dim is liealg.weyl_dim
