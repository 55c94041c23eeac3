"""The names the benchmark tracer patches still exist.

`perfbench/tracing.py` wraps functions at their import sites in the package
(`spectra.gauss_2f1`, `RadialEigenfunction.hypergeometric_value`,
`oracle.solve_ivp`, ...).  Renaming or deleting one of them crashes
`perfbench/run.py --trace 1` at install; here it fails a test instead.
"""

import importlib.util
from pathlib import Path

from sphere_twobody import hyperfun, oracle, spectra

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (spectra.spectrum, spectra.gauss_2f1, oracle.solve_ivp,
                 spectra.RadialEigenfunction.__dict__["hypergeometric_value"])
    tracer = tracing.Tracer()
    try:
        tracer.install(with_cli=True)
        assert spectra.spectrum is not originals[0]
    finally:
        tracer.restore()
    assert (spectra.spectrum, spectra.gauss_2f1, oracle.solve_ivp,
            spectra.RadialEigenfunction.__dict__["hypergeometric_value"]) == originals
    assert spectra.gauss_2f1 is hyperfun.gauss_2f1
