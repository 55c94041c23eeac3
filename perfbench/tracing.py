"""Span tracing around the package's public calls, installed from outside.

The package binds names with from-imports, so a wrapper has to replace the
name at the site that calls it (``oracle.solve_ivp``, ``spectra.pochhammer``,
``cli.build_ladder_rep`` ...), not only in the defining module.  Nothing in
the package is edited; `install` patches the import-site names in memory.

A span is (id, name, start, end, parent id, operation id).  Spans are kept
in memory and written out at the end.  A span's self time is its duration
minus the time covered by its child spans.  Hot leaf calls (one eigenfunction
value inside a quadrature loop, one Pochhammer symbol, one coefficient
closure inside the ODE right-hand side) still take part in the parent/child
timing but are only counted, not stored one by one, so a traced run stays
small in memory.
"""

import json
import time
from collections import defaultdict

# the layers, named after the package modules, in the order metrics print
LAYERS = ("import", "cli", "liealg", "exactmat", "ladder", "oracle", "radial",
          "spectra", "hyperfun", "fuchsian")

_GMAT_METHODS = {
    "__matmul__": "exactmat.matmul",
    "scale": "exactmat.scale",
    "__add__": "exactmat.add",
    "__sub__": "exactmat.sub",
    "__neg__": "exactmat.neg",
    "commutator": "exactmat.commutator",
    "anticommutator": "exactmat.anticommutator",
    "is_zero": "exactmat.is_zero",
    "max_abs": "exactmat.max_abs",
    "apply": "exactmat.apply",
    "to_numpy": "exactmat.to_numpy",
    "eye": "exactmat.eye",
    "diag": "exactmat.diag",
    "build": "exactmat.build",
}

_FUCHSIAN_AT_CLI = ("coulomb_exponents", "oscillator_exponents", "to_heun",
                    "maier_classify", "reduce_case1", "case1_pullback_residual",
                    "accessory_parameter_probe", "cross_ratio_classify", "psymbol")


class Tracer:
    """Collects spans, per-name call statistics, counters and error counts."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self.errors = {layer: [0, 0] for layer in LAYERS}  # typed, untyped
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._typed = ()
        self._convergence = ()

    def wrap(self, fn, name, record=True, post=None):
        """fn wrapped in a span; post(result) may replace the result."""
        layer = name.split(".", 1)[0]
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, clock(), span_id]  # child time, start, id
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(layer, name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if record:
                    parent_id = parent[2] if parent is not None else None
                    self.spans.append((span_id, name, frame[1], end, parent_id, self.op_id))
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    def _count_error(self, layer, name, exc):
        if name == "oracle.shoot" and isinstance(exc, self._convergence):
            self.counters["oracle.shoot.convergence_errors"] += 1
        # count each exception once, at the innermost traced layer it left
        if getattr(exc, "_traced_layer", None) is not None:
            return
        try:
            exc._traced_layer = layer
        except AttributeError:
            pass
        self.errors[layer][0 if isinstance(exc, self._typed) else 1] += 1

    def patch(self, owner, attr, name, record=True, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, record, post))
        else:
            wrapped = self.wrap(original, name, record, post)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, with_cli=False):
        """Wrap every traced import site of the package."""
        import numpy as np

        from sphere_twobody import errors, exactmat, ladder, oracle, radial, spectra

        self._typed = (errors.ValidationError, errors.VerificationError)
        self._convergence = errors.ConvergenceError
        p = self.patch

        def count_levels(report):
            self.counters["spectra.levels"] += len(report.levels)
            self.counters["spectra.unverified"] += sum(
                1 for lv in report.levels if not lv.branch_check)
            return report

        def count_eigenspaces(spaces):
            self.counters["oracle.joint.eigenspaces"] += len(spaces)
            return spaces

        def count_nfev(sol):
            self.counters["oracle.shoot.nfev"] += sol.nfev
            return sol

        def wrap_closures(pq):
            p_fn, q_fn = pq
            return (self.wrap(p_fn, "radial.p", record=False),
                    self.wrap(q_fn, "radial.q", record=False))

        # liealg, seen from ladder and spectra
        p(ladder, "casimir_eigenvalue", "liealg.casimir")
        p(ladder, "invariant_subspace_dim", "liealg.invariant_dim")
        p(spectra, "weyl_dim", "liealg.weyl_dim")
        # exactmat: every GMat operation
        for attr, name in _GMAT_METHODS.items():
            p(exactmat.GMat, attr, name)
        # ladder, as the benchmark calls it and as ladder calls itself
        p(ladder, "build_ladder_rep", "ladder.build")
        p(ladder, "verify_structure_relations", "ladder.verify")
        p(ladder, "classify_common_eigenvectors", "ladder.classify")
        p(ladder, "operator_matrices", "ladder.operators")
        # oracle: joint diagonalization and its SVDs
        p(oracle, "joint_diagonalize", "oracle.joint", post=count_eigenspaces)
        p(np.linalg, "svd", "oracle.joint.svd", record=False)
        # oracle: shooting, its mismatch evaluations and its marches
        p(oracle, "shooting_eigenvalue", "oracle.shoot")
        p(oracle, "shooting_mismatch", "oracle.shoot.mismatch")
        p(oracle, "solve_ivp", "oracle.shoot.march", post=count_nfev)
        p(oracle, "ode_residual", "oracle.residual")
        # radial: coefficient tables and the ODE closures the oracle marches
        p(radial, "radial_coefficients", "radial.coefficients")
        p(radial, "spectral_ode", "radial.spectral_ode", post=wrap_closures)
        p(oracle, "spectral_ode", "radial.spectral_ode", post=wrap_closures)
        # spectra: levels, eigenfunction values, jets, norms, quadrature rule
        p(spectra, "spectrum", "spectra.spectrum", post=count_levels)
        p(spectra, "closed_form_energy", "spectra.energy")
        p(spectra, "branch_residuals", "spectra.branch")
        p(spectra, "radial_eigenfunction", "spectra.eigenfunction")
        fn_cls = spectra.RadialEigenfunction
        p(fn_cls, "_evaluate", "spectra.eval", record=False)
        p(fn_cls, "__call__", "spectra.value", record=False)
        p(fn_cls, "jet", "spectra.jet", record=False)
        p(fn_cls, "norm_squared", "spectra.norm")
        p(fn_cls, "hypergeometric_value", "spectra.hypergeometric")
        p(np.polynomial.legendre, "leggauss", "spectra.leggauss")
        # hyperfun, seen from spectra
        p(spectra, "gauss_2f1", "hyperfun.2f1")
        p(spectra, "pochhammer", "hyperfun.pochhammer", record=False)

        if with_cli:
            from sphere_twobody import cli

            p(cli, "main", "cli.main")
            p(cli, "spectrum", "spectra.spectrum", post=count_levels)
            p(cli, "radial_eigenfunction", "spectra.eigenfunction")
            p(cli, "closed_form_energy", "spectra.energy")
            p(cli, "radial_coefficients", "radial.coefficients")
            p(cli, "build_ladder_rep", "ladder.build")
            p(cli, "verify_structure_relations", "ladder.verify")
            p(cli, "classify_common_eigenvectors", "ladder.classify")
            p(cli, "weyl_dim", "liealg.weyl_dim")
            for attr in _FUCHSIAN_AT_CLI:
                p(cli, attr, f"fuchsian.{attr}")

    def state(self):
        """Everything but the spans, JSON-ready and mergeable."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "errors": {k: list(v) for k, v in self.errors.items()},
        }



def write_spans(path, spans):
    """One JSON array per line: id, name, start, end, parent id, operation id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge_states(states):
    """Sum the state() dicts of several traced processes."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(float)
    errors = {layer: [0, 0] for layer in LAYERS}
    for st in states:
        for name, (calls, total, self_s) in st["stats"].items():
            entry = stats[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in st["counters"].items():
            counters[name] += value
        for layer, (typed, untyped) in st["errors"].items():
            errors[layer][0] += typed
            errors[layer][1] += untyped
    return {"stats": dict(stats), "counters": dict(counters), "errors": errors}
