"""The in-process operations of each workload, and the checks of their outputs.

An operation calls only the package's public API (through module attributes,
so a traced run sees every call).  Its check runs after the timed phase and
compares the output with a reference that does not use the package's closed
forms: mpmath at 40 digits for energies and eigenfunction values, the
numeric joint eigenspaces for the ladder classification.  A check returns
None when the output is right, otherwise a short reason.
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np

from sphere_twobody import ladder, oracle, radial, spectra
from sphere_twobody.liealg import AlgebraLabel

COULOMB = "coulomb"

# relative tolerances, each the one the package or its suites state
ENERGY_TOL = 1e-12      # a float evaluation of the closed form, a few ulps
VALUE_TOL = 1e-10       # spectrum's "hypergeometric_match" tolerance
SHOOTING_TOL = 1e-6     # the shooting suites' level tolerance
RESIDUAL_TOL = 1e-9     # the eigenfunction suites' ODE residual tolerance
NORM_TOL = 1e-8         # the eigenfunction suites' quadrature drift tolerance
JOINT_TOL = 1e-10       # criterion 2: eigenvalue match
SPAN_TOL = 1e-8         # criterion 2: classified vector inside its eigenspace

GRID_POINTS = 16
NORM_NODES = (240, 480)
REFERENCE_DIGITS = 40


# ---------------------------------------------------------------- inputs


def params_and_coeffs(op):
    params = radial.PhysicalParams(op["n"], op["m1"], op["m2"], op["radius"], op["coupling"])
    coeffs = radial.radial_coefficients(op["n"], op["case"], op["mk"])
    return params, coeffs


def sample_grid(kind, count):
    """Interior points: half-angle spaced for Coulomb, uniform on (0, 1) else."""
    if kind == COULOMB:
        return [math.tan(math.pi * (i + 1) / (count + 1) / 2.0) for i in range(count)]
    return [(i + 1) / (count + 1) for i in range(count)]


# ---------------------------------------------------------------- operations


def run_algebra(op):
    alg = AlgebraLabel(op["series"], op["rank"])
    rep = ladder.build_ladder_rep(alg, tuple(op["weight"]))
    report = ladder.verify_structure_relations(rep)
    records = ladder.classify_common_eigenvectors(rep, alg.sphere_dim)
    joint = None
    if alg.rank <= 4:
        mats = ladder.operator_matrices(rep)
        d0 = mats.D0.to_numpy()
        family = [d0 @ d0, mats.D1.to_numpy(), mats.D2.to_numpy()]
        joint = (
            oracle.joint_diagonalize(family, require_commuting=False, tol=JOINT_TOL),
            oracle.joint_diagonalize(family + [mats.D3.to_numpy()],
                                     require_commuting=False, tol=JOINT_TOL),
        )
    return rep, report.ok, records, joint


def run_shoot(op):
    params, coeffs = params_and_coeffs(op)
    kind, k = op["kind"], op["k"]
    energy = spectra.closed_form_energy(kind, params, coeffs, k)
    gap = min(abs(spectra.closed_form_energy(kind, params, coeffs, k + 1) - energy), 2.0)
    found = oracle.shooting_eigenvalue(
        kind, params, coeffs, energy - 0.35 * gap, energy + 0.35 * gap)
    return found.energy


def run_eigen(op):
    params, coeffs = params_and_coeffs(op)
    kind, k = op["kind"], op["k"]
    level = spectra.spectrum(kind, params, coeffs, k, k).levels[0]
    fn = spectra.radial_eigenfunction(kind, params, coeffs, k)
    rs = sample_grid(kind, GRID_POINTS)
    values = [fn(r) for r in rs]
    p, q = radial.spectral_ode(kind, params, coeffs, level.energy)
    residual = oracle.ode_residual(p, q, fn.jet, rs)
    norms = [fn.norm_squared(nodes) for nodes in NORM_NODES]
    return level.energy, level.branch_check, values[GRID_POINTS // 2], residual, norms


RUNNERS = {"algebra": run_algebra, "shoot": run_shoot, "eigen": run_eigen}


def run(op):
    return RUNNERS[op["type"]](op)


# fixed inputs, not drawn from any pass, that touch every code path once
WARM_UP = {
    "exact_algebra": [{"type": "algebra", "series": "B", "rank": 2, "weight": [1, 2]},
                      {"type": "algebra", "series": "B", "rank": 1, "weight": [2]}],
    "eigen_sweep": [{"type": "eigen", "kind": kind, "n": 3, "case": 1, "mk": 1, "m1": 1.0,
                     "m2": 1.0, "radius": 1.0, "coupling": 1.0, "k": 1}
                    for kind in ("coulomb", "oscillator")],
}


def warm_up(workload):
    if workload == "shooting_levels":
        # one mismatch evaluation per kind loads and exercises the integrator
        # without locating a whole level
        for kind in ("coulomb", "oscillator"):
            op = {"n": 3, "case": 1, "mk": 1, "m1": 1.0, "m2": 1.0, "radius": 1.0,
                  "coupling": 1.0}
            params, coeffs = params_and_coeffs(op)
            oracle.shooting_mismatch(kind, params, coeffs, 1.0)
        return
    for op in WARM_UP[workload]:
        run(op)


# ---------------------------------------------------------------- references


def _mpmath():
    # imported on first use: the checks run after the timed phase, and the
    # set-up time should not include a module the program does not use
    import mpmath

    return mpmath


def _mp(x):
    mp = _mpmath()
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _physics_mp(op, coeffs):
    m1, m2 = _mp(op["m1"]), _mp(op["m2"])
    return (op["n"], m1 * m2 / (m1 + m2), _mp(op["radius"]), _mp(op["coupling"]),
            _mp(coeffs.a), _mp(coeffs.b))


def reference_energy(kind, op, coeffs, k):
    """The paper's E_k, evaluated in mpmath."""
    mp = _mpmath()
    with mp.workdps(REFERENCE_DIGITS):
        n, m, R, g, a, b = _physics_mp(op, coeffs)
        A = mp.sqrt((n - 2) ** 2 + 32 * a)
        if kind == COULOMB:
            return ((k * k - k + 1) / mp.mpf(2) - mp.mpf(n) / 4 + 2 * a + b
                    + (2 * k - 1) * A / 4) / (m * R * R) - 2 * m * g * g / (A + 2 * k - 1) ** 2
        W = mp.sqrt(1 + 4 * m * R ** 4 * g * g)
        T = 4 * k + 2 + A
        return (T * T - (n - 1) ** 2 - 16 * a + 8 * b + 1) / (8 * m * R * R) + T * W / (4 * m * R * R)


def reference_value(kind, op, coeffs, k, r):
    """Eigenfunction at r: the prefactor times mpmath's terminating 2F1."""
    mp = _mpmath()
    with mp.workdps(REFERENCE_DIGITS):
        n, m, R, g, a, b = _physics_mp(op, coeffs)
        E = reference_energy(kind, op, coeffs, k)
        A = mp.sqrt((n - 2) ** 2 + 32 * a)
        r = mp.mpf(r)
        rho0 = (2 - n + A) / 2
        if kind == COULOMB:
            u = mp.sqrt((n - 1) ** 2 + 8 * (m * E * R * R + 1j * m * R * g + 2 * a - b))
            beta = (1 + A) / 2 + 0.5j * mp.im(u)
            rho_i = ((n - 1) - mp.conj(u)) / 2
            pre = r ** rho0 * (r - 1j) ** rho_i * (r + 1j) ** (-(2 * rho0 + rho_i))
            z = 4j * r / (r + 1j) ** 2
            return pre * mp.hyp2f1(1 - k, beta, 1 + A, z) / mp.factorial(k - 1)
        W = mp.sqrt(1 + 4 * m * R ** 4 * g * g)
        s = mp.sqrt((n - 1) ** 2 + 8 * m * E * R * R + 4 * m * R ** 4 * g * g + 16 * a - 8 * b)
        rho1 = (1 + W) / 2
        pre = r ** rho0 * (1 - r * r) ** rho1 * (r * r + 1) ** (-(rho0 + rho1))
        z = 4 * r * r / (r * r + 1) ** 2
        return pre * mp.hyp2f1(-k, (2 + A + W + s) / 4, 1 + A / 2, z) / mp.factorial(k)


def energy_error(kind, op, coeffs, k, energy):
    ref = reference_energy(kind, op, coeffs, k)
    return float(abs(_mp(energy) - ref) / max(1, abs(ref)))


def value_error(kind, op, coeffs, k, r, value):
    ref = reference_value(kind, op, coeffs, k, r)
    return float(abs(_mpmath().mpc(value) - ref) / abs(ref))


# ---------------------------------------------------------------- checks


class Defect(str):
    """A failure reason that is a symptom of a defect documented at the seed.

    The terminating eigenfunction sums lose accuracy as k grows (levels come
    back unverified, values drift from mpmath, residuals and norms follow)
    and overflow at high k.  Such failures are counted like any other; only
    a failure of another kind, or one below the k where the defect starts,
    makes a run incorrect.
    """


# Where the seed's defects start, by kind.  Over the first passes of
# eigen_sweep seeds 100..1299 (1000 to 2400 operations per k) the lowest k
# with a failed eigenfunction check was Coulomb 5 and oscillator 4, at about
# one operation in a thousand; those rare low-k misses are relative checks
# that land near a node, so their rate grows with the number of nodes, and
# the floor sits one k lower.  Every Coulomb operation from k = 32 on
# overflowed and none below.  Under these k an unverified level, a value,
# residual or norm miss, or an overflow is a plain failure.
DEFECT_FROM_K = {COULOMB: 4, "oscillator": 3}
OVERFLOW_FROM_K = {COULOMB: 32}


def _defect(kind, k, reason):
    return Defect(reason) if k >= DEFECT_FROM_K[kind] else reason


def known_defect(op, error):
    """Whether an exception an operation raised is the known high-k overflow."""
    return (op["type"] == "eigen" and isinstance(error, OverflowError)
            and op["k"] >= OVERFLOW_FROM_K.get(op["kind"], math.inf))


def _joint_mismatch(rep, records, spaces, with_d3):
    """Criterion 2: classified vectors == numeric joint eigenspaces."""
    if with_d3:
        records = [r for r in records if r.delta3 is not None]
    if len(spaces) != len(records):
        return f"{len(spaces)} joint eigenspaces but {len(records)} classified"
    used = set()
    for rec in records:
        tup = (float(rec.delta0), float(rec.delta1), float(rec.delta2)) + ((0.0,) if with_d3 else ())
        vec = np.zeros(rep.dim, dtype=complex)
        for j, c in rec.coeffs.items():
            vec[rep.index(j)] = float(c)
        vec /= np.linalg.norm(vec)
        best, best_i = None, None
        for i, space in enumerate(spaces):
            if i not in used:
                dev = max(abs(complex(x) - y) for x, y in zip(space.eigenvalues, tup))
                if best is None or dev < best:
                    best, best_i = dev, i
        if best is None or best > JOINT_TOL:
            return f"eigenvalues {tup} missing numerically"
        used.add(best_i)
        basis = spaces[best_i].basis
        if np.linalg.norm(vec - basis @ (basis.conj().T @ vec)) > SPAN_TOL:
            return f"case {rec.case_id} vector outside its numeric eigenspace"
    return None


def _eigen_residual(rep, records):
    """Each classified vector against the float operator matrices."""
    mats = ladder.operator_matrices(rep)
    d0 = mats.D0.to_numpy()
    for rec in records:
        vec = np.zeros(rep.dim, dtype=complex)
        for j, c in rec.coeffs.items():
            vec[rep.index(j)] = float(c)
        pairs = [(d0 @ d0, rec.delta0), (mats.D1.to_numpy(), rec.delta1),
                 (mats.D2.to_numpy(), rec.delta2)]
        if rec.delta3 is not None:
            pairs.append((mats.D3.to_numpy(), rec.delta3))
        for mat, val in pairs:
            scale = max(1.0, float(np.abs(mat).max())) * np.linalg.norm(vec)
            if np.linalg.norm(mat @ vec - float(val) * vec) > RESIDUAL_TOL * scale:
                return f"case {rec.case_id} vector is not a numeric eigenvector"
    return None


def check_algebra(op, out):
    rep, ok, records, joint = out
    if not ok:
        return "structure relations not ok"
    if joint is None:
        return _eigen_residual(rep, records)
    return _joint_mismatch(rep, records, joint[0], False) or _joint_mismatch(
        rep, records, joint[1], True)


def check_shoot(op, energy):
    params, coeffs = params_and_coeffs(op)
    err = energy_error(op["kind"], op, coeffs, op["k"], energy)
    if not err <= SHOOTING_TOL:
        return f"shooting level off by {err:.2e} relative"
    return None


def check_eigen(op, out):
    reason = _eigen_mismatch(op, out)
    return None if reason is None else type(reason)(f"{op['kind']} k={op['k']}: {reason}")


def _eigen_mismatch(op, out):
    energy, verified, mid_value, residual, norms = out
    kind, k = op["kind"], op["k"]
    params, coeffs = params_and_coeffs(op)
    err = energy_error(kind, op, coeffs, k, energy)
    if not err <= ENERGY_TOL:
        return f"energy off by {err:.2e} relative"
    if not verified:
        return _defect(kind, k, "level reported unverified")
    r = sample_grid(kind, GRID_POINTS)[GRID_POINTS // 2]
    err = value_error(kind, op, coeffs, k, r, mid_value)
    if not err <= VALUE_TOL:
        return _defect(kind, k, f"eigenfunction value off by {err:.2e} relative")
    if not residual <= RESIDUAL_TOL:
        return _defect(kind, k, f"ODE residual {residual:.2e}")
    n1, n2 = norms
    if not (math.isfinite(n1) and n1 > 0.0 and abs(n1 - n2) <= NORM_TOL * n1):
        return _defect(kind, k, f"norm {n1!r} vs {n2!r} at {NORM_NODES} nodes")
    return None


CHECKS = {"algebra": check_algebra, "shoot": check_shoot, "eigen": check_eigen}


# ---------------------------------------------------------------- CLI checks

FUCHS_TOL = 1e-12  # the exponent-sum suites' tolerance
_FUCHS_SUM = {"coulomb": 2.0, "oscillator": 4.0}
# classified families per module (paper's tables): n = 2 by m, else by mk - mk1
_N2_RECORDS = {0: 1, 1: 3, 2: 3, 3: 1}
_GAP_RECORDS = {0: 1, 1: 2, 2: 1}


def _complex(x):
    return complex(*x) if isinstance(x, list) else complex(x)


def _check_levels(op, levels):
    """levels: (k, E, verified) triples from the CLI output."""
    params, coeffs = params_and_coeffs(op)
    if not op["symmetric"]:
        return "levels reported for a != c" if levels else None
    if [lv[0] for lv in levels] != list(range(op["k_min"], op["k_max"] + 1)):
        return "wrong level indices"
    for k, energy, verified in levels:
        err = energy_error(op["kind"], op, coeffs, k, energy)
        if not err <= ENERGY_TOL:
            return f"k={k} energy off by {err:.2e} relative"
        if not verified:
            return _defect(op["kind"], k, f"k={k} reported unverified")
    return None


def _check_spectrum_json(op, doc):
    if doc["metadata"]["numeric_only"] == op["symmetric"]:
        return "numeric_only flag wrong"
    levels = doc["levels"]
    bad = _check_levels(op, [(lv["k"], lv["E"], lv["verified"]) for lv in levels])
    if bad or not op["samples"] or not levels:
        return bad
    first = levels[0]
    sample = first["samples"][op["samples"] // 2]
    _, coeffs = params_and_coeffs(op)
    err = value_error(op["kind"], op, coeffs, first["k"], sample["r"],
                      complex(sample["re"], sample["im"]))
    if not err <= VALUE_TOL:
        return _defect(op["kind"], first["k"], f"k={first['k']} sample off by {err:.2e} relative")
    return None


def _check_spectrum_csv(op, text):
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != ["k", "E", "multiplicity", "verified"]:
        return "bad CSV header"
    return _check_levels(op, [(int(k), float(e), v == "true") for k, e, _, v in rows[1:]])


def _check_classify(op, doc):
    if op["n"] == 2:
        expected = _N2_RECORDS[op["mk"]]
    else:
        expected = _GAP_RECORDS.get(op["mk"] - op["mk1"], 0)
    records = doc["records"]
    if len(records) != expected:
        return f"{len(records)} classified records, expected {expected}"
    for rec in records:
        for key in ("delta0", "delta1", "delta2"):
            Fraction(rec[key])
    return None


def _check_ladder(op, doc):
    w = op["weight"]
    dim = 2 * w[0] + 1 if op["rank"] == 1 else w[-1] - abs(w[-2]) + 1
    if doc["dim"] != dim:
        return f"dimension {doc['dim']}, expected {dim}"
    if doc["ok"] is not True or any(_complex(v) != 0 for v in doc["relations"].values()):
        return "structure relations not exact"
    return None


def _check_fuchs(op, doc):
    dev = abs(_complex(doc["fuchs_sum"]) - _FUCHS_SUM[op["kind"]])
    if not dev <= FUCHS_TOL:
        return f"exponent sum off by {dev:.2e}"
    return None


def check_cli(op, returncode, stdout, stderr, twin_stdout):
    """One CLI call: exit code, repeatability, parse, then content."""
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {returncode}: {tail[0] if tail else ''}"
    if twin_stdout is not None and stdout != twin_stdout:
        return "stdout differs between two runs of the same argv"
    text = stdout.decode()
    try:
        if op["type"] == "spectrum" and op["format"] == "csv":
            return _check_spectrum_csv(op, text)
        doc = json.loads(text)
        return {"spectrum": _check_spectrum_json, "classify": _check_classify,
                "ladder": _check_ladder, "fuchs": _check_fuchs}[op["type"]](op, doc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
