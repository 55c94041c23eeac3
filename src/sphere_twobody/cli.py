"""Command-line frontend: spectra, classification tables, ladder reports,
Fuchsian/Heun analysis, and verification suites.

Data goes to stdout (JSON by default, CSV for spectra on request),
diagnostics to stderr.  Exit codes: 0 success, 2 validation error,
3 verification failure.  Identical argv produces byte-identical output.
"""

import argparse
import csv
import json
import math
import sys

from . import __version__
from .errors import ConvergenceError, ValidationError, VerificationError
from .fuchsian import (
    INFINITY,
    accessory_parameter_probe,
    case1_pullback_residual,
    coulomb_exponents,
    cross_ratio_classify,
    maier_classify,
    oscillator_exponents,
    psymbol,
    reduce_case1,
    to_heun,
)
from .ladder import build_ladder_rep, classify_common_eigenvectors, verify_structure_relations
from .liealg import AlgebraLabel, weyl_dim
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    PhysicalParams,
    radial_coefficients,
    sample_radii,
)
from .spectra import (
    BRANCH_TOLERANCE,
    K_MIN,
    RESIDUAL_TOLERANCE,
    closed_form_energy,
    radial_eigenfunction,
    spectrum,
)
from .suites import SUITE_NAMES, run_suite

_TOOL = "sphere-twobody"
_KINDS = (KIND_COULOMB, KIND_OSCILLATOR)


def _jnum(z):
    """JSON form of a numeric value: float, or [re, im] when truly complex."""
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _emit_json(doc):
    """Write doc as strict JSON; a NaN or infinity in it is a ConvergenceError."""
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise ConvergenceError(f"a result left the float range: {exc}") from None
    sys.stdout.write(text + "\n")


def _load_config(path, known):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    data = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValidationError(f"{path}:{ln}: unknown config key {key!r}")
        data[key] = val.strip()
    return data


def _apply_config(parser, args, argv):
    """Fill in flags from the config file, converted and checked like the flags; explicit
    flags win and keys of other subcommands are ignored."""
    if not args.config:
        return
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {name: {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
             for name, sub in subcommands.items()}
    for key, raw in _load_config(args.config, set().union(*flags.values())).items():
        action = flags[args.command].get(key)
        if key in explicit or action is None:
            continue
        conv = action.type or str
        try:
            value = conv(raw)
        except ValueError as exc:
            raise ValidationError(
                f"config key {key!r}: cannot convert {raw!r} to {conv.__name__}"
            ) from exc
        if action.choices is not None and value not in action.choices:
            raise ValidationError(
                f"config key {key!r}: {raw!r} is not one of {', '.join(action.choices)}"
            )
        setattr(args, key, value)


def _require(args, *names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValidationError(
            f"missing required flag(s): {', '.join(missing)} "
            "(pass them on the command line or through --config)"
        )


def _params_from_args(args):
    return PhysicalParams(args.n, args.m1, args.m2, args.radius, args.coupling)


def _metadata(args, coeffs=None, **extra):
    md = {"tool": _TOOL, "version": __version__}
    for key in ("kind", "n", "case"):
        if hasattr(args, key):
            md[key] = getattr(args, key)
    if coeffs is not None:
        md["mk"] = coeffs.carrier.coeffs[-1]
        md["a"] = str(coeffs.a)
        md["b"] = str(coeffs.b)
        md["c"] = str(coeffs.c)
        md["mass_mode"] = coeffs.mass_mode
    for key in ("m1", "m2", "radius", "coupling"):
        if hasattr(args, key):
            md[key] = getattr(args, key)
    md.update(extra)
    return md


def cmd_spectrum(args):
    _require(args, "kind", "n", "case")
    params = _params_from_args(args)
    coeffs = radial_coefficients(args.n, args.case, args.mk)
    k_floor = K_MIN[args.kind]
    k_min = args.k_min if args.k_min is not None else k_floor
    k_max = args.k_max if args.k_max is not None else k_min + 4
    if k_min < k_floor:
        raise ValidationError(f"{args.kind} levels start at k = {k_floor}, got k-min {k_min}")
    if k_max < k_min:
        raise ValidationError(f"k-max {k_max} is below k-min {k_min}")
    if args.samples < 0:
        raise ValidationError(f"samples must be nonnegative, got {args.samples}")
    if args.samples and args.format != "json":
        raise ValidationError("eigenfunction samples require --format json")

    report = spectrum(args.kind, params, coeffs, k_min, k_max)
    if report.numeric_only:
        sys.stderr.write(
            "note: a != c for this case, so no closed-form levels exist; "
            "emitting an empty numeric-only report\n"
        )

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "E", "multiplicity", "verified"])
        for lv in report.levels:
            writer.writerow([lv.k, repr(lv.energy), lv.multiplicity,
                             "true" if lv.branch_check else "false"])
        return 0

    levels = [{"k": lv.k, "E": lv.energy, "multiplicity": lv.multiplicity,
               "verified": lv.branch_check} for lv in report.levels]
    if args.samples:
        rs = sample_radii(args.kind, args.samples)
        for entry in levels:
            fn = radial_eigenfunction(args.kind, params, coeffs, entry["k"])
            values = [fn(r) for r in rs]
            for r, value in zip(rs, values):
                if value == 0.0 or not (math.isfinite(value.real) and math.isfinite(value.imag)):
                    what = "underflows to 0.0" if value == 0.0 else f"is {value}"
                    raise ConvergenceError(f"{args.kind} level k={entry['k']}: the "
                                           f"eigenfunction {what} at r={r!r}")
            entry["samples"] = [
                {"r": r, "re": value.real, "im": value.imag} for r, value in zip(rs, values)
            ]
    doc = {
        "metadata": _metadata(
            args,
            coeffs,
            numeric_only=report.numeric_only,
            tolerances={"branch_residual": BRANCH_TOLERANCE, "ode_residual": RESIDUAL_TOLERANCE},
        ),
        "levels": levels,
    }
    _emit_json(doc)
    return 0


def cmd_classify(args):
    _require(args, "n", "mk")
    if args.n < 2:
        raise ValidationError(f"sphere dimension must be >= 2, got {args.n}")
    alg = AlgebraLabel.for_sphere(args.n)
    if args.n == 2:
        if args.mk1 is not None:
            raise ValidationError("n=2 weights have a single entry; drop --mk1")
        coeffs = (args.mk,)
    else:
        if args.mk1 is None:
            raise ValidationError("n >= 3 weights need both --mk and --mk1")
        coeffs = (0,) * (alg.rank - 2) + (args.mk1, args.mk)
    rep = build_ladder_rep(alg, coeffs)
    records = classify_common_eigenvectors(rep, args.n)
    doc = {
        "metadata": _metadata(
            args, algebra=str(alg), weight=list(coeffs), invariant_dim=rep.dim
        ),
        "records": [
            {
                "case": r.case_id,
                "description": r.description,
                "vector": {str(j): str(c) for j, c in sorted(r.coeffs.items())},
                "delta0": str(r.delta0),
                "delta1": str(r.delta1),
                "delta2": str(r.delta2),
                "delta3": None if r.delta3 is None else str(r.delta3),
                "mass_mode": r.mass_mode,
                "carrier": list(r.carrier.coeffs),
                "multiplicity": weyl_dim(r.carrier.algebra, r.carrier),
            }
            for r in records
        ],
    }
    _emit_json(doc)
    return 0


def cmd_ladder(args):
    _require(args, "series", "rank", "weights")
    try:
        weight = tuple(int(tok) for tok in args.weights.replace(",", " ").split())
    except ValueError as exc:
        raise ValidationError(
            f"--weights expects comma-separated integers, got {args.weights!r}"
        ) from exc
    alg = AlgebraLabel(args.series, args.rank)
    rep = build_ladder_rep(alg, weight)
    report = verify_structure_relations(rep)  # raises VerificationError on failure
    doc = {
        "metadata": _metadata(args, algebra=str(alg), weight=list(weight)),
        "dim": rep.dim,
        "basis": list(rep.basis),
        "nu": report.nu,
        "mu": report.mu,
        "q": str(report.q),
        "matrices": {
            "F": rep.F.table(),
            "D+": rep.Dplus.table(),
            "D-": rep.Dminus.table(),
        },
        "relations": {name: _jnum(v) for name, v in sorted(report.residual_norms().items())},
        "factorization_residual": str(report.factorization_residual),
        "mu_root_residual": str(report.mu_root_residual),
        "ok": report.ok,
    }
    _emit_json(doc)
    return 0


def cmd_fuchs(args):
    _require(args, "kind", "n", "case")
    params = _params_from_args(args)
    coeffs = radial_coefficients(args.n, args.case, args.mk)
    if args.energy is None and args.k is None:
        raise ValidationError("fuchs needs an energy: give --energy or a level --k")
    if args.energy is not None and args.k is not None:
        raise ValidationError("give either --energy or --k, not both")
    if args.k is not None:
        energy = closed_form_energy(args.kind, params, coeffs, args.k)
    else:
        energy = args.energy

    plane = (coulomb_exponents if args.kind == KIND_COULOMB else oscillator_exponents)(
        params, coeffs, energy
    )
    red = to_heun(args.kind, params, coeffs, energy)
    hp = red.heun

    def point_doc(p):
        loc = "inf" if p.location is INFINITY else _jnum(p.location)
        return {"location": loc, "exponents": [_jnum(e) for e in p.exponents]}

    try:
        maier = maier_classify(hp)
    except VerificationError as exc:
        # alpha*beta = q = 0 satisfies every table row; placement is undefined
        maier = None
        maier_doc = {"degenerate": True, "note": str(exc)}
    else:
        maier_doc = None
    if maier is not None:
        maier_doc = {
            "case": maier.case_id,
            "d_canonical": _jnum(maier.d_canonical),
            "cross_ratio_class": cross_ratio_classify(maier.d_canonical),
        }
        if maier.case_id == 1:
            hyp = reduce_case1(hp)
            maier_doc["gauss"] = {
                "alpha": _jnum(hyp.alpha),
                "beta": _jnum(hyp.beta),
                "gamma": _jnum(hyp.gamma),
            }
            maier_doc["pullback_residual"] = case1_pullback_residual(hp)

    doc = {
        "metadata": _metadata(args, coeffs, energy=_jnum(energy)),
        "points": [point_doc(p) for p in plane.points],
        "fuchs_sum": _jnum(plane.fuchs_sum()),
        "psymbol": psymbol(plane),
        "heun": {
            "d": _jnum(hp.d),
            "alpha": _jnum(hp.alpha),
            "beta": _jnum(hp.beta),
            "gamma": _jnum(hp.gamma),
            "delta": _jnum(hp.delta),
            "epsilon": _jnum(hp.epsilon),
            "q": _jnum(hp.q),
            "consistency_residual": abs(hp.consistency_residual()),
        },
        "sigma": [_jnum(s) for s in red.sigma],
        "accessory_probe": _jnum(accessory_parameter_probe(red)),
        "maier": maier_doc,
    }
    if args.kind == KIND_OSCILLATOR:
        doc["zeta_points"] = [point_doc(p) for p in red.fuchsian.points]
    _emit_json(doc)
    return 0


def _check_doc(chk):
    """JSON form of a CheckResult: every field but the timing and an absent
    `solver`, non-finite -> null."""
    doc = chk._asdict()
    del doc["seconds"]  # timings go to stderr so stdout stays deterministic
    if doc["solver"] is None:
        del doc["solver"]
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in doc.items()}


def cmd_verify(args):
    reports = run_suite(args.suite)
    if not isinstance(reports, list):
        reports = [reports]
    failed = 0
    for rpt in reports:
        for chk in rpt.checks:
            tag = "ok" if chk.passed else "FAIL"
            sys.stderr.write(
                f"[{rpt.name}] {tag}: {chk.name} -- {chk.detail} ({chk.seconds:.2f}s)\n"
            )
            failed += 0 if chk.passed else 1
        sys.stderr.write(f"[{rpt.name}] finished in {rpt.seconds:.1f}s\n")
    doc = {
        "metadata": _metadata(args, suite=args.suite),
        "suites": [
            {
                "name": rpt.name,
                "ok": rpt.ok,
                "checks": [_check_doc(c) for c in rpt.checks],
            }
            for rpt in reports
        ],
        "ok": failed == 0,
    }
    _emit_json(doc)
    return 0 if failed == 0 else 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=_TOOL,
        description="Closed-form spectra and representation machinery for the "
        "two-body problem on the n-sphere, with built-in verification.",
    )
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    parser.add_argument("--config", help="key = value file supplying default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    # "required" flags default to None and are checked after the config file
    # merges in, so a config can stand in for any flag
    def add_physics(p, energy=False):
        p.add_argument("--kind", choices=_KINDS)
        p.add_argument("--n", type=int, help="sphere dimension (>= 2)")
        p.add_argument("--case", type=int, help="classification case id")
        p.add_argument("--mk", type=int, default=None, help="last weight entry (n >= 3)")
        p.add_argument("--m1", type=float, default=1.0, help="first mass")
        p.add_argument("--m2", type=float, default=1.0, help="second mass")
        p.add_argument("--radius", type=float, default=1.0, help="sphere radius R")
        p.add_argument("--coupling", type=float, default=1.0,
                       help="coulomb strength or oscillator frequency")
        if energy:
            p.add_argument("--energy", type=float, default=None, help="energy parameter E")
            p.add_argument("--k", type=int, default=None,
                           help="use the closed-form level k instead of --energy")

    p_spec = sub.add_parser("spectrum", help="energy levels with multiplicities")
    add_physics(p_spec)
    p_spec.add_argument("--k-min", type=int, default=None)
    p_spec.add_argument("--k-max", type=int, default=None)
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.add_argument("--samples", type=int, default=0,
                        help="also sample each eigenfunction at this many points")
    p_spec.set_defaults(func=cmd_spectrum)

    p_cls = sub.add_parser("classify", help="common-eigenvector classification table")
    p_cls.add_argument("--n", type=int)
    p_cls.add_argument("--mk", type=int, help="last weight entry")
    p_cls.add_argument("--mk1", type=int, default=None, help="next-to-last weight entry")
    p_cls.set_defaults(func=cmd_classify)

    p_lad = sub.add_parser("ladder", help="ladder matrices and exact relation checks")
    p_lad.add_argument("--series", choices=("B", "D"))
    p_lad.add_argument("--rank", type=int)
    p_lad.add_argument("--weights", help="comma-separated weight entries")
    p_lad.set_defaults(func=cmd_ladder)

    p_fuc = sub.add_parser("fuchs", help="exponents, Heun parameters, reduction case")
    add_physics(p_fuc, energy=True)
    p_fuc.set_defaults(func=cmd_fuchs)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args, argv)
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (VerificationError, ConvergenceError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
