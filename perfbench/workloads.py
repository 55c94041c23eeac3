"""Seeded input generators for the four benchmark workloads.

Only the standard library is used here, so the inputs exist before the
package is imported and the package sees nothing but the generated values.

Every workload is a sequence of *passes*.  A pass is a fixed, seeded set of
operations whose cost-relevant structure (kinds, dimensions, level indices,
modules) is the same for every seed; the seed chooses the continuous
parameters within their strata, the remaining sector choices and the order.
That keeps the throughput of one pass comparable across seeds while the
inputs still change with the seed.
Pass p of seed s is generated from the string "<workload>:<s>:<p>", so the
same seed always gives the same sequence.
"""

import random
from collections import Counter

WORKLOADS = ("cli_cold", "exact_algebra", "shooting_levels", "eigen_sweep")

COULOMB = "coulomb"
OSCILLATOR = "oscillator"
KINDS = (COULOMB, OSCILLATOR)

# k <= LOW_BAND_MAX is the low band; eigen_sweep's high band is 11..HIGH_BAND_MAX
LOW_BAND_MAX = 10
HIGH_BAND_MAX = 40

# n = 2 cases with a = c; for n >= 3 cases 1 and 4 are symmetric
_N2_SYMMETRIC = (1, 2, 5, 8)
_N2_ASYMMETRIC = (3, 4, 6, 7)
_MK_MIN = {1: 0, 2: 1, 3: 1, 4: 2}
_MK_MAX = 4
# n = 2 cases 1 and 2, and case 1 for every n, allow unequal masses
_ARBITRARY_MASS = {(2, 1), (2, 2)}

_MASS = (0.5, 2.5)
_RADIUS = (0.5, 2.0)
_COUPLING = (0.2, 2.0)


def _rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _strata(rng, count, lo, hi, layout):
    """count draws from [lo, hi], one per equal-width stratum.

    Latin-hypercube style: every pass sees the whole range evenly.  `layout`
    shuffles which cell gets which stratum; the seed only places each draw
    inside its stratum.
    """
    width = (hi - lo) / count
    order = list(range(count))
    layout.shuffle(order)
    return [lo + (i + rng.random()) * width for i in order]


def _sector(rng, n, symmetric=True):
    """(case, mk) for dimension n."""
    if n == 2:
        case = rng.choice(_N2_SYMMETRIC if symmetric else _N2_ASYMMETRIC)
        return case, None
    case = rng.choice((1, 4) if symmetric else (2, 3))
    return case, rng.randint(_MK_MIN[case], _MK_MAX)


def _equal_masses(n, case):
    return case != 1 and (n, case) not in _ARBITRARY_MASS


def _physics(rng, n, case, mk, m1, m2, radius, coupling):
    if _equal_masses(n, case):
        m2 = m1
    return {"n": n, "case": case, "mk": mk, "m1": m1, "m2": m2,
            "radius": radius, "coupling": coupling}


def _sectors(rng, cells, layout):
    """One physical sector per (kind, n, k, case, mk) cell.

    The continuous draws are stratified over the whole pass.
    """
    count = len(cells)
    m1s = _strata(rng, count, *_MASS, layout)
    m2s = _strata(rng, count, *_MASS, layout)
    radii = _strata(rng, count, *_RADIUS, layout)
    couplings = _strata(rng, count, *_COUPLING, layout)
    ops = []
    for i, (kind, n, k, case, mk) in enumerate(cells):
        op = _physics(rng, n, case, mk, m1s[i], m2s[i], radii[i], couplings[i])
        op.update(kind=kind, k=k)
        ops.append(op)
    rng.shuffle(ops)
    return ops


# Shooting cost grows steeply with the carrier weight (about 3.5x from mk = 0
# to 4), the level index, the radius and the coupling, so every pass has the
# same cells (kind, n, sector, k) and the same strata per cell; the seed moves
# the draws inside their strata and orders the pass.
_SHOOTING_N2_CASES = ((1, 5, 2), (2, 8, 5))
_SHOOTING_SECTORS = (((1, 0), (4, 2), (1, 3)), ((1, 1), (1, 2), (4, 4)))


def _shooting_pass(rng):
    # both sector triples for every (kind, n), each paired with the three
    # lowest k: 60 levels, so that the median and tail of a pass rest on
    # enough levels to stay put from seed to seed
    layout = random.Random("shooting_levels:layout")
    cells = []
    for kind in KINDS:
        k0 = 1 if kind == COULOMB else 0
        for n in range(2, 7):
            if n == 2:
                triples = [[(case, None) for case in t] for t in _SHOOTING_N2_CASES]
            else:
                triples = _SHOOTING_SECTORS
            for sectors in triples:
                ks = list(range(k0, k0 + 3))
                layout.shuffle(ks)
                cells += [(kind, n, k, case, mk) for k, (case, mk) in zip(ks, sectors)]
    ops = _sectors(rng, cells, layout)
    for op in ops:
        op["type"] = "shoot"
    return ops


def _eigen_pass(rng):
    # low band twice, high band once: about half the operations per band, so
    # op_p50_s sits between the bands and a low-k slowdown moves it
    cells = []
    for kind in KINDS:
        k0 = 1 if kind == COULOMB else 0
        ks = [k for k in range(k0, LOW_BAND_MAX + 1) for _ in range(2)]
        ks += range(LOW_BAND_MAX + 1, HIGH_BAND_MAX + 1)
        for k in ks:
            n = rng.randint(2, 6)
            cells.append((kind, n, k) + _sector(rng, n))
    ops = _sectors(rng, cells, rng)
    for op in ops:
        op["type"] = "eigen"
    return ops


def ladder_universe(max_rank=6, max_mk=8):
    """Every ladder-bearing module of B1..B6 and D2..D6 with entries <= 8.

    Same enumeration as the package's structure-relation suite: weights are
    zero-padded except for the last two entries; B1 modules carry surds.
    """
    out = [("B", 1, (m,)) for m in range(max_mk + 1)]
    for rank in range(2, max_rank + 1):
        pad = (0,) * (rank - 2)
        for mk in range(max_mk + 1):
            for mk1 in range(mk + 1):
                out.append(("B", rank, pad + (mk1, mk)))
            lo = -mk if rank == 2 else 0
            for mk1 in range(lo, mk + 1):
                out.append(("D", rank, pad + (mk1, mk)))
    return out


def _algebra_pass(rng):
    # the whole universe each pass: it has a few very heavy modules (B1 with
    # m = 7, 8 take seconds), so any subset would make throughput depend on
    # whether they were drawn
    ops = [{"type": "algebra", "series": s, "rank": r, "weight": list(w)}
           for s, r, w in ladder_universe()]
    rng.shuffle(ops)
    return ops


def _physics_flags(op):
    argv = ["--kind", op["kind"], "--n", str(op["n"]), "--case", str(op["case"])]
    if op["mk"] is not None:
        argv += ["--mk", str(op["mk"])]
    argv += ["--m1", repr(op["m1"]), "--m2", repr(op["m2"]),
             "--radius", repr(op["radius"]), "--coupling", repr(op["coupling"])]
    return argv


def _cli_physics(rng, symmetric=True):
    n = rng.randint(2, 6)
    case, mk = _sector(rng, n, symmetric)
    op = _physics(rng, n, case, mk, rng.uniform(*_MASS), rng.uniform(*_MASS),
                  rng.uniform(*_RADIUS), rng.uniform(*_COUPLING))
    op["kind"] = rng.choice(KINDS)
    return op


def _cli_spectrum(rng, fmt, symmetric):
    op = _cli_physics(rng, symmetric)
    k0 = 1 if op["kind"] == COULOMB else 0
    k_min = rng.randint(k0, 4)
    k_max = rng.randint(k_min, 8)
    samples = rng.randint(0, 20) if fmt == "json" else 0
    argv = ["spectrum"] + _physics_flags(op) + [
        "--k-min", str(k_min), "--k-max", str(k_max), "--format", fmt]
    if samples:
        argv += ["--samples", str(samples)]
    op.update(type="spectrum", format=fmt, k_min=k_min, k_max=k_max,
              samples=samples, symmetric=symmetric, argv=argv)
    return op


def _cli_classify(rng):
    n = rng.randint(2, 6)
    if n == 2:
        mk, mk1 = rng.randint(0, 3), None
        argv = ["classify", "--n", "2", "--mk", str(mk)]
    else:
        mk = rng.randint(0, 5)
        mk1 = rng.randint(max(0, mk - 2), mk)
        argv = ["classify", "--n", str(n), "--mk", str(mk), "--mk1", str(mk1)]
    return {"type": "classify", "n": n, "mk": mk, "mk1": mk1, "argv": argv}


def _cli_ladder(rng):
    series = rng.choice("BD")
    rank = rng.randint(1 if series == "B" else 2, 4)
    if rank == 1:
        weight = [rng.randint(0, 4)]
    else:
        mk = rng.randint(0, 4)
        weight = [0] * (rank - 2) + [rng.randint(0, mk), mk]
    argv = ["ladder", "--series", series, "--rank", str(rank),
            "--weights", ",".join(str(x) for x in weight)]
    return {"type": "ladder", "series": series, "rank": rank, "weight": weight,
            "argv": argv}


def _cli_fuchs(rng):
    op = _cli_physics(rng)
    k = rng.randint(1 if op["kind"] == COULOMB else 0, 8)
    op.update(type="fuchs", k=k, argv=["fuchs"] + _physics_flags(op) + ["--k", str(k)])
    return op


def _cli_pass(rng):
    # sixteen distinct command lines, each run twice: the repeat is how the
    # byte-identical-output check gets its pairs without extra processes
    distinct = (
        [_cli_spectrum(rng, "json", True) for _ in range(4)]
        + [_cli_spectrum(rng, "csv", True) for _ in range(2)]
        + [_cli_spectrum(rng, fmt, False) for fmt in ("json", "csv")]
        + [_cli_classify(rng) for _ in range(3)]
        + [_cli_ladder(rng) for _ in range(3)]
        + [_cli_fuchs(rng) for _ in range(2)]
    )
    for i, op in enumerate(distinct):
        op["pair"] = i
    first, second = list(distinct), list(distinct)
    rng.shuffle(first)
    rng.shuffle(second)
    return first + second


_PASSES = {
    "cli_cold": _cli_pass,
    "exact_algebra": _algebra_pass,
    "shooting_levels": _shooting_pass,
    "eigen_sweep": _eigen_pass,
}


def generate(workload, seed, pass_index):
    """The operations of one pass, as plain JSON-ready dicts."""
    return _PASSES[workload](_rng(workload, seed, pass_index))


def _band(k):
    return "low" if k <= LOW_BAND_MAX else "high"


def summarize(ops):
    """Operations by type, counts per k band, and sectors with a != c."""
    by_type = Counter(op["type"] for op in ops)
    bands = Counter()
    for op in ops:
        if "k" in op:
            bands[_band(op["k"])] += 1
        elif "k_max" in op:
            bands[_band(op["k_max"])] += 1
    return {
        "ops": len(ops),
        "by_type": dict(sorted(by_type.items())),
        "k_bands": dict(sorted(bands.items())),
        "asymmetric_sectors": sum(1 for op in ops if op.get("symmetric") is False),
    }
