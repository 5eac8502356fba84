"""Workloads, per-op correctness checks and the metrics of the trinoid benchmark.

Every op is one in-process call of ``trinoid.cli.main(argv)``, the entry
point behind the ``trinoid`` script.  The load is one closed-loop client:
an op starts only after the previous one has returned and been checked.
Nothing here imports numpy or trinoid at module import time; ``run.py``
caps the BLAS threads first.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORK = Path("perfbench") / "out" / "work"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def inputs(self, seed: int):
        """Endless stream of argv lists; the same seed gives the same stream."""
        if self.name == "monodromy_sweep":
            for triple in sweep_triples(seed):
                yield ["monodromy", "--angles", triple, "--json", str(WORK / f"{self.name}.json")]
        else:
            argv = list(MESH_ARGS[self.name])
            argv += ["--out", str(WORK / f"{self.name}.{mesh_format(argv)}")]
            argv += ["--json", str(WORK / f"{self.name}.json")]
            while True:
                yield list(argv)


MESH_ARGS = {
    "mesh_big_family": (
        "mesh", "--angles", "3,3,3", "--deform", "0.3,0.1,-0.2", "--format", "ply",
        "--rings", "4", "--sectors", "12",
    ),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mesh_big_family",
            "BIG 3,3,3 AllOfH3 family at 4x12 with PLY export: 1,631 kernel calls on stiff "
            "coefficients with fast-growing frames, so grid-edge batching and any accuracy "
            "loss show here",
        ),
        Workload(
            "monodromy_sweep",
            "seeded random triples with B/pi in (0.1, 1.95), four long loop transports per op "
            "and no grid edges; a grid-edge engine bypasses it, so the prediction is no change",
        ),
    )
}


def mesh_format(argv) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "obj"


# U(0.1, 1.95) without the band within 0.05 of 1: integer half-angles are
# the reducible and resonant classes, which the mesh workload covers.  Angles
# above 2 are left out because the program fails on some of them: the loop
# transports grow to 1e4-1e5, the determinant drifts past Tolerances.det, and
# on a few triples, all with one angle above 2.3 and one within 0.1 of 1,
# scalar and matrix monodromy disagree past Tolerances.projective.  A timed
# op that fails says nothing about speed; crosscheck.py runs such triples and
# reports whether the program still fails on them.
ALLOWED = ((0.1, 0.95), (1.05, 1.95))

# Halton bases per angle; B1 and B2, which set the cost of the two loops,
# get the two most even ones.
_HALTON_BASES = (2, 3, 5)


def allowed_angle(u: float) -> float:
    """Inverse distribution function of the uniform law on ALLOWED."""
    x = u * sum(b - a for a, b in ALLOWED)
    for a, b in ALLOWED:
        if x <= b - a:
            return a + x
        x -= b - a
    return ALLOWED[-1][1]


def _radical_inverse(n: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while n:
        n, digit = divmod(n, base)
        inv += digit * scale
        scale /= base
    return inv


def sweep_triples(seed: int):
    """Angle strings with each B_j/pi uniform on ALLOWED, i.e. drawn from
    U(0.1, 1.95) with draws within 0.05 of 1 rejected.

    The triples are a randomized quasi-Monte Carlo sample: the Halton
    sequence shifted modulo 1 by a vector drawn from the seed.  Each angle
    keeps its law for every seed, but any run covers the range of each
    angle evenly, so the median op cost varies far less between seeds
    than with independent draws.
    """
    rng = random.Random(seed)
    shift = [rng.random() for _ in _HALTON_BASES]
    n = 0
    while True:
        n += 1
        yield ",".join(
            f"{allowed_angle((s + _radical_inverse(n, b)) % 1.0):.6f}"
            for s, b in zip(shift, _HALTON_BASES)
        )


# ---------------------------------------------------------------------------
# per-op checks


@dataclass
class OpResult:
    """One timed op.  failures: the op failed (exit code or a gate the
    program reports); errors: its output is wrong (malformed, inconsistent
    with its own report, or not reproducible byte for byte)."""

    argv: list
    rc: int
    seconds: float
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    headroom: float | None = None
    digest: str | None = None
    status: str | None = None  # moduli class of a sweep triple
    report: dict | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.errors)


def _decades(gate: float, observed: float) -> float:
    return math.log10(gate / max(float(observed), 1e-300))


def _mesh_file_counts(path: Path, fmt: str) -> tuple[int, int]:
    data = path.read_bytes()
    if fmt == "obj":
        lines = data.decode("ascii").splitlines()
        return (
            sum(1 for ln in lines if ln.startswith("v ")),
            sum(1 for ln in lines if ln.startswith("f ")),
        )
    head, sep, body = data.partition(b"end_header\n")
    if not sep:
        raise ValueError("PLY file has no end_header line")
    counts = {}
    props = 0
    for ln in head.decode("ascii").splitlines():
        parts = ln.split()
        if parts[:1] == ["element"]:
            counts[parts[1]] = int(parts[2])
        elif parts[:2] == ["property", "float64"]:
            props += 1
    nv, nf = counts["vertex"], counts["face"]
    expected = nv * 8 * props + nf * 13  # float64 rows, then uchar + 3 int32 per face
    if len(body) != expected:
        raise ValueError(f"PLY body has {len(body)} bytes, header implies {expected}")
    return nv, nf


def check_mesh(argv, report: dict, tol) -> tuple[list, list, float]:
    failures = []
    errors = []
    wd = report["well_definedness"]
    if not wd["passed"]:
        failures.append(f"well-definedness failed at {wd['max_defect']:.3g}")
    if not report["max_det_defect"] < tol.det:
        failures.append(f"max_det_defect {report['max_det_defect']:.3g} >= {tol.det:.3g}")
    fmt = mesh_format(argv)
    out = Path(argv[argv.index("--out") + 1])
    nv, nf = _mesh_file_counts(out, fmt)
    if (nv, nf) != (report["n_vertices"], report["n_faces"]):
        errors.append(
            f"{fmt} file holds {nv} vertices / {nf} faces, report says "
            f"{report['n_vertices']} / {report['n_faces']}"
        )
    headroom = min(
        _decades(tol.det, report["max_det_defect"]),
        _decades(tol.well_defined, wd["max_defect"]),
    )
    return failures, errors, headroom


def check_monodromy(argv, report: dict, tol) -> tuple[list, list, float]:
    failures = []
    if not report["scalar_matrix_equivalent"]:
        failures.append("scalar and matrix monodromy are not projectively equivalent")
    trace_defect = max(g["trace_defect"] for g in report["generators"].values())
    headroom = min(
        _decades(tol.det, report["det_drift"]),
        _decades(tol.eigenvalue_warn, trace_defect),
    )
    return failures, [], headroom


CHECKS = {"mesh": check_mesh, "monodromy": check_monodromy}


def run_op(main, argv: list, tol, clock) -> OpResult:
    """Time one CLI op, then check its exit code, report and output file."""
    t0 = clock()
    rc = main(argv)
    res = OpResult(argv=argv, rc=int(rc), seconds=clock() - t0)
    if rc != 0:
        res.failures.append(f"exit code {rc}")
        return res
    try:
        raw = Path(argv[argv.index("--json") + 1]).read_bytes()
        res.report = json.loads(raw)
        digest = hashlib.sha256(raw)
        if "--out" in argv:
            digest.update(Path(argv[argv.index("--out") + 1]).read_bytes())
        res.digest = digest.hexdigest()
        res.failures, res.errors, res.headroom = CHECKS[argv[0]](argv, res.report, tol)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        res.errors.append(f"missing or malformed output: {exc!r}")
    return res


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With n samples sorted ascending, that is the sample at index n - 11, so
    exactly ten lie above it.  Below 21 samples that percentile is at or
    under the median, which says nothing about the tail, so the maximum is
    returned as percentile 100 instead.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# metric tables; BENCHMARK.json must list exactly these names and units

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gate_headroom_decades": "decades",
    "gate_headroom_low_half_decades": "decades",
}

# fields summed over the traced ops and divided by their number; any other
# field is a dimensionless defect reported as its largest value in the run
_PER_OP_UNITS = {"s": "s", "self_s": "s", "calls": "count", "steps": "count",
                 "edges": "count", "bytes": "bytes"}


def _per_layer_table() -> dict:
    """name -> (unit, span, field, how), how being "per_op" or "max"."""
    rows = [
        (f"kernel.integrate_path.{part}", f)
        for part in ("transport_frame", "recover_weierstrass", "monodromy")
        for f in ("s", "calls", "steps")
    ]
    rows += [
        (f"surface.{stage}", f)
        for stage in ("sample_grid", "transport_frame", "recover_weierstrass", "build_mesh",
                      "export", "well_definedness_defect")
        for f in ("s", "self_s")
    ]
    rows += [
        ("surface.sample_grid", "edges"),
        ("surface.export", "bytes"),
        ("surface.transport_frame", "max_det_defect"),
        ("surface.recover_weierstrass", "max_null_defect"),
    ]
    rows += [
        (f"fuchsian.{fn}", f)
        for fn in ("monodromy", "make_path_plan", "projective_equivalence")
        for f in ("s", "calls", "self_s")
    ]
    rows += [
        ("fuchsian.monodromy", "det_drift"),
        ("fuchsian.monodromy", "err_estimate"),
        ("unitarize.unitarizer_space", "s"),
        ("unitarize.family_representation", "calls"),
        ("moduli.classify", "s"),
        ("moduli.classify", "calls"),
        ("trinoid_data.build_trinoid_data", "s"),
        ("cli.main", "self_s"),
    ]
    return {
        f"{span}.{f}": (_PER_OP_UNITS.get(f, "1"), span, f,
                        "per_op" if f in _PER_OP_UNITS else "max")
        for span, f in rows
    }


PER_LAYER = _per_layer_table()

# metrics computed from the whole traced run rather than one span field
DERIVED_UNITS = {
    "kernel.integrate_path.s": "s",
    "kernel.steps_per_s": "1/s",
    "kernel.op_share": "%",
    "surface.recover_weierstrass.omega_dg_resid_max": "1",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    units.update(DERIVED_UNITS)
    return units


def _hook_span(span: str) -> str:
    # kernel.integrate_path.<owner> is cut from the kernel.integrate_path spans
    return "kernel.integrate_path" if span.startswith("kernel.integrate_path") else span


def layer_metrics(summary: dict, n_ops: int, absent_spans: set) -> dict:
    """Per-layer values from a span summary; absent hooks give no value."""
    out = {}
    for name, (_unit, span, fld, how) in PER_LAYER.items():
        if _hook_span(span) in absent_spans:
            continue
        agg = summary.get(span)
        if agg is None:
            out[name] = 0.0  # hook installed, layer not reached by this workload
        elif fld in agg:
            out[name] = agg[fld] / n_ops if how == "per_op" else agg[fld]
        elif agg.get("calls", 0) == 0:
            out[name] = 0.0
        # else: the observer could not read the field; leave it absent
    kern = summary.get("kernel.integrate_path")
    root = summary.get("cli.main")
    if kern is not None and "kernel.integrate_path" not in absent_spans:
        out["kernel.integrate_path.s"] = kern["s"] / n_ops
        if "steps" in kern:
            out["kernel.steps_per_s"] = kern["steps"] / kern["s"]
        if root is not None:
            out["kernel.op_share"] = 100.0 * kern["s"] / root["s"]
    return out
