"""Command-line interface with machine-readable JSON reports.

Every command prints one JSON document with sorted keys and floats fixed
at seventeen significant digits, so identical configurations produce byte
identical output.  This module is the one place where settings enter
the program: ``_config_from`` parses the options and reads the environment
variable TRINOID_TOL_SCALE once, through ``config.default_tolerances``,
into the tolerances that every library call is then passed.  Each command
reads the argparse namespace, with the angle and deformation strings
replaced by their parsed values and the tolerances added;
``COMMANDS`` maps the subcommand name to it.  An error's type carries its
exit code: 2 for invalid input (``TrinoidError`` and ``ValueError``, and
an ``OSError`` from writing the mesh file or the report), 3 for a
``NumericalFailure``, 4 for empty moduli in a mesh request; 0 is success.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .algebra import eigenvalues_2x2
from .config import Tolerances, default_tolerances
from .errors import NotUnitarizable, ResonantReducible, TrinoidError, ZeroCoefficient
from .fuchsian import MODE_SCALAR, make_path_plan, monodromy, projective_equivalence
from .moduli import (
    ModuliClass,
    Status,
    classify,
    conical_data,
    fh_attach_bigon,
    fh_attach_hemisphere,
    hanbetu_holds,
    irreducible_exists,
    irreducible_reduced_sum,
    type_signature,
)
from .surface import (
    FrameTransport,
    SampleGrid,
    SurfaceMesh,
    WeierstrassData,
    build_mesh,
    export_obj,
    export_ply,
    recover_weierstrass,
    sample_grid,
    transport_frame,
    well_definedness_defect,
)
from .trinoid_data import TrinoidData, build_trinoid_data, hypergeometric_params
from .unitarize import UnitarizerSpace, family_representation, unitarizer_space

SCHEMA_VERSION = 1

_EMPTYISH = (Status.EMPTY, Status.EXCLUDED_ANGLE_IS_PI, Status.DEGENERATE_HANBETU)


class _EmptyModuli(TrinoidError):
    """The h3 classification leaves no surface to mesh."""

    exit_code = 4


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, complex):
        return _json_text({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{_json_text(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _angles_json(angles) -> dict:
    return {
        "pi_multiples": [x / math.pi for x in angles],
        "radians": list(angles),
    }


def _class_json(mc) -> dict:
    return {
        "status": mc.status.value,
        "dimension": mc.dimension,
        "labeling": list(mc.labeling) if mc.labeling else None,
        "flags": list(mc.flags),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_classify(ns: argparse.Namespace) -> dict:
    """Classification report: exponents, existence gates, both targets."""
    b, tol = ns.angles, ns.tol
    cone = conical_data(b, tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "angles": _angles_json(b),
        "beta": list(cone.beta),
        "c": list(cone.c),
        "hanbetu": hanbetu_holds(cone.c, tol),
        "irreducible_quadratic": irreducible_exists(b, tol),
        "irreducible_reduced_sum": irreducible_reduced_sum(b, tol),
        "h3": _class_json(classify(b, target="h3", tol=tol)),
        "s2": _class_json(classify(b, target="s2", tol=tol)),
    }
    try:
        report["type_signature"] = list(type_signature(cone.c))
    except ZeroCoefficient:
        report["type_signature"] = None
    hyper = hypergeometric_params(b)
    report["hypergeometric"] = {"a": hyper.a, "b": hyper.b, "c": hyper.c}
    return report


def cmd_monodromy(ns: argparse.Namespace) -> dict:
    """Monodromy report: generators, eigenvalue checks, unitarizability.

    det_drift_passed reads the det gate (det_drift <= Tolerances.det) but
    does not fail the command: a drift past it is reported, with exit 0.
    """
    b, tol = ns.angles, ns.tol
    data = build_trinoid_data(b, tol)
    plan = make_path_plan(data)
    rep = monodromy(data, plan=plan, tol=tol)
    scalar = monodromy(data, plan=plan, mode=MODE_SCALAR, tol=tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "monodromy",
        "angles": _angles_json(b),
        "det_drift": rep.det_drift,
        "det_drift_passed": bool(rep.det_drift <= tol.det),
        "err_estimate": rep.err_estimate,
        "scalar_matrix_equivalent": projective_equivalence(rep, scalar, tol),
        "generators": {},
    }
    for name, rho, angle in (
        ("rho1", rep.rho1, b[0]),
        ("rho2", rep.rho2, b[1]),
        ("rho3", rep.rho3, b[2]),
    ):
        lam = eigenvalues_2x2(rho)
        trace = complex(rho[0, 0] + rho[1, 1])
        expected = -2.0 * math.cos(angle)
        report["generators"][name] = {
            "matrix": _matrix_json(rho),
            "eigenvalues": [complex(lam[0]), complex(lam[1])],
            "trace": trace,
            "expected_trace": expected,
            "trace_defect": abs(trace - expected),
        }
    try:
        space, source = unitarizer_space(rep, b, tol), "ode"
        report["unitarizable"] = True
    except ResonantReducible as exc:
        # a reducible triple on the resonance boundary has Jordan loop
        # transports that no conjugation makes unitary; the moduli space
        # is still realized by the diagonal family representation, so the
        # report falls back to it for the space kind
        report["unitarizable"], report["unitarizable_detail"] = False, str(exc)
        space, source = unitarizer_space(family_representation(b, tol), b, tol), "family"
    except NotUnitarizable as exc:
        report["unitarizable"], report["unitarizable_detail"] = False, str(exc)
        space = source = None
    report["unitarizer_source"] = source
    report["unitarizer_kind"] = None if space is None else space.kind.value
    report["unitarizer_dimension"] = None if space is None else space.dim
    return report


@dataclasses.dataclass(frozen=True)
class Surface:
    """Every stage of one trinoid surface, from the angles to the mesh; the
    monodromy representation enters the unitarizer space and is not kept."""

    data: TrinoidData
    verdict: ModuliClass
    space: UnitarizerSpace
    conj: np.ndarray
    deform: tuple[float, ...]
    grid: SampleGrid
    transport: FrameTransport
    weier: WeierstrassData
    mesh: SurfaceMesh


def build_surface(angles, rings: int, sectors: int, deform=None, tol: Tolerances = Tolerances()) -> Surface:
    """Run every stage from the angles to a rings x sectors mesh and return them all.

    The stages are classification, Hopf/Gauss data, monodromy, unitarizer
    space, conjugator (the point of the space that deform picks, zeros by
    default), sample grid, frame transport, Weierstrass recovery and mesh.
    Each stage is looked up among this module's globals at call time, so
    a tracer that swaps them sees each stage.  Raises _EmptyModuli when the
    h3 classification leaves no surface to build.
    """
    verdict = classify(angles, target="h3", tol=tol)
    if verdict.status in _EMPTYISH:
        raise _EmptyModuli(f"no surface to mesh: classification is {verdict.status.value}")

    data = build_trinoid_data(angles, tol)
    rep = monodromy(data, tol=tol)
    space = unitarizer_space(rep, angles, tol)
    deform = (0.0,) * space.dim if deform is None else tuple(deform)
    if len(deform) != space.dim:
        raise ValueError(
            f"expected {space.dim} deformation parameters for kind "
            f"{space.kind.value}, got {len(deform)}"
        )
    conj = space.sample(np.asarray(deform, dtype=float))

    grid = sample_grid(data, rings=rings, sectors=sectors)
    transport = transport_frame(data, grid, tol=tol)
    weier = recover_weierstrass(transport, tol)
    mesh = build_mesh(transport, weier, conj, tol=tol)
    return Surface(
        data=data, verdict=verdict, space=space, conj=conj, deform=deform,
        grid=grid, transport=transport, weier=weier, mesh=mesh,
    )


def cmd_mesh(ns: argparse.Namespace) -> dict:
    """Generate and export the mesh, reporting residual diagnostics.

    max_omega_dg_residual is the largest relative omega dg residual (the
    mesh's "rel" diagnostic) over the annulus vertices, inner rings
    included.  The recovery takes it in each stencil's local frame, so it
    measures the transport along the stencils whatever the frame norm
    (about 8e-10 for 3,3,3 at 4x12, whose frames reach norm 1e6, and 6e-10
    for 2/3,2/3,2/3); it does not see an error of the vertex frames
    themselves.  No gate reads it.  well_definedness holds the largest
    ball distance between the two branches of the mesh point over every
    annulus vertex (surface.well_definedness_defect), the vertex where it
    occurs, and whether it is below Tolerances.well_defined.
    """
    surf = build_surface(ns.angles, ns.rings, ns.sectors, ns.deform, ns.tol)
    grid, transport, weier = surf.grid, surf.transport, surf.weier

    out = ns.out or f"trinoid.{ns.fmt}"
    if ns.fmt == "ply":
        export_ply(surf.mesh, out)
    else:
        export_obj(surf.mesh, out)

    defect = well_definedness_defect(transport, surf.conj, tol=ns.tol)
    worst = int(np.argmax(defect))

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "mesh",
        "angles": _angles_json(ns.angles),
        "classification": _class_json(surf.verdict),
        "unitarizer_kind": surf.space.kind.value,
        "deformation": list(surf.deform),
        "grid": {"rings": grid.rings, "sectors": grid.sectors},
        "files": [str(out)],
        "format": ns.fmt,
        "n_vertices": grid.n_vertices,
        "n_faces": int(len(grid.faces)),
        "max_det_defect": transport.stats["max_det_defect"],
        "max_omega_dg_residual": float(surf.mesh.diagnostics["rel"][weier.numeric].max()),
        "well_definedness": {
            "max_defect": float(defect[worst]),
            "passed": bool(defect[worst] < ns.tol.well_defined),
            "worst_vertex": worst,
        },
    }


def cmd_fh(ns: argparse.Namespace) -> dict:
    """Angle surgery report: classification before and after."""
    b, tol = ns.angles, ns.tol
    edge = None if ns.edge is None else tuple(int(p) for p in _parse_pair(ns.edge, "--edge"))
    before = classify(b, target=ns.target, tol=tol)
    if ns.op == "hemisphere":
        if edge is None:
            raise ValueError("hemisphere surgery needs --edge i,j")
        after_angles = fh_attach_hemisphere(b, edge, tol)
    else:
        if ns.vertex is None or ns.edge_other is None:
            raise ValueError("bigon surgery needs --vertex and --edge-other")
        after_angles = fh_attach_bigon(b, ns.vertex, ns.edge_other, tol)
    after = classify(after_angles, target=ns.target, tol=tol)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "fh",
        "operation": ns.op,
        "target": ns.target,
        "angles_before": _angles_json(b),
        "angles_after": _angles_json(after_angles),
        "before": _class_json(before),
        "after": _class_json(after),
    }


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_angles(text: str, units: str) -> tuple[float, float, float]:
    """Parse three angles in units of pi or radians; each must be finite in radians."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated angles, got {text!r}")
    scale = math.pi if units == "pi" else 1.0
    vals = []
    for p in parts:
        try:
            v = float(Fraction(p)) * scale
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse angle {p!r}") from exc
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ValueError(f"angle {p!r} is not a finite number of radians")
        vals.append(v)
    return tuple(vals)


def _parse_pair(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated values for {what}, got {text!r}")
    return tuple(parts)


# the options some commands take, each added only where it is read
_OPTIONS = {
    "--target": dict(choices=("h3", "s2"), default="h3"),
    "--tol-ode": dict(type=float, default=None, help="integration tolerance, overriding Tolerances.ode"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinoid",
        description="classify, analyze and mesh constant mean curvature 1 "
        "trinoids in hyperbolic 3-space",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name: str, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--angles", required=True, help="three angles a,b,c (fractions allowed)")
        p.add_argument("--units", choices=("pi", "rad"), default="pi")
        p.add_argument("--json", default=None, help="write the JSON report to this path")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        return p

    command("classify", "moduli classification report")
    command("monodromy", "loop transport report", "--tol-ode")

    p_mesh = command("mesh", "generate and export a surface mesh", "--tol-ode")
    p_mesh.add_argument("--rings", type=int, default=8)
    p_mesh.add_argument("--sectors", type=int, default=48)
    p_mesh.add_argument("--deform", default=None, help="t1 or t1,t2,t3 family parameters")
    p_mesh.add_argument("--out", default=None)
    p_mesh.add_argument("--format", choices=("obj", "ply"), default="obj", dest="fmt")

    p_fh = command("fh", "angle surgery with before/after classification", "--target")
    p_fh.add_argument("op", choices=("hemisphere", "bigon"))
    p_fh.add_argument("--edge", default=None, help="i,j edge for hemisphere surgery")
    p_fh.add_argument("--vertex", type=int, default=None)
    p_fh.add_argument("--edge-other", type=int, default=None, dest="edge_other")
    return parser


def _config_from(ns: argparse.Namespace) -> argparse.Namespace:
    """Replace the raw --angles and --deform strings on ns by their parsed
    values, add the tolerances (TRINOID_TOL_SCALE applied, then --tol-ode)
    as ns.tol, and return ns."""
    opts = vars(ns)
    ns.angles = _parse_angles(ns.angles, ns.units)
    if opts.get("deform") is not None:
        deform = tuple(float(p) for p in ns.deform.split(","))
        if not all(map(math.isfinite, deform)):
            raise ValueError(f"--deform values must be finite, got {ns.deform!r}")
        ns.deform = deform
    ns.tol = default_tolerances()
    if opts.get("tol_ode") is not None:
        if not 0.0 < ns.tol_ode < math.inf:
            raise ValueError(f"--tol-ode must be a finite positive float, got {ns.tol_ode!r}")
        ns.tol = dataclasses.replace(ns.tol, ode=ns.tol_ode)
    return ns


def _emit(report: dict, path: str | None) -> None:
    text = _json_text(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


COMMANDS = {"classify": cmd_classify, "monodromy": cmd_monodromy, "mesh": cmd_mesh, "fh": cmd_fh}


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _emit(COMMANDS[ns.cmd](_config_from(ns)), ns.json)
    except (ValueError, OSError, TrinoidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
