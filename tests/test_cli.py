"""Command-line reports: content, determinism, exit codes, file output."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trinoid.cli
import trinoid.fuchsian
from trinoid import errors
from trinoid.cli import main
from trinoid.config import Tolerances, default_tolerances
from trinoid.trinoid_data import build_trinoid_data, hypergeometric_params


def run_json(tmp_path, name, args):
    path = tmp_path / f"{name}.json"
    rc = main(args + ["--json", str(path)])
    assert rc == 0, f"command failed: {args}"
    return json.loads(path.read_text(encoding="ascii"))


def test_classify_symmetric(tmp_path):
    rep = run_json(tmp_path, "sym", ["classify", "--angles", "2/3,2/3,2/3"])
    assert rep["schema_version"] == 1
    assert rep["command"] == "classify"
    npt.assert_allclose(rep["angles"]["pi_multiples"], [2.0 / 3.0] * 3)
    npt.assert_allclose(rep["angles"]["radians"], [2.0 * math.pi / 3.0] * 3)
    npt.assert_allclose(rep["beta"], [-1.0 / 3.0] * 3)
    npt.assert_allclose(rep["c"], [5.0 / 18.0] * 3)
    assert rep["hanbetu"] is True
    assert rep["irreducible_quadratic"] is True
    assert rep["irreducible_reduced_sum"] is True
    assert rep["h3"] == {
        "status": "IrreducibleUnique", "dimension": 0, "labeling": None, "flags": [],
    }
    assert rep["s2"]["status"] == "IrreducibleUnique"
    assert rep["type_signature"] == ["+", "+", "+"]
    hyper = hypergeometric_params((2.0 * math.pi / 3.0,) * 3)
    npt.assert_allclose(
        [rep["hypergeometric"][k] for k in ("a", "b", "c")],
        [hyper.a, hyper.b, hyper.c],
    )


def test_classify_examples(tmp_path):
    rep = run_json(tmp_path, "c2", ["classify", "--angles", "3,3,3"])
    assert rep["h3"]["status"] == "ReducibleC2"
    assert rep["h3"]["dimension"] == 3

    rep = run_json(tmp_path, "pi", ["classify", "--angles", "1,0.5,0.5"])
    assert rep["h3"]["status"] == "ExcludedAngleIsPi"
    assert rep["type_signature"] is None
    assert "AngleIsPi" in rep["s2"]["flags"]

    rep = run_json(tmp_path, "c1", ["classify", "--angles", "2,1/2,1/2"])
    assert rep["h3"]["status"] == "ReducibleC1"
    assert rep["h3"]["labeling"] == [1, 2, 3]

    # radian input must land on the same classification
    rad = 2.0 * math.pi / 3.0
    rep = run_json(
        tmp_path, "rad",
        ["classify", "--angles", f"{rad},{rad},{rad}", "--units", "rad"],
    )
    assert rep["h3"]["status"] == "IrreducibleUnique"
    npt.assert_allclose(rep["angles"]["pi_multiples"], [2.0 / 3.0] * 3, rtol=1e-15)


def test_classify_determinism(tmp_path):
    # identical configuration must produce byte-identical reports
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc = main(["classify", "--angles", "2/3,2/3,2/3", "--json", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_monodromy_report(tmp_path):
    rep = run_json(tmp_path, "mono", ["monodromy", "--angles", "2/3,2/3,2/3"])
    assert rep["command"] == "monodromy"
    assert rep["scalar_matrix_equivalent"] is True
    assert rep["det_drift"] <= default_tolerances().det
    assert rep["det_drift_passed"] is True
    assert rep["unitarizable"] is True
    assert rep["unitarizer_kind"] == "SinglePoint"
    assert rep["unitarizer_dimension"] == 0
    assert rep["unitarizer_source"] == "ode"
    for name in ("rho1", "rho2", "rho3"):
        gen = rep["generators"][name]
        # -2 cos(2 pi / 3) = 1
        npt.assert_allclose(gen["expected_trace"], 1.0, atol=1e-12)
        assert gen["trace_defect"] < 1e-6
        m = np.array(gen["matrix"]["re"]) + 1j * np.array(gen["matrix"]["im"])
        assert abs(np.linalg.det(m) - 1.0) < 1e-8
        lam = [complex(e["re"], e["im"]) for e in gen["eigenvalues"]]
        targets = {-np.exp(2j * math.pi / 3.0), -np.exp(-2j * math.pi / 3.0)}
        for val in lam:
            assert min(abs(val - t) for t in targets) < 1e-6


def test_monodromy_half_angles(tmp_path):
    # -2 cos(pi / 2) = 0
    rep = run_json(tmp_path, "half", ["monodromy", "--angles", "1/2,1/2,1/2"])
    for name in ("rho1", "rho2", "rho3"):
        gen = rep["generators"][name]
        npt.assert_allclose(gen["expected_trace"], 0.0, atol=1e-12)
        assert abs(complex(gen["trace"]["re"], gen["trace"]["im"])) < 1e-6


def test_monodromy_c1_family_fallback(tmp_path):
    # the boundary reducible triple has Jordan loop transports, so the
    # one-parameter space is reported through the diagonal family model
    rep = run_json(tmp_path, "c1m", ["monodromy", "--angles", "2,1/2,1/2"])
    assert rep["unitarizable"] is False
    assert rep["unitarizable_detail"] == (
        "the generators share no eigenbasis: the loop transports of this "
        "ReducibleC1 triple are resonant at its integer end 1"
    )
    assert rep["unitarizer_kind"] == "GeodesicLine"
    assert rep["unitarizer_dimension"] == 1
    assert rep["unitarizer_source"] == "family"


def test_monodromy_near_boundary_triple_unitarizable(tmp_path):
    # IrreducibleUnique 0.017 inside the irreducibility boundary, loop
    # transports of norm 4e3: the class makes the space a single point, and
    # the unique invariant form of the loop transports unitarizes them
    rep = run_json(tmp_path, "near", ["monodromy", "--angles", "1.712131,0.249075,0.930997"])
    assert rep["unitarizable"] is True
    # the det drift (3.8e-9) is past its gate: the report says so, exit 0
    assert rep["det_drift"] > default_tolerances().det
    assert rep["det_drift_passed"] is False
    assert "unitarizable_detail" not in rep
    assert rep["unitarizer_kind"] == "SinglePoint"
    assert rep["unitarizer_source"] == "ode"


def test_monodromy_ode_tolerance_flag(tmp_path):
    # --tol-ode replaces Tolerances.ode: a value below the unit roundoff is
    # a numerical failure (exit 3), a looser one changes the accumulated
    # error estimate
    assert main(["monodromy", "--angles", "2/3,2/3,2/3", "--tol-ode", "1e-28"]) == 3
    default = run_json(tmp_path, "default", ["monodromy", "--angles", "2/3,2/3,2/3"])
    loose = run_json(
        tmp_path, "loose", ["monodromy", "--angles", "2/3,2/3,2/3", "--tol-ode", "1e-8"]
    )
    assert loose["err_estimate"] != default["err_estimate"]


@pytest.mark.parametrize("option, scale", [(["--tol-ode", "1e-17"], None), ([], "1e-7")])
def test_monodromy_sub_roundoff_tolerance_named(monkeypatch, capsys, option, scale):
    # an ODE tolerance below the unit roundoff, from --tol-ode or from
    # TRINOID_TOL_SCALE, is a numerical failure named as such before any
    # transport runs, not a step size underflow blamed on the path
    if scale is not None:
        monkeypatch.setenv("TRINOID_TOL_SCALE", scale)

    def no_transport(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(trinoid.fuchsian, "integrate_path", no_transport)
    assert main(["monodromy", "--angles", "2/3,2/3,2/3", *option]) == 3
    assert capsys.readouterr().err == "error: tolerance 1e-17 is below the unit roundoff\n"


def test_mesh_sub_roundoff_transport_tolerance_named(tmp_path, capsys):
    # the mesh transport runs at Tolerances.ode tightened by
    # TRANSPORT_TOL_FACTOR (1e-3), so --tol-ode 1e-14 puts it below the unit
    # roundoff: a numerical failure that names the tolerance and the
    # tightening before the first batch, not a stall blamed on a grid edge
    rc = main(["mesh", "--angles", "2/3,2/3,2/3", "--rings", "2", "--sectors", "6",
               "--tol-ode", "1e-14", "--out", str(tmp_path / "x.obj")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Tolerances.ode 1e-14" in err and "TRANSPORT_TOL_FACTOR 0.001" in err
    assert "1e-17 is below the unit roundoff" in err and "edge" not in err


def test_monodromy_stall_near_roundoff_names_tolerance(capsys):
    # a tolerance just above the unit roundoff can still stall the DOPRI
    # step controller on the planner's loops, which keep their clearance,
    # so the error names the tolerance and both possible causes
    assert main(["monodromy", "--angles", "3,3,3", "--tol-ode", "5e-16"]) == 3
    err = capsys.readouterr().err
    assert "step size underflow during transport at tolerance 5e-16" in err
    assert "unit roundoff" in err and "singular point" in err


def test_monodromy_stall_on_large_coefficients_names_them(capsys):
    # at B1 = 3e7 rad the Hopf coefficient c1 is about -4.6e13, which
    # defeats the DOPRI step control on loops that keep their clearance at
    # the default tolerance; the error names the coefficient size as well
    assert main(["monodromy", "--units", "rad", "--angles", "3e7,1,1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step size underflow during transport at tolerance 1e-10")
    assert "coefficients are too large" in err and "4.56e+13" in err


@pytest.mark.parametrize("angle", ["1e400", "1e308"])
@pytest.mark.parametrize(
    "cmd", [["classify"], ["monodromy"], ["mesh"], ["fh", "hemisphere", "--edge", "1,2"]],
    ids=["classify", "monodromy", "mesh", "fh"],
)
def test_overflowing_angle_rejected(tmp_path, monkeypatch, capsys, cmd, angle):
    # 1e400 overflows a float and 1e308 overflows once multiplied by pi;
    # they used to end in a traceback, in a misleading exit code or, for fh,
    # in a report with infinite angles.  Both now exit 2 before any
    # computation, naming the angle
    def no_computation(*args, **kwargs):
        raise AssertionError("the pipeline started")

    for name in ("classify", "conical_data", "build_trinoid_data"):
        monkeypatch.setattr(trinoid.cli, name, no_computation)
    args = [*cmd, "--angles", f"{angle},1,1"]
    if cmd[0] == "mesh":
        args += ["--out", str(tmp_path / "x.obj")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: angle '{angle}' is not a finite number of radians\n"


def test_monodromy_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc = main(["monodromy", "--angles", "2/3,2/3,2/3", "--json", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_mesh_obj_and_diagnostics(tmp_path):
    out = tmp_path / "tri.obj"
    rep = run_json(
        tmp_path, "mesh",
        ["mesh", "--angles", "2/3,2/3,2/3", "--rings", "4", "--sectors", "12",
         "--out", str(out)],
    )
    assert rep["files"] == [str(out)]
    assert rep["grid"] == {"rings": 4, "sectors": 12}
    assert rep["deformation"] == []
    assert rep["unitarizer_kind"] == "SinglePoint"
    assert rep["max_det_defect"] < 1e-9
    assert rep["max_omega_dg_residual"] < 1e-6
    wd = rep["well_definedness"]
    assert sorted(wd) == ["max_defect", "passed", "worst_vertex"]
    assert wd["passed"] is True
    assert wd["max_defect"] < 1e-6
    assert 0 <= wd["worst_vertex"] < 3 * 4 * 12
    assert "seed" not in rep
    lines = out.read_text(encoding="ascii").splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    assert nv == rep["n_vertices"]
    assert nf == rep["n_faces"]


def test_mesh_ply_deformed(tmp_path):
    out = tmp_path / "tri.ply"
    rep = run_json(
        tmp_path, "ply",
        ["mesh", "--angles", "3,3,3", "--rings", "3", "--sectors", "8",
         "--deform", "0.3,0.1,-0.2", "--format", "ply", "--out", str(out)],
    )
    assert rep["deformation"] == [0.3, 0.1, -0.2]
    assert rep["unitarizer_kind"] == "AllOfH3"
    assert rep["well_definedness"]["passed"] is True
    blob = out.read_bytes()
    assert blob.startswith(b"ply\nformat binary_little_endian 1.0\n")


def test_mesh_exit_codes(tmp_path):
    # empty moduli
    assert main(["mesh", "--angles", "2,1/3,1/3"]) == 4
    # excluded angle
    assert main(["mesh", "--angles", "1,0.5,0.5"]) == 4
    # boundary reducible triple: classification is nonempty but the loop
    # transports cannot be unitarized, a numerical-structure failure
    assert main(["mesh", "--angles", "2,1/2,1/2", "--rings", "3",
                 "--sectors", "8"]) == 3
    # deformation count must match the moduli dimension
    assert main(["mesh", "--angles", "2/3,2/3,2/3", "--deform", "0.3",
                 "--out", str(tmp_path / "x.obj")]) == 2
    # the spherical target has no mesh
    assert main(["mesh", "--angles", "2/3,2/3,2/3", "--target", "s2",
                 "--out", str(tmp_path / "y.obj")]) == 2
    # the loops and the grid share one fixed base point, which no command
    # takes as an option
    assert main(["mesh", "--angles", "2/3,2/3,2/3", "--base-point", "2,2",
                 "--out", str(tmp_path / "z.obj")]) == 2


@pytest.mark.parametrize("angles", ["3,5,5", "1/4,1/4,5"])
def test_mesh_ball_escape_is_numerical(tmp_path, capsys, angles):
    # valid triples whose coarse mesh leaves the unit ball down an end: a
    # numerical limit (exit 3) that names where, not an input error
    rc = main(["mesh", "--angles", angles, "--rings", "2", "--sectors", "6",
               "--out", str(tmp_path / "m.obj")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "escaped the unit ball" in err and "ring 2 of 2" in err


@pytest.mark.parametrize("angles", ["0.6,1.5,1.7", "0.3,1.407124728,1.7"])
def test_mesh_pole_on_puncture_is_numerical(tmp_path, capsys, angles):
    # valid unitarizable irreducible triples (monodromy exits 0 with a
    # SinglePoint unitarizer) whose Gauss-map pole sits on the puncture at
    # 0, leaving end 1 no annulus: a numerical limit (exit 3), not the
    # input error (exit 2) it used to be reported as
    rc = main(["mesh", "--angles", angles, "--rings", "4", "--sectors", "12",
               "--out", str(tmp_path / "m.obj")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "end 1: the Gauss-map pole sits at distance" in err
    assert main(["monodromy", "--angles", angles, "--json", str(tmp_path / "m.json")]) == 0


def test_fh_reports(tmp_path):
    rep = run_json(
        tmp_path, "hemi",
        ["fh", "hemisphere", "--angles", "3,3,3", "--edge", "1,2"],
    )
    assert rep["operation"] == "hemisphere"
    assert rep["angles_after"]["pi_multiples"] == [4, 4, 3]
    assert rep["before"]["status"] == "ReducibleC2"
    assert rep["after"]["status"] == "ReducibleC2"

    rep = run_json(
        tmp_path, "bigon",
        ["fh", "bigon", "--angles", "3,1/2,1/2", "--vertex", "2",
         "--edge-other", "1"],
    )
    assert rep["angles_after"]["pi_multiples"] == [4, 0.5, 0.5]
    assert rep["before"]["status"] == "ReducibleC1"
    assert rep["after"]["status"] == "ReducibleC1"


def test_fh_exit_codes():
    # bigon surgery needs an acute vertex angle
    assert main(["fh", "bigon", "--angles", "3,3,3", "--vertex", "1",
                 "--edge-other", "2"]) == 2
    # malformed edge
    assert main(["fh", "hemisphere", "--angles", "3,3,3", "--edge", "1,1"]) == 2
    assert main(["fh", "hemisphere", "--angles", "3,3,3"]) == 2


def test_input_error_exit_codes():
    assert main(["classify", "--angles", "x,y,z"]) == 2
    assert main(["classify", "--angles", "1,2"]) == 2
    assert main(["classify", "--angles", "-1,1,1"]) == 2
    assert main(["classify", "--angles", "1/0,1,1"]) == 2
    # unknown flags are an argparse error, also code 2
    assert main(["classify", "--angles", "1,1,1", "--bogus"]) == 2
    # so are the flags that only echoed into the report: classify reports
    # both targets, and neither classify nor monodromy draws a random number
    assert main(["classify", "--angles", "2/3,2/3,2/3", "--seed", "7"]) == 2
    assert main(["classify", "--angles", "2/3,2/3,2/3", "--target", "s2"]) == 2
    assert main(["monodromy", "--angles", "2/3,2/3,2/3", "--seed", "1"]) == 2
    # mesh checks well-definedness at every annulus vertex, so no seed
    # picks its vertices
    assert main(["mesh", "--angles", "2/3,2/3,2/3", "--seed", "1"]) == 2
    # the loops are based at fuchsian.BASE_POINT, which no option moves
    assert main(["monodromy", "--angles", "2/3,2/3,2/3", "--base-point", "0.5,0.5"]) == 2
    assert main([]) == 2


# every TrinoidError type the package defines, with the exit code of main
ERROR_EXIT_CODES = {
    "TrinoidError": 2,
    "ExcludedAngleIsPi": 2,
    "DegenerateHanbetu": 2,
    "ZeroCoefficient": 2,
    "BadEdge": 2,
    "BigonRequiresAcute": 2,
    "EmptyIntersection": 2,
    "NumericalFailure": 3,
    "NonSL2Input": 3,
    "SingularPathPoint": 3,
    "StepUnderflow": 3,
    "NotUnitarizable": 3,
    "ResonantReducible": 3,
    "NotPositiveDefinite": 3,
    "NullStructureViolation": 3,
    "BallEscape": 3,
}


def test_every_error_type_has_its_exit_code(monkeypatch, capsys):
    # a new error type must come with its exit code in the table above
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.TrinoidError)
    }
    assert defined == set(ERROR_EXIT_CODES)
    for name, code in ERROR_EXIT_CODES.items():
        def fail(*args, **kwargs):
            raise getattr(errors, name)(f"{name} raised")

        monkeypatch.setattr(trinoid.cli, "build_trinoid_data", fail)
        assert main(["monodromy", "--angles", "2/3,2/3,2/3"]) == code, name
        assert capsys.readouterr().err == f"error: {name} raised\n"


@pytest.mark.parametrize("value", ["inf", "nan", "0", "abc"])
def test_tol_scale_rejects_invalid(monkeypatch, value):
    # an infinite scale would turn every gate off (classify then reports
    # the wrong status and exits 0), so it is an input error like nan,
    # zero or a non-number
    monkeypatch.setenv("TRINOID_TOL_SCALE", value)
    with pytest.raises(ValueError, match="finite positive float"):
        default_tolerances()
    assert main(["classify", "--angles", "2/3,2/3,2/3"]) == 2
    assert main(["monodromy", "--angles", "2/3,2/3,2/3"]) == 2


@pytest.mark.parametrize("scale", ["5e8", "1e12", "1e300"])
def test_tol_scale_that_reads_every_angle_as_integer_rejected(tmp_path, monkeypatch, capsys, scale):
    # from a scale of 0.5 / Tolerances.integer on, every B/pi lies within
    # the integer tolerance of an integer: SYM23 was classified ReducibleC2
    # and meshed as AllOfH3 at 5e8, and read as DegenerateHanbetu or as an
    # angle equal to pi beyond, all with exit 0
    monkeypatch.setenv("TRINOID_TOL_SCALE", scale)
    integer = Tolerances().integer
    message = (f"error: TRINOID_TOL_SCALE {float(scale):g} scales Tolerances.integer to "
               f"{integer * float(scale):g}, at which every B/pi reads as an integer; "
               f"it must stay below {0.5 / integer:g}\n")
    for args in (["classify"], ["monodromy"],
                 ["mesh", "--rings", "2", "--sectors", "6", "--out", str(tmp_path / "m.obj")]):
        assert main([args[0], "--angles", "2/3,2/3,2/3", *args[1:]]) == 2, args
        assert capsys.readouterr().err == message


def test_tol_scale_below_the_integer_bound_classifies(tmp_path, monkeypatch):
    # at 1e8 the integer tolerance is 0.1, and SYM23's B/pi = 2/3 still
    # reads as non-integer
    monkeypatch.setenv("TRINOID_TOL_SCALE", "1e8")
    rep = run_json(tmp_path, "c", ["classify", "--angles", "2/3,2/3,2/3"])
    assert rep["h3"]["status"] == "IrreducibleUnique"


@pytest.mark.parametrize("deform", ["1500", "-1500", "1e300"])
def test_deformation_overflowing_the_line_conjugator_is_input_error(tmp_path, capsys, deform):
    # diag(e^(t/2), e^(-t/2)) overflows a float past |t| = 1419.6: the
    # geodesic-line parameter is refused as input (exit 2), by its value
    rc = main(["mesh", "--angles", "1/4,1/4,3", f"--deform={deform}", "--rings", "2", "--sectors", "6",
               "--out", str(tmp_path / "m.obj")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: deformation {float(deform)!r} is out of range: the "
                                       "geodesic-line conjugator diag(e^(t/2), e^(-t/2)) overflows a float\n")


def test_large_finite_deformation_escapes_without_warnings(tmp_path, capsys):
    # at t = 800 the conjugator is finite, but squaring the frames overflows:
    # a ball escape (exit 3) whose error line is all that reaches stderr
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main(["mesh", "--angles", "1/4,1/4,3", "--deform=800", "--rings", "2", "--sectors", "6",
                   "--out", str(tmp_path / "m.obj")])
    assert rc == 3
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith("error: a mesh position is not finite or escaped the unit ball")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["monodromy", "mesh"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
def test_tol_ode_rejects_invalid(tmp_path, monkeypatch, cmd, value):
    # like a bad TRINOID_TOL_SCALE, a bad --tol-ode is an input error that
    # exits 2 before any transport runs; nan and -1 used to hang the step
    # controller, inf and 0 to fail numerically with exit 3
    def no_transport(*args, **kwargs):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(trinoid.cli, "build_trinoid_data", no_transport)
    args = [cmd, "--angles", "2/3,2/3,2/3", "--tol-ode", value]
    if cmd == "mesh":
        args += ["--out", str(tmp_path / "x.obj")]
    assert main(args) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["mesh", "--angles", "3,3,3", "--deform", "nan,0,0"], "--deform values must be finite"),
        (["mesh", "--angles", "3,3,3", "--deform", "0,-inf,0"], "--deform values must be finite"),
    ],
)
def test_non_finite_inputs_rejected(tmp_path, monkeypatch, capsys, args, message):
    # a non-finite deformation used to mesh 42 nan vertices with exit 0; it
    # now exits 2 before any transport runs
    def no_transport(*args, **kwargs):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(trinoid.cli, "build_trinoid_data", no_transport)
    if args[0] == "mesh":
        args = args + ["--rings", "2", "--sectors", "6", "--out", str(tmp_path / "x.obj")]
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("angle", ["6e7", "1e16", "1e17", "1e300"])
@pytest.mark.parametrize("cmd", ["classify", "monodromy", "mesh", "fh"])
def test_angle_without_fractional_bits_rejected(tmp_path, capsys, cmd, angle):
    # the integer tests of the classification read |B/pi - round(B/pi)|
    # against Tolerances.integer (1e-9), and from B/pi = 2**24 (5.27e7 rad)
    # on, half the spacing of doubles at B/pi, the rounding of the quotient,
    # is larger: every command refuses such an angle, naming it and the
    # bound, before it computes.  Up to 2**52 the bound was the one on
    # fractional bits, and classify exited 0 on 1e16 with ReducibleC1, as
    # 1e16/pi rounds to the odd integer 3183098861837907; classify used to
    # exit 0 on 1e300 (Empty) too, and monodromy at 1e300 exited 2 with
    # "cannot convert float NaN to integer", from a Gauss-map pole that was
    # NaN
    args = [cmd, "--units", "rad", "--angles", f"{angle},1,1"]
    if cmd == "mesh":
        args += ["--rings", "2", "--sectors", "6", "--out", str(tmp_path / "x.obj")]
    if cmd == "fh":
        args += ["hemisphere", "--edge", "1,2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == (f"error: half-angle 1 is {float(angle)!r} radians; B/pi must be below 2**24, "
                   "past which it is not resolved to the integer tolerance 1e-09\n")


def test_angle_bound_scales_with_the_integer_tolerance(monkeypatch, capsys):
    # the bound is the power of two from which half the spacing of doubles
    # passes Tolerances.integer, so TRINOID_TOL_SCALE moves it: the largest
    # double below 2**24 pi is admitted, and at scale 10 (integer tolerance
    # 1e-8) the bound is 2**27, which admits 6e7 rad
    below = math.nextafter(2.0**24 * math.pi, 0.0)
    assert main(["classify", "--units", "rad", "--angles", f"{below!r},1,1"]) == 0
    assert main(["classify", "--units", "rad", "--angles", "6e7,1,1"]) == 2
    monkeypatch.setenv("TRINOID_TOL_SCALE", "10")
    capsys.readouterr()
    assert main(["classify", "--units", "rad", "--angles", "6e7,1,1"]) == 0
    assert main(["classify", "--units", "rad", "--angles", "5e8,1,1"]) == 2
    assert "B/pi must be below 2**27, past which it is not resolved to the integer tolerance 1e-08" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("option", ["--out", "--json"])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, option):
    # a mesh file or report in a directory that does not exist is an input
    # error named on stderr, not a traceback after the whole build
    missing = tmp_path / "no" / "such"
    paths = {"--out": str(tmp_path / "m.ply"), option: str(missing / "x")}
    args = ["mesh", "--angles", "2/3,2/3,2/3", "--rings", "2", "--sectors", "6", "--format", "ply"]
    assert main(args + [x for item in paths.items() for x in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing / "x") in err
    assert main(["classify", "--angles", "2/3,2/3,2/3", "--json", str(missing / "c.json")]) == 2


def test_large_close_coefficients_keep_distinct_umbilics(tmp_path, capsys):
    # c1 = c2 = -1.28e14 and c3 = -5e-9: the umbilic discriminant is
    # c3 (c3 - 4 c1) / 2 = -1.28e6, which the expanded form cancelled to 0,
    # so classify reported DegenerateHanbetu and monodromy and mesh exited
    # 2 and 4 on a triple whose umbilics are distinct
    angles = "16000000.3,16000000.3,1.000000005"
    rep = run_json(tmp_path, "close", ["classify", "--angles", angles])
    assert rep["hanbetu"] is True
    assert rep["h3"]["status"] != "DegenerateHanbetu"
    assert main(["monodromy", "--angles", angles]) not in (2, 4)
    assert main(["mesh", "--angles", angles, "--rings", "2", "--sectors", "6",
                 "--out", str(tmp_path / "close.obj")]) not in (2, 4)
    err = capsys.readouterr().err
    assert "umbilic" not in err and "DegenerateHanbetu" not in err


def test_non_finite_transport_is_numerical(tmp_path, monkeypatch, capsys):
    # at B1 = 1e14 rad, c1 = -5.07e26 and the Dormand-Prince stages
    # overflow to NaN, which the error norm passes over: the loops used to
    # return an all-NaN monodromy with det drift 0, and mesh exited 2 with
    # "SVD did not converge", a numerical failure reported as bad input.
    # The command line now refuses that angle (B/pi is past 2**24), so the
    # Hopf data are built at an integer tolerance of 1, which admits it, and
    # mesh meets a transport that is not finite through a kernel that
    # returns NaN
    tol = dataclasses.replace(Tolerances(), integer=1.0)
    with np.errstate(all="ignore"), pytest.raises(errors.StepUnderflow, match="the transport is not finite"):
        trinoid.fuchsian.monodromy(build_trinoid_data((1e14, 1.0, 1.0), tol))

    def overflowed(path, mode, params, u0, rtol):
        return 0, np.full(4, complex("nan+nanj")), 0.0, 0.0, 1

    monkeypatch.setattr(trinoid.fuchsian, "integrate_path", overflowed)
    rc = main(["mesh", "--angles", "2/3,2/3,2/3", "--rings", "2", "--sectors", "6",
               "--out", str(tmp_path / "x.obj")])
    assert rc == 3
    assert "error: the transport is not finite" in capsys.readouterr().err


MESH_4X12 = {
    "sym23": ["--angles", "2/3,2/3,2/3"],
    "big": ["--angles", "3,3,3", "--deform", "0.3,0.1,-0.2", "--format", "ply"],
}


@pytest.mark.parametrize("triple", sorted(MESH_4X12))
def test_mesh_passes_at_tenth_tolerance_scale(tmp_path, monkeypatch, triple):
    # a tenfold tighter TRINOID_TOL_SCALE tightens the transport to 1e-14
    # per unit length together with every gate; the mesh still passes them
    monkeypatch.setenv("TRINOID_TOL_SCALE", "0.1")
    tol = default_tolerances()
    rep = run_json(
        tmp_path, triple,
        ["mesh", *MESH_4X12[triple], "--rings", "4", "--sectors", "12",
         "--out", str(tmp_path / f"{triple}.mesh")],
    )
    assert rep["max_det_defect"] < tol.det
    assert rep["well_definedness"]["passed"] is True


@pytest.mark.parametrize("triple", sorted(MESH_4X12))
def test_mesh_fails_fast_below_unit_roundoff(tmp_path, monkeypatch, triple):
    # at scale 1e-3 the transport tolerance is 1e-16, below the unit
    # roundoff: a numerical failure at the first grid edge, not a search
    # for ever smaller steps (the adaptive integrator ran for over 600 s at
    # scale 1e-2)
    monkeypatch.setenv("TRINOID_TOL_SCALE", "0.001")
    args = ["mesh", *MESH_4X12[triple], "--rings", "4", "--sectors", "12",
            "--out", str(tmp_path / f"{triple}.mesh")]
    assert main(args) == 3


@pytest.mark.parametrize("angles", [
    "1.413393,0.790404,1.622530", "2.539933,0.686478,0.703347", "1.712131,0.249075,0.930997",
    "1.284679,1.271927,1.471319", "1.550271,1.542644,1.860059", "2.188193,2.158368,2.870558",
])
def test_mesh_former_failures_exit_zero(tmp_path, angles):
    # triples of the mesh fuzz and the monodromy sweep that used to exit 3:
    # the first one's base-to-anchor segment of end 2 grazed the puncture at
    # 1, so end 2's rings now turn by a sector; the second one's null shape
    # read 7.2e-7 (gate 1e-7) from the rounding of its large frames, entries
    # up to 1.7e7, before the recovery moved into the stencils' local
    # frames, where they do not enter (null defects 1.7e-10 and 2.2e-12 now,
    # omega dg residuals 3.1e-9 and 5.4e-9); the third one's loop transports
    # of norm 4e3 made a numerical null-space count call its irreducible
    # representation reducible ("generators share no eigenbasis"), before
    # the moduli class picked the unitarizer space.  The last three exited
    # 0 with a multivalued mesh (well-definedness defects 0.60 / 1.21 /
    # 1.53): an umbilic lies 0.045 / 0.062 / 0.017 from the base point, and
    # while the loop planner kept clear of the umbilics it moved the loops'
    # base away from the point the grid is rooted at
    rep = run_json(tmp_path, "mesh", ["mesh", "--angles", angles, "--rings", "4", "--sectors", "12",
                                     "--out", str(tmp_path / "m.obj")])
    assert rep["well_definedness"]["passed"] is True
    assert rep["max_omega_dg_residual"] < 1e-6


_OFF_INTEGER = st.floats(0.1, 2.9).filter(lambda b: abs(b - round(b)) > 0.05)


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(_OFF_INTEGER, _OFF_INTEGER, _OFF_INTEGER))
def test_mesh_fuzz_exit_codes(tmp_path, triple):
    # any half-angle triple away from the integers ends in a documented
    # exit code: a mesh, an input error, a numerical failure or an empty
    # moduli space, never an uncaught exception
    angles = ",".join(f"{b:.6f}" for b in triple)
    rc = main(["mesh", "--angles", angles, "--rings", "2", "--sectors", "6",
               "--out", str(tmp_path / "fuzz.obj"), "--json", str(tmp_path / "fuzz.json")])
    assert rc in (0, 2, 3, 4)


def test_tol_scale_scales_ode_but_not_geometry(monkeypatch):
    # the scale loosens the integration tolerance ode together with the
    # gates; the path geometry stays fixed (the clearance, the loop radius
    # and the transport tightening factor are unscaled module constants)
    monkeypatch.setenv("TRINOID_TOL_SCALE", "10")
    scaled = default_tolerances()
    base = Tolerances()
    for f in dataclasses.fields(Tolerances):
        assert getattr(scaled, f.name) == getattr(base, f.name) * 10.0, f.name


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(_OFF_INTEGER, _OFF_INTEGER, _OFF_INTEGER))
def test_monodromy_fuzz_exit_codes(tmp_path, triple):
    # the loop monodromies of any half-angle triple away from the integers
    # end in a documented exit code, never an uncaught exception
    angles = ",".join(f"{b:.6f}" for b in triple)
    rc = main(["monodromy", "--angles", angles, "--json", str(tmp_path / "fuzz.json")])
    assert rc in (0, 2, 3, 4)


@pytest.mark.parametrize("cmd", [
    ["classify", "--angles", "2/3,2/3,2/3"],
    ["monodromy", "--angles", "2/3,2/3,2/3"],
    # a trivial monodromy: its intertwiner search draws random combinations
    ["monodromy", "--angles", "3,3,3"],
    ["fh", "hemisphere", "--angles", "2/3,2/3,2/3", "--edge", "1,2"],
    ["mesh", "--angles", "2/3,2/3,2/3", "--rings", "2", "--sectors", "6", "--out", "m.obj"],
], ids=["classify", "monodromy", "monodromy-trivial", "fh", "mesh"])
def test_heavy_imports_loaded_only_where_used(tmp_path, cmd):
    # scipy.spatial (the Delaunay triangulation of the sample grid) is the
    # largest import of the program, and numpy.random costs about 6 MB; no
    # command imports numpy.random itself, so only mesh has it, through
    # scipy.spatial, and commands that build no grid pay for neither.  A
    # fresh interpreter, since this one has loaded both already
    src = Path(trinoid.cli.__file__).resolve().parents[1]
    code = ("import sys; from trinoid.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'scipy.spatial' in sys.modules, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, *cmd, "--json", "report.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    grid = str(cmd[0] == "mesh")
    assert proc.stdout.split()[-3:] == ["0", grid, grid], proc.stderr
