"""The benchmark driver perfbench/run.py runs against the program's current API.

run.py imports trinoid.cli.main, trinoid.config.default_tolerances and
trinoid.moduli.classify, its set-up probe calls
trinoid.fuchsian.integrate_matrix_ode, and its tracer hooks stages by name.
A rename or removal of any of these ends a run in a traceback, with no
result line.  This runs each workload for one second, the way the
benchmark does, untraced and traced, and checks its last line.

The traced run (--trace 1) reads more of the program than the untraced
one, and a hook that no longer matches drops its metrics without failing
the run:
  - each (module, attribute) in perfbench/spans.HOOKS, looked up at call
    time;
  - out[4] (accepted steps) and int(args[1]) (mode) of
    integrate_path(rows, mode, params, u0, rtol);
  - .det_drift and .err_estimate of the monodromy result;
  - .edges of the sample grid;
  - stats["max_det_defect"] of the frame transport;
  - .null_defect[.numeric] of the Weierstrass data;
  - the export path as positional argument 1 of export_obj / export_ply;
  - a finite max_omega_dg_residual in the mesh report.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import trinoid.cli

CHECKOUT = Path(__file__).resolve().parents[1]
RUN = CHECKOUT / "perfbench" / "run.py"
DECLARED = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize(
    "workload, trace",
    [
        pytest.param(w, t, id=w + ("-traced" if t else ""))
        for t in (0, 1)
        for w in ("mesh_big_family", "monodromy_sweep")
    ],
)
def test_benchmark_run_reports_a_result(tmp_path, workload, trace):
    # run.py imports the program from ./src and writes only under its
    # working directory, so it runs in a scratch root whose src is the
    # checkout's
    src = Path(trinoid.cli.__file__).resolve().parents[1]
    (tmp_path / "src").symlink_to(src, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("absent hooks:")]
    # strict JSON: NaN and Infinity are not JSON, though json.dumps writes them
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    for name in (m["name"] for m in declared):
        assert name in result["metrics"], name
        assert math.isfinite(result["metrics"][name]["value"]), name
