"""The benchmark driver perfbench/run.py runs against the program's current API.

run.py imports trinoid.cli.main, trinoid.config.default_tolerances and
trinoid.moduli.classify, its set-up probe calls
trinoid.fuchsian.integrate_matrix_ode, and its tracer hooks stages by name.
A rename or removal of any of these ends a run in a traceback, with no
result line.  This runs each workload for one second, the way the
benchmark does, and checks its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import trinoid.cli

CHECKOUT = Path(__file__).resolve().parents[1]
RUN = CHECKOUT / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["mesh_big_family", "monodromy_sweep"])
def test_benchmark_run_reports_a_result(tmp_path, workload):
    # run.py imports the program from ./src and writes only under its
    # working directory, so it runs in a scratch root whose src is the
    # checkout's
    src = Path(trinoid.cli.__file__).resolve().parents[1]
    (tmp_path / "src").symlink_to(src, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
