"""Run one workload of the trinoid benchmark and print its metrics.

    python3 perfbench/run.py --workload mesh_big_family --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the program is imported from
./src and nothing needs building.  One process, one closed-loop client:
ops run back to back through ``trinoid.cli.main`` until the next one would
end past ``--seconds`` (at least one op always runs).  BLAS threads are
capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` runs every op twice, untraced then traced, and reports the
per-layer metrics from spans recorded around each layer's functions (see
spans.py), plus the tracing overhead as the median paired difference.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts ops that failed: a nonzero
exit code or a gate the program's own report marks as failed.  ``correct``
is false when some output is wrong: missing, malformed, disagreeing with
its own report, or not byte-identical across ops with the same input.
Latencies are taken over the ops that did not fail.  A table above the
JSON line gives each metric with its unit and sample count, and the full
record (environment stamp, every op, the sweep's class mix) goes to
perfbench/out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import spans  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9

# Fresh-process set-up: import the CLI and make the first kernel call along a
# short segment, so a compiled backend pays its compile or cache load here.
PROBE = """
import time
t0 = time.perf_counter()
import math
import numpy as np
import trinoid.cli
from trinoid.fuchsian import integrate_matrix_ode, segment
from trinoid.trinoid_data import build_trinoid_data
data = build_trinoid_data((2.0 * math.pi / 3.0,) * 3)
integrate_matrix_ode(data, segment(0.5 + 0.5j, 0.5 + 0.55j), np.eye(2))
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup_times(root: Path, n: int) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment(nproc: int) -> dict:
    """Versions, core count, BLAS cap and the transport backend that ran.

    The backend is read from the kernel object the program calls: a numba
    dispatcher, or the plain function the pure-Python fallback leaves.
    """
    import platform

    import numpy
    import scipy

    import trinoid.fuchsian

    kernel = getattr(trinoid.fuchsian, "integrate_path", None)
    if kernel is None:
        backend = "absent"
    elif hasattr(kernel, "py_func") or type(kernel).__module__.startswith("numba"):
        backend = "numba"
    elif isinstance(kernel, types.FunctionType):
        backend = "python-fallback"
    else:
        backend = f"{type(kernel).__module__}.{type(kernel).__qualname__}"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def drive(workload, seed: int, seconds: float, step) -> tuple[list, float]:
    """Closed loop: run step(argv) until the next op would end past the window."""
    inputs = workload.inputs(seed)
    ops = []
    t0 = time.perf_counter()
    while True:
        s = time.perf_counter()
        ops.extend(step(next(inputs)))
        now = time.perf_counter()
        if now - t0 + (now - s) > seconds:
            return ops, now - t0


def mark_nonidentical(ops) -> None:
    """Ops with the same argv must produce byte-identical reports and files."""
    first = {}
    for op in ops:
        if op.digest is None:
            continue
        key = tuple(op.argv)
        ref = first.setdefault(key, op.digest)
        if op.digest != ref:
            op.errors.append("report or mesh file differs from the first op with this input")


def end_to_end(ops, window: float, setup: list) -> dict:
    ok = [op for op in ops if not op.failed] or ops
    times = [op.seconds for op in ok]
    tail_value, tail_pct = bench.tail(times)
    heads = [op.headroom for op in ops if op.headroom is not None]
    n = len(times)
    rows = {
        "op_s_p50": (statistics.median(times), n, "median of ops that did not fail"),
        "op_s_tail": (tail_value, n, f"p{tail_pct:.4g}" + (" (under 21 ops: max)" if n < 21 else "")),
        "ops_per_s": (len(ops) / window, len(ops), f"over {window:.3f} s"),
        "setup_s": (statistics.median(setup), len(setup), "median of fresh processes"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "ru_maxrss",
        ),
    }
    if heads:  # absent when no op got far enough to be checked against its gates
        past = sum(1 for h in heads if h < 0.0)
        rows["gate_headroom_decades"] = (
            statistics.median(heads), len(heads),
            f"median over ops; min {min(heads):.3f}; {past} ops past a gate",
        )
        # the minimum swings by decades between seeds; the mean of the lower
        # half is steady and still drops when the worst ops lose accuracy
        low = sorted(heads)[: (len(heads) + 1) // 2]
        rows["gate_headroom_low_half_decades"] = (
            statistics.fmean(low), len(heads), f"mean of the lowest {len(low)} ops",
        )
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "trinoid" / "cli.py").is_file():
        print(f"error: no trinoid sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(nproc))
    out_dir = root / "perfbench" / "out"
    (root / bench.WORK).mkdir(parents=True, exist_ok=True)

    setup = [] if args.trace else setup_times(root, SETUP_PROBES)

    sys.path.insert(0, str(root / "src"))
    import trinoid
    import trinoid.cli
    from trinoid.config import default_tolerances
    from trinoid.moduli import classify

    if not Path(trinoid.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported trinoid from {trinoid.__file__}, not from ./src", file=sys.stderr)
        return 2
    env = environment(nproc)
    tol = default_tolerances()
    workload = bench.WORKLOADS[args.workload]
    cli_main = trinoid.cli.main
    tracer = spans.Tracer()

    def untraced(argv):
        return [bench.run_op(cli_main, argv, tol, time.perf_counter)]

    def paired(argv):
        plain = bench.run_op(cli_main, argv, tol, time.perf_counter)
        tracer.op = len(tracer_ops)
        tracer.install()
        try:
            traced = bench.run_op(tracer.wrap(spans.ROOT, cli_main), argv, tol, time.perf_counter)
        finally:
            tracer.uninstall()
        tracer_ops.append((plain, traced))
        return [plain, traced]

    tracer_ops: list = []
    ops, window = drive(workload, args.seed, args.seconds, paired if args.trace else untraced)
    mark_nonidentical(ops)

    mix = Counter()
    if workload.name == "monodromy_sweep":
        distinct = {tuple(op.argv): op for op in ops}.values()  # a traced run repeats each input
        for op in distinct:
            angles = [float(x) * math.pi for x in op.argv[op.argv.index("--angles") + 1].split(",")]
            op.status = classify(angles, target="h3", tol=tol).status.value
        mix = Counter(op.status for op in distinct)
        mix["unitarizable"] = sum(1 for op in distinct if op.report and op.report.get("unitarizable"))

    failed = sum(1 for op in ops if op.failed)
    units = bench.per_layer_units() if args.trace else bench.END_TO_END
    if args.trace:
        absent_spans = {name for m, a, name in spans.HOOKS if f"{m}.{a}" in tracer.absent}
        values = bench.layer_metrics(spans.summarize(tracer.spans), len(tracer_ops), absent_spans)
        resid = [t.report.get("max_omega_dg_residual", 0.0) for _, t in tracer_ops if t.report]
        values["surface.recover_weierstrass.omega_dg_resid_max"] = max(resid, default=0.0)
        values["trace.overhead_s"] = statistics.median(t.seconds - p.seconds for p, t in tracer_ops)
        rows = {k: (v, len(tracer_ops), "per traced op") for k, v in values.items()}
    else:
        rows = end_to_end(ops, window, setup)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "window_s": window,
        "class_mix": dict(mix),
        "absent_hooks": tracer.absent,
        "metrics": {k: {"value": v, "unit": units[k], "n": n, "note": note}
                    for k, (v, n, note) in rows.items()},
        "ops": [
            {"argv": op.argv, "rc": op.rc, "seconds": op.seconds, "failures": op.failures,
             "errors": op.errors, "headroom": op.headroom, "digest": op.digest,
             "status": op.status}
            for op in ops
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(out_dir / f"spans-{stem}.jsonl")

    print(f"workload {workload.name}  seed {args.seed}  ops {len(ops)}  failed {failed}  "
          f"backend {env['backend']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  nproc {nproc}  blas {env['blas_threads']}")
    if mix:
        print("class mix: " + ", ".join(f"{k} {v}" for k, v in sorted(mix.items())))
    for op in ops:
        for msg in op.failures:
            print(f"FAILED {' '.join(op.argv)}: {msg}")
        for msg in op.errors:
            print(f"WRONG OUTPUT {' '.join(op.argv)}: {msg}")
    if tracer.absent:
        print("absent hooks: " + ", ".join(tracer.absent))
    for name in units:
        if name in rows:
            v, n, note = rows[name]
            print(f"  {name:52s} {v:>14.6g} {units[name]:8s} n={n:<4d} {note}")
        else:
            print(f"  {name:52s} {'absent':>14s} {units[name]}")
    # printed only: it is zero while nothing fails, so it cannot carry a
    # relative bound; the JSON line carries it as "failed" and "attempted"
    print(f"  {'fail_frac':52s} {failed / len(ops):>14.6g} {'1':8s} n={len(ops):<4d} failed / attempted")
    result = {
        "correct": not any(op.errors for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _n, _note) in rows.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
