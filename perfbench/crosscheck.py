"""Counter cross-check: kernel calls and accepted steps of traced mesh ops.

    python3 perfbench/crosscheck.py    # 4x12 SYM23 and BIG, then 8x48 SYM23

It then runs ``monodromy`` on the triples in KNOWN_FAILURES, which the
timed sweep leaves out, and prints whether each still fails its gates.
That part is a report: it does not change the exit code.

Run from the root of a source checkout.  The counts are deterministic for
the adaptive transport kernel, so they must match the recorded values
exactly.  A mismatch is printed and makes the exit code 1; the expected
values are never adjusted to fit.

Kernel calls are split by the span that owns them (monodromy: the two
loops; transport_frame: the grid tree; recover_weierstrass: the recovery
micro-stencils) and by chart: "z" for the z and w = 1/z charts, "log" for
the gauge-fixed log chart around a puncture.  The 4x12 chart counts take
in the monodromy loops; the 8x48 stage counts are the transport_frame
stage alone, as in the roadmap's baseline.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

LOG_CHART_MODE = 4

CASES = {
    "sym23_4x12": ["mesh", "--angles", "2/3,2/3,2/3", "--rings", "4", "--sectors", "12"],
    "big_4x12": [
        "mesh", "--angles", "3,3,3", "--deform", "0.3,0.1,-0.2", "--format", "ply",
        "--rings", "4", "--sectors", "12",
    ],
    "sym23_8x48": ["mesh", "--angles", "2/3,2/3,2/3", "--rings", "8", "--sectors", "48"],
}

_GRID_4X12_CALLS = {
    "calls.total": 1631,
    "calls.z": 47,
    "calls.transport_frame.log": 144,
    "calls.recover_weierstrass": 1440,
}
EXPECTED = {
    "sym23_4x12": {**_GRID_4X12_CALLS, "steps.log": 116827, "steps.z": 7590},
    "big_4x12": {**_GRID_4X12_CALLS, "steps.log": 256699, "steps.z": 21495},
    "sym23_8x48": {
        "calls.transport_frame": 2092,
        "steps.transport_frame": 357800,
        "calls.recover_weierstrass": 11520,
        "steps.recover_weierstrass": 251502,
    },
}

# Triples with an angle above 2 on which scalar and matrix monodromy disagree
# past Tolerances.projective; the sweep in bench.py stops below 2 for this.
KNOWN_FAILURES = ("0.563408,2.878878,0.933286", "2.772669,0.134819,0.940303",
                  "2.835283,0.688754,1.054086")


def kernel_counts(recs: list[dict]) -> Counter:
    """Calls and steps per chart and per owner over one traced op."""
    c = Counter()
    for i, rec in enumerate(recs):
        if rec["name"] != spans.KERNEL:
            continue
        chart = "log" if rec["mode"] == LOG_CHART_MODE else "z"
        role = (spans.kernel_owner(recs, i) or "other").split(".")[-1]
        for key in ("calls.total", f"calls.{chart}", f"calls.{role}", f"calls.{role}.{chart}"):
            c[key] += 1
        for key in ("steps.total", f"steps.{chart}", f"steps.{role}", f"steps.{role}.{chart}"):
            c[key] += rec["steps"]
    return c


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "trinoid" / "cli.py").is_file():
        print(f"error: no trinoid sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import trinoid.cli

    work = root / "perfbench" / "out" / "work"
    work.mkdir(parents=True, exist_ok=True)
    mismatches = 0
    for name, argv in CASES.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            rc = tracer.wrap(spans.ROOT, trinoid.cli.main)(
                argv + ["--out", str(work / f"crosscheck.{name}"), "--json", str(work / "crosscheck.json")]
            )
        finally:
            tracer.uninstall()
        if rc != 0 or tracer.absent:
            print(f"{name}: exit code {rc}, absent hooks {tracer.absent}")
            mismatches += 1
            continue
        got = kernel_counts(tracer.spans)
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in sorted(got.items())))
        for key, want in EXPECTED[name].items():
            verdict = "ok" if got[key] == want else "MISMATCH"
            mismatches += verdict != "ok"
            print(f"  {key:26s} expected {want:>8d}  measured {got[key]:>8d}  {verdict}")
    print("counter cross-check: " + ("all counts match" if not mismatches else f"{mismatches} mismatches"))

    from trinoid.config import default_tolerances

    tol = default_tolerances()
    for angles in KNOWN_FAILURES:
        out = work / "crosscheck.monodromy.json"
        rc = trinoid.cli.main(["monodromy", "--angles", angles, "--json", str(out)])
        fails = [f"exit code {rc}"] if rc != 0 else []
        if rc == 0:
            rep = json.loads(out.read_text())
            if not rep["scalar_matrix_equivalent"]:
                fails.append("scalar and matrix monodromy not projectively equivalent")
            if not rep["det_drift"] < tol.det:
                fails.append(f"det drift {rep['det_drift']:.2g}")
        print(f"known failure {angles}: " + ("; ".join(fails) if fails else "now passes"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
