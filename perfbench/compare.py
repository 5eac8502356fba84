"""Spread and comparison of end-to-end results written by run.py.

    python3 perfbench/compare.py RESULTS_DIR              # spread of one run set
    python3 perfbench/compare.py BASE_DIR CHANGED_DIR     # a change against its parent

Each directory holds the ``<workload>-seed<n>-trace0.json`` records of one
run set.  For every workload and end-to-end metric of BENCHMARK.json (read
from the current directory) this prints the median, the quartiles and the
spread (Q3 - Q1) / median, and with two directories the change of the
median, signed so that positive is worse.  A spread or a worsening beyond
the metric's bound makes the exit code 1.

Records made with different transport backends are refused (exit code 2):
the pure-Python fallback is about a hundred times slower than a compiled
kernel, so such a comparison says nothing about the change.  Within each
directory, mesh ops with the same input must also have produced
byte-identical reports and mesh files.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> list[dict]:
    recs = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]
    if not recs:
        raise SystemExit(f"error: no *-trace0.json records in {directory}")
    return recs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sets = [load(Path(d)) for d in argv]

    backends = {r["env"]["backend"] for recs in sets for r in recs}
    if len(backends) > 1:
        print(f"refused: records come from different transport backends {sorted(backends)}")
        return 2
    bad = 0
    for d, recs in zip(argv, sets):
        # within one set only: a change may move the numerics by an ulp
        digests: dict = {}
        for r in recs:
            for op in r["ops"]:
                if op["argv"][0] == "mesh" and op["digest"]:
                    digests.setdefault(tuple(op["argv"]), set()).add(op["digest"])
        if any(len(v) > 1 for v in digests.values()):
            print(f"{d}: mesh reports or files differ between ops with the same input")
            bad = 1

    print(f"backend {backends.pop()}; runs per set {[len(s) for s in sets]}")
    for w in spec["workloads"]:
        print(w["name"])
        for m in spec["end_to_end"]:
            meds = []
            cells = []
            for recs in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in recs
                        if r["workload"] == w["name"] and m["name"] in r["metrics"]]
                if not vals:
                    cells.append("no runs")
                    meds.append(None)
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(q2)
                flag = ""
                if spread > m["bound"]:
                    flag = " SPREAD>BOUND"
                    bad = 1
                cells.append(f"n={len(vals)} med {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}{flag}")
                meds.append(q2)
            line = f"  {m['name']:30s} bound {m['bound']:.2f}  " + " | ".join(cells)
            if len(sets) == 2 and None not in meds:
                worse = (meds[1] - meds[0]) / abs(meds[0])
                if m["better"] == "higher":
                    worse = -worse
                line += f" | worse by {worse:+.3f}"
                if worse > m["bound"]:
                    line += " REGRESSION"
                    bad = 1
            print(line)
    return bad


if __name__ == "__main__":
    sys.exit(main())
