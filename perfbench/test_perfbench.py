"""Tests of the benchmark's own machinery: checks, statistics, tracing, spec.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root.  None of them times anything or runs a mesh op.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from trinoid.cli import main as cli_main  # noqa: E402
from trinoid.config import default_tolerances  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class _Fixed:
    """A workload that repeats one argv."""

    def __init__(self, argv):
        self.argv = argv

    def inputs(self, seed):
        while True:
            yield list(self.argv)


def test_negative_control_is_counted_as_failed(tmp_path):
    # an angle equal to pi has no surface: mesh exits 4, and the op must
    # stay in the attempted set as a failure rather than be dropped
    argv = ["mesh", "--angles", "1,1/2,1/3", "--out", str(tmp_path / "m.obj"),
            "--json", str(tmp_path / "r.json")]
    tol = default_tolerances()
    ops, window = run.drive(
        _Fixed(argv), 0, 1e-9, lambda a: [bench.run_op(cli_main, a, tol, time.perf_counter)]
    )
    assert len(ops) == 1 and window > 0.0
    assert ops[0].rc == 4
    assert ops[0].failures == ["exit code 4"]
    rows = run.end_to_end(ops, window, [0.5])
    assert "gate_headroom_decades" not in rows
    assert "gate_headroom_low_half_decades" not in rows
    assert rows["op_s_p50"][1] == 1


def test_monodromy_op_passes_checks(tmp_path):
    argv = ["monodromy", "--angles", "2/3,2/3,2/3", "--json", str(tmp_path / "r.json")]
    op = bench.run_op(cli_main, argv, default_tolerances(), time.perf_counter)
    assert op.rc == 0 and not op.failures
    assert op.headroom > 3.0


def test_mesh_count_mismatch_fails(tmp_path):
    obj = tmp_path / "m.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    report = {
        "well_definedness": {"passed": True, "max_defect": 1e-12},
        "max_det_defect": 1e-15, "n_vertices": 4, "n_faces": 1,
    }
    argv = ["mesh", "--out", str(obj)]
    failures, errors, headroom = bench.check_mesh(argv, report, default_tolerances())
    assert not failures and len(errors) == 1 and "3 vertices" in errors[0]
    assert headroom == pytest.approx(6.0)
    report["n_vertices"] = 3
    report["max_det_defect"] = 2e-9
    failures, errors, _ = bench.check_mesh(argv, report, default_tolerances())
    assert not errors and len(failures) == 1 and "max_det_defect" in failures[0]


def test_mark_nonidentical():
    a = bench.OpResult(argv=["mesh"], rc=0, seconds=1.0, digest="x")
    b = bench.OpResult(argv=["mesh"], rc=0, seconds=1.0, digest="y")
    run.mark_nonidentical([a, b])
    assert not a.failed and b.failed and b.errors


def test_gate_headroom_rows():
    ops = [bench.OpResult(argv=["monodromy"], rc=0, seconds=1.0, headroom=h)
           for h in (5.0, -1.0, 3.0, 4.0, 1.0)]
    rows = run.end_to_end(ops, 5.0, [0.5])
    assert rows["gate_headroom_decades"][0] == 3.0
    assert rows["gate_headroom_low_half_decades"][0] == pytest.approx(1.0)


def _record(workload, digest):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workload": workload,
        "env": {"backend": "python-fallback"},
        "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
        "ops": [{"argv": ["mesh", "--angles", "3,3,3"], "digest": digest}],
    }


def test_compare_checks_byte_identity_within_each_set(tmp_path, monkeypatch):
    import compare

    monkeypatch.chdir(ROOT)
    base, same, mixed = tmp_path / "base", tmp_path / "same", tmp_path / "mixed"
    for d, digests in ((base, "aa"), (same, "bb"), (mixed, "ab")):
        d.mkdir()
        for i, digest in enumerate(digests):
            rec = _record("mesh_big_family", digest)
            (d / f"mesh_big_family-seed{i}-trace0.json").write_text(json.dumps(rec))
    # parent and change may differ by an ulp; each set must agree with itself
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(mixed)]) == 1


def test_tail_percentile():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(30)]
    value, pct = bench.tail(values)
    assert value == 19.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def _allowed_cdf(x):
    below = sum(min(max(x - a, 0.0), b - a) for a, b in bench.ALLOWED)
    return below / sum(b - a for a, b in bench.ALLOWED)


def test_sweep_generator_is_seeded_and_even():
    first = [t for t, _ in zip(bench.sweep_triples(7), range(64))]
    again = [t for t, _ in zip(bench.sweep_triples(7), range(64))]
    other = [t for t, _ in zip(bench.sweep_triples(8), range(64))]
    assert first == again and first != other
    triples = [[float(x) for x in t.split(",")] for t in first]
    for triple in triples:
        for x in triple:
            assert 0.1 <= x <= 1.95 and abs(x - 1.0) >= 0.05
    # 64 points put 7 to 10 into each of 8 equally likely strata of every angle
    for j in range(3):
        counts = [0] * 8
        for t in triples:
            counts[min(int(_allowed_cdf(t[j]) * 8), 7)] += 1
        assert all(7 <= c <= 10 for c in counts), counts


def test_self_times():
    recs = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "op": 0},
        {"name": spans.KERNEL, "start": 2.0, "end": 3.0, "parent": 1, "op": 0},
        {"name": "c", "start": 5.0, "end": 7.0, "parent": 0, "op": 0},
    ]
    assert spans.self_times(recs) == [5.0, 2.0, 1.0, 2.0]
    assert spans.kernel_owner(recs, 2) is None
    recs[1]["name"] = "surface.transport_frame"
    assert spans.kernel_owner(recs, 2) == "surface.transport_frame"


def test_missing_hook_is_absent_not_fatal(tmp_path):
    import trinoid.fuchsian

    original = trinoid.fuchsian.monodromy
    tracer = spans.Tracer(
        hooks=(
            ("trinoid.fuchsian", "no_such_function", spans.KERNEL),
            ("trinoid.no_such_module", "f", "x.f"),
            ("trinoid.fuchsian", "monodromy", "fuchsian.monodromy"),
        )
    )
    tracer.install()
    try:
        assert trinoid.fuchsian.monodromy is not original
    finally:
        tracer.uninstall()
    assert trinoid.fuchsian.monodromy is original
    assert tracer.absent == ["trinoid.fuchsian.no_such_function", "trinoid.no_such_module.f"]
    values = bench.layer_metrics({}, 1, {spans.KERNEL})
    assert not any(k.startswith("kernel.") for k in values)
    assert values["fuchsian.monodromy.calls"] == 0.0


def test_spec_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in bench.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
