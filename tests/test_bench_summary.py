"""scripts/bench_summary.py over made-up tunebench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "scripts" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {"backend": "python", "python": "3.11.7", "cpu_count": 2,
       "tunegram": "0.1.0", "git_commit": None}


def _write(out_dir, workload, seed, trace, **values):
    listed = BENCH["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in listed}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "correct": True, "errors": [], "metrics": metrics,
              "attempted": 8, "failed": 0, "env": ENV}
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_summary_pairs_seeds_and_keeps_overhead_only_with_a_spread(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, p, c in ((1, 100.0, 110.0), (2, 100.0, 90.0), (3, 100.0, 120.0)):
        _write(parent, "w", seed, 0, items_per_s=p, setup_s=0.2)
        _write(change, "w", seed, 0, items_per_s=c, setup_s=0.1)
    _write(change, "w", 4, 0, items_per_s=1000.0)  # no parent run
    _write(parent, "w", 3, 1, **{"sequitur.induce.s": 2.0,
                                 "trace.overhead_frac": 0.1})
    for seed, s, o in ((3, 1.0, 0.05), (4, 3.0, 0.07), (5, 5.0, 0.2)):
        _write(change, "w", seed, 1, **{"sequitur.induce.s": s,
                                        "trace.overhead_frac": o})
    (change / "notes.json").write_text("{}")  # not a result: skipped
    out = tmp_path / "BENCH_x.json"
    assert bench_summary.main([
        "--change", str(change), "--parent", str(parent),
        "--change-commit", "c0ffee", "--parent-commit", "beef",
        "--out", str(out)]) == 0
    got = json.loads(out.read_text())

    assert got["sides"]["change"]["commit"] == "c0ffee"
    assert got["sides"]["parent"]["commit"] == "beef"
    assert got["sides"]["parent"]["env"]["python"] == "3.11.7"
    w = got["workloads"]["w"]
    assert w["runs"]["change"] == {"runs": 7, "correct_runs": 7,
                                   "failed_jobs": 0, "attempted_jobs": 56}
    items = w["end_to_end"]["items_per_s"]
    assert items["change"] == {"runs": 4, "median": 115.0,
                               "q1": 105.0, "q3": 340.0}
    assert items["parent"]["median"] == 100.0
    assert [p["seed"] for p in items["pairs"]] == [1, 2, 3]
    assert items["change_wins"] == 2
    assert items["median_ratio"] == pytest.approx(1.1)
    # lower is better for setup_s: every pair is a win
    assert w["end_to_end"]["setup_s"]["change_wins"] == 3

    induce_s = w["per_layer"]["sequitur.induce.s"]
    assert induce_s["change"] == {"runs": 3, "median": 3.0}
    assert induce_s["parent"] == {"runs": 1, "median": 2.0}
    overhead = w["per_layer"]["trace.overhead_frac"]
    assert overhead["change"]["median"] == 0.07
    assert (overhead["change"]["q1"], overhead["change"]["q3"]) \
        == pytest.approx((0.06, 0.135))
    assert "parent" not in overhead


def test_summary_without_parent_or_overhead_spread(tmp_path):
    _write(tmp_path, "w", 0, 1)
    out = tmp_path / "BENCH_ci.json"
    bench_summary.main(["--change", str(tmp_path), "--out", str(out)])
    got = json.loads(out.read_text())
    assert set(got["sides"]) == {"change"}
    assert got["sides"]["change"]["commit"] is None
    w = got["workloads"]["w"]
    assert w["end_to_end"] == {}
    assert "trace.overhead_frac" not in w["per_layer"]
    assert w["per_layer"]["sequitur.induce.s"]["change"]["median"] == 1.0
