"""Tests of the benchmark itself.

    python3 -m pytest tunebench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import check_csv, edit_distance  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, write_corpus  # noqa: E402

from tunegram import cli, mutation, pipeline  # noqa: E402
from tunegram.metrics import levenshtein  # noqa: E402
from tunegram.model import MutationKind  # noqa: E402

MODULES = {"cli": cli, "pipeline": pipeline, "mutation": mutation}


@pytest.mark.parametrize("name", ["per-kind-gen", "encoding-long"])
def test_same_seed_writes_identical_corpora(name, tmp_path):
    make = WORKLOADS[name].make_corpus
    first = write_corpus(make(3), tmp_path / "a")
    again = write_corpus(make(3), tmp_path / "b")
    other = write_corpus(make(4), tmp_path / "c")
    assert first == again != other
    assert write_corpus(make(3), tmp_path / "c") == first
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        assert path.read_bytes() == (tmp_path / "c" / path.name).read_bytes()


def test_self_time_is_span_minus_children_cover():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.child", 15, 25, 1),
        Span("b", 50, 70, 0),
        Span("c", 60, 80, 0),    # overlaps b: together they cover 50-80
        Span("d", 95, 120, 0),   # runs past its parent: only 95-100 counts
    ]
    assert self_times(spans) == [100 - 30 - 30 - 5, 30 - 10, 10, 20, 20, 25]


def test_edit_distance_matches_levenshtein():
    rnd = random.Random(5)
    for _ in range(50):
        a = tuple(rnd.randrange(4) for _ in range(rnd.randrange(12)))
        b = tuple(rnd.randrange(4) for _ in range(rnd.randrange(12)))
        assert edit_distance(a, b) == levenshtein(a, b)
    assert edit_distance((1, 2, 3), ()) == 3


def test_tracer_times_through_calling_namespace_and_restores():
    original = pipeline.induce
    tune = (2, 11, 7, 4, 4, 7, 4, 4, 2, 11, 7, 4, 4, 7, 4, 4)
    tracer = Tracer()
    with tracer.installed(MODULES):
        assert pipeline.induce is not original
        tracer.call(pipeline.run_per_kind, tune, 1)
    assert pipeline.induce is original
    assert tracer.calls("pipeline.induce") == 1
    assert tracer.calls("pipeline.apply_mutation") == tracer.calls(
        "pipeline.levenshtein") > 0
    assert tracer.calls("mutation.validate_grammar") > 0
    metrics = layer_metrics([tracer], [k.code for k in MutationKind],
                            mutation.MAX_ATTEMPTS)
    assert metrics["sequitur.induce.calls"] == 1
    assert metrics["mutation.apply_mutation.calls"] == tracer.calls(
        "pipeline.apply_mutation")


def test_check_csv_rejects_a_broken_row(tmp_path):
    tunes = [("a", (1, 2, 3)), ("b", (4, 5, 6, 7))]
    good = b"tune_id,pai_pitch,pai_interval\na,0,0\nb,1,0\n"
    assert check_csv("encoding", tunes, good) == set()
    assert check_csv("encoding", tunes, good.replace(b"b,1,0", b"b,9,0")) == {"b"}
    assert check_csv("encoding", tunes, good.replace(b"pai_pitch", b"x")) == {"a", "b"}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == [BENCH.name]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    listed = [m["name"] for m in bench["per_layer"]]
    computed = layer_metrics([Tracer()], [k.code for k in MutationKind], 100)
    assert listed == [*computed, "trace.overhead_frac"]


def test_command_seeds_are_drawn_from_the_pool_by_the_workload_seed():
    traj = WORKLOADS["traj-mini"]
    first = traj.command_seeds(5)
    assert first == traj.command_seeds(5) != traj.command_seeds(6)
    assert len(set(first)) == 4 and set(first) <= set(traj.seed_pool)
    assert WORKLOADS["per-kind-gen"].command_seeds(5) == [5]
