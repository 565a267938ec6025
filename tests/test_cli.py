"""End-to-end CLI behavior through main(); two tests import the CLI in a
fresh interpreter."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tunegram
from tunegram.cli import TRAJECTORY_HEADER, main
from tunegram.corpus import CorpusFormatError, write_tune
from tunegram.metrics import ACTIVE_BACKEND
from tunegram.mutation import MAX_ATTEMPTS
from tunegram.pipeline import StepFailedError
from tunes import PITCH16

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def tune_file(tmp_path):
    p = tmp_path / "tune.txt"
    write_tune(PITCH16, p)
    return str(p)


@pytest.fixture
def corpus_dir(tmp_path, mini_corpus):
    d = tmp_path / "corpus"
    d.mkdir()
    for ct in mini_corpus[:3]:
        write_tune(ct.tune, d / f"{ct.id}.txt")
    return str(d)


def test_parse_prints_grammar_and_pai(tune_file, capsys):
    assert main(["parse", tune_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p0 -> ")
    assert out.rstrip().endswith("PAI: 6")


def test_pai_pitch_and_interval(tune_file, capsys):
    assert main(["pai", tune_file]) == 0
    assert capsys.readouterr().out == "6\n"
    # the 15 successive differences of the 16 pitches
    assert main(["pai", tune_file, "--intervals"]) == 0
    assert capsys.readouterr().out == "7\n"


def test_info_prints_version_python_backend_and_draw_cap(capsys):
    assert main(["info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"tunegram: {tunegram.__version__}",
        "python: {}.{}.{}".format(*sys.version_info),
        f"backend: {ACTIVE_BACKEND}",
        f"max_attempts: {MAX_ATTEMPTS}",
    ]


def test_ed_between_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_tune((1, 2, 3), a)
    write_tune((1, 9, 3), b)
    assert main(["ed", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_mutate_trajectory_output(tune_file, capsys):
    assert main(["mutate", tune_file, "--steps", "3", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert 1 <= int(first[1]) <= 19


def test_mutate_is_deterministic(tune_file, capsys):
    main(["mutate", tune_file, "--steps", "10", "--seed", "12"])
    first = capsys.readouterr().out
    main(["mutate", tune_file, "--steps", "10", "--seed", "12"])
    assert capsys.readouterr().out == first


def test_mutate_forced_kind(tune_file, capsys):
    assert main(["mutate", tune_file, "--steps", "4", "--seed", "0",
                 "--kind", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert all(line.split(",")[1] == "15" for line in lines)


def test_mutate_writes_out_and_midi(tune_file, tmp_path, capsys):
    out = tmp_path / "final.txt"
    mid = tmp_path / "final.mid"
    assert main(["mutate", tune_file, "--seed", "3",
                 "--out", str(out), "--midi", str(mid)]) == 0
    notes = [int(v) for v in out.read_text().split()]
    assert len(notes) >= 1
    assert set(notes) <= set(PITCH16)
    assert mid.read_bytes().startswith(b"MThd")
    capsys.readouterr()


def test_mutate_exclude_none_allows_rule_adds(tune_file, capsys):
    # with no exclusions and a forced seed this just has to run; the
    # point is that 'none' parses
    assert main(["mutate", tune_file, "--steps", "5", "--seed", "1",
                 "--exclude", "none"]) == 0
    capsys.readouterr()


def test_mutate_bad_exclude(tune_file, capsys):
    assert main(["mutate", tune_file, "--exclude", "1,banana"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_plain_error(capsys):
    assert main(["pai", "/no/such/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_single_tune_commands_refuse_a_directory(corpus_dir, tune_file,
                                                 capsys):
    # A directory is a corpus: reading its first tune would hide the slip.
    assert main(["pai", corpus_dir]) == 1
    assert main(["ed", corpus_dir, tune_file]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and corpus_dir in err


def test_unparsable_tune_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 oops\n")
    assert main(["pai", str(p)]) == 1
    assert "oops" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["experiment"])
    assert exc_info.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# corpus experiments


def test_per_kind_csv(corpus_dir, tmp_path, capsys):
    out = tmp_path / "per_kind.csv"
    assert main(["experiment", "per-kind", "--corpus", corpus_dir,
                 "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tune_id,kind,ed"
    assert len(lines) == 1 + 3 * 19
    assert lines[1].startswith("tune_01,1,")
    kinds = {int(line.split(",")[1]) for line in lines[1:]}
    assert kinds == set(range(1, 20))
    capsys.readouterr()


def test_trajectories_csv(corpus_dir, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["experiment", "trajectories", "--corpus", corpus_dir,
                 "--steps", "5", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tune_id," + TRAJECTORY_HEADER
    assert len(lines) == 1 + 3 * 5
    steps = [int(line.split(",")[1]) for line in lines[1:6]]
    assert steps == [1, 2, 3, 4, 5]
    capsys.readouterr()


@pytest.mark.parametrize("experiment", [
    ["per-kind"],
    ["trajectories", "--steps", "1"],
], ids=["per-kind", "trajectories"])
@pytest.mark.parametrize("seed", [
    "-1", "18446744073709551616", "18446744073709551619"])
def test_experiments_refuse_seeds_outside_64_bits(corpus_dir, tmp_path, capsys,
                                                  experiment, seed):
    # Refused before the corpus is read or any CSV written.
    out = tmp_path / "out.csv"
    assert main(["experiment", *experiment, "--corpus", corpus_dir,
                 "--seed", seed, "--out", str(out)]) == 1
    assert not out.exists()
    assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", [
    ["per-kind", "--seed", "4"],
    ["trajectories", "--steps", "5", "--seed", "9"],
    ["encoding"],
], ids=["per-kind", "trajectories", "encoding"])
def test_experiments_identical_across_workers(corpus_dir, tmp_path, capsys,
                                              experiment):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["experiment", *experiment, "--corpus", corpus_dir,
                     "--out", str(out), "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


@pytest.mark.parametrize("setting, message", [
    (["--steps", "0"], "error: steps must be >= 1, got 0\n"),
    (["--exclude", ",".join(map(str, range(1, 20)))],
     "error: cannot exclude every mutation kind\n"),
], ids=["steps", "exclude"])
def test_trajectories_checks_its_settings_before_the_corpus(tmp_path, capsys,
                                                           setting, message):
    # The corpus path does not exist either: the settings' error wins.
    out = tmp_path / "traj.csv"
    assert main(["experiment", "trajectories", "--corpus",
                 str(tmp_path / "no-such-corpus"), *setting,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("experiment", [
    ["per-kind"],
    ["trajectories", "--steps", "1"],
    ["encoding"],
], ids=["per-kind", "trajectories", "encoding"])
def test_experiments_refuse_fewer_than_one_worker(tmp_path, capsys,
                                                  experiment, workers):
    # The corpus path does not exist either: the worker count's error wins.
    out = tmp_path / "out.csv"
    assert main(["experiment", *experiment, "--corpus",
                 str(tmp_path / "no-such-corpus"), "--out", str(out),
                 "--workers", workers]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == \
        f"error: --workers must be >= 1, got {workers}\n"


def test_a_failed_step_reports_alike_across_workers(tmp_path, capsys):
    # Tunes of distinct notes induce to a root alone, to which kind 19,
    # the only one left in the draw, never applies.  A pooled run used
    # to end in a BrokenProcessPool traceback: pickle could not rebuild
    # the worker's StepFailedError in this process.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_tune((60, 62, 64, 65), corpus / "a.txt")
    write_tune((67, 69, 71), corpus / "b.txt")
    errs = []
    for workers in ("1", "2"):
        assert main(["experiment", "trajectories", "--corpus", str(corpus),
                     "--steps", "3", "--exclude",
                     ",".join(map(str, range(1, 19))),
                     "--out", str(tmp_path / "traj.csv"),
                     "--workers", workers]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == ("error: step 1 failed: no non-excluded "
                                  "mutation kind applies to this grammar\n")


def test_errors_round_trip_through_pickle():
    step = pickle.loads(pickle.dumps(StepFailedError(3, ValueError("no"))))
    assert (str(step), step.step, type(step.reason), str(step.reason)) == (
        "step 3 failed: no", 3, ValueError, "no")
    fmt = pickle.loads(pickle.dumps(CorpusFormatError("t.txt", 2, 5, "bad")))
    assert (str(fmt), fmt.path, fmt.line, fmt.column, fmt.message) == (
        "t.txt:2:5: bad", "t.txt", 2, 5, "bad")


def test_pool_is_no_larger_than_the_job_list(corpus_dir, tmp_path, capsys,
                                             monkeypatch):
    # With the fork start method a pool starts all its workers on the
    # first submit, so --workers 4000 on 3 tunes must ask for 3.  The
    # fake pool records its size and runs the jobs in this process.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    outs = []
    for workers in ("1", "4000"):
        out = tmp_path / f"pk_w{workers}.csv"
        assert main(["experiment", "per-kind", "--corpus", corpus_dir,
                     "--seed", "4", "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert sizes == [3] and outs[0] == outs[1]
    capsys.readouterr()


def test_import_leaves_out_the_process_pool():
    # The pool's modules load only when a run uses more than one worker,
    # and no module of the package needs statistics.
    code = ("import sys, tunegram.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process',"
            " 'statistics'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout == "[]\n"


def test_import_leaves_out_openssl():
    # derive_seed's blake2b is hashlib's own, taken from _blake2:
    # importing hashlib would load the OpenSSL-backed _hashlib.
    code = "import sys, tunegram.cli; print('_hashlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout == "False\n"


def test_encoding_csv(corpus_dir, tmp_path, capsys):
    out = tmp_path / "enc.csv"
    assert main(["experiment", "encoding", "--corpus", corpus_dir,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tune_id,pai_pitch,pai_interval"
    assert len(lines) == 4
    for line in lines[1:]:
        tune_id, p, q = line.split(",")
        assert tune_id.startswith("tune_")
        assert int(p) > 0 and int(q) > 0
    capsys.readouterr()
