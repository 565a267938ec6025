"""Tune file parsing and corpus directory loading."""

import json
import logging
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import tunegram
from tunegram.corpus import (
    CorpusFormatError,
    _parse_tune_file,
    load_corpus,
    load_mini_corpus,
    serialize_tune,
    write_tune,
)
from tunegram.model import MutationKind
from tunegram.mutation import applicable
from tunegram.sequitur import induce


def test_parses_commas_and_spaces(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("2, 11, 7, 4\n")
    (got,) = load_corpus(p)
    assert got.id == "a"
    assert got.tune == (2, 11, 7, 4)
    assert got.source_path == str(p)


def test_parses_multiline_with_comments(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# a strathspey\n2 11\n\n7 4\n  # trailing remark\n")
    (got,) = load_corpus(p)
    assert got.tune == (2, 11, 7, 4)


def test_parses_negative_and_mixed_separators(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0,-4 , 12\t-1\n")
    (got,) = load_corpus(p)
    assert got.tune == (0, -4, 12, -1)


def test_parses_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf1 2 3\n4\n")
    (got,) = load_corpus(p)
    assert got.tune == (1, 2, 3, 4)


def test_reports_bad_token_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2, x, 4\n")
    with pytest.raises(CorpusFormatError) as exc_info:
        load_corpus(p)
    err = exc_info.value
    assert err.line == 1
    assert err.column == 4
    assert "'x'" in str(err)
    assert str(p) in str(err)


def test_reports_line_of_later_error(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("1 2 3\n# fine\n4 5six\n")
    with pytest.raises(CorpusFormatError) as exc_info:
        load_corpus(p)
    assert exc_info.value.line == 3


def test_directory_loading_is_sorted_and_filtered(tmp_path):
    (tmp_path / "zeta.txt").write_text("9 9\n")
    (tmp_path / "alpha.txt").write_text("1 2\n")
    (tmp_path / "mid.csv").write_text("5\n")
    (tmp_path / "notes.md").write_text("not a tune\n")
    (tmp_path / "sub").mkdir()
    got = load_corpus(tmp_path)
    assert [t.id for t in got] == ["alpha", "mid", "zeta"]


def test_duplicate_stems_rejected(tmp_path):
    (tmp_path / "same.txt").write_text("1 2\n")
    (tmp_path / "same.csv").write_text("3 4\n")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(tmp_path)


def test_missing_path():
    with pytest.raises(FileNotFoundError):
        load_corpus("/nonexistent/corpus/dir")


def test_empty_files_skipped_with_one_warning(tmp_path, caplog):
    (tmp_path / "empty1.txt").write_text("")
    (tmp_path / "empty2.txt").write_text("# only a comment\n")
    (tmp_path / "real.txt").write_text("4 5\n")
    with caplog.at_level(logging.WARNING, logger="tunegram.corpus"):
        got = load_corpus(tmp_path)
    assert [t.id for t in got] == ["real"]
    warnings = [r for r in caplog.records if "skipped" in r.getMessage()]
    assert len(warnings) == 1
    assert "2" in warnings[0].getMessage()


def test_import_leaves_logging_out():
    # The skipped-files warning imports logging when it fires, and the
    # bundled corpus importlib.resources when it is loaded, so that the
    # package's import pays for neither.  -S keeps site out, which may
    # import logging itself.
    code = ("import sys\n"
            "lazy = {'logging', 'importlib.resources'}\n"
            "assert not lazy & set(sys.modules)\n"
            "import tunegram\n"
            "assert not lazy & set(sys.modules), lazy & set(sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(tunegram.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_serialize_round_trip(tmp_path):
    t = (2, -4, 0, 19, 19)
    assert serialize_tune(t) == "2 -4 0 19 19\n"
    write_tune(t, tmp_path / "out.txt")
    (got,) = load_corpus(tmp_path / "out.txt")
    assert got.tune == t


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_any_tune_survives_serialization(tmp_path_factory, t):
    d = tmp_path_factory.mktemp("roundtrip")
    write_tune(t, d / "t.txt")
    (got,) = load_corpus(d / "t.txt")
    assert got.tune == tuple(t)


class _Text:
    """Stands in for a tune file's path: only read_text is used."""

    def __init__(self, text):
        self.text = text

    def read_text(self, encoding):
        return self.text

    def __str__(self):
        return "tune.txt"


def _regex_parse(path):
    """Tokenize every line with the regex: the oracle for the parser's
    split-based fast path."""
    notes = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        for m in re.finditer(r"[^\s,]+", line):
            try:
                notes.append(int(m.group()))
            except ValueError:
                raise CorpusFormatError(
                    path, lineno, m.start() + 1,
                    f"expected an integer, got {m.group()!r}") from None
    return tuple(notes)


def _outcome(parse, path):
    try:
        return parse(path)
    except CorpusFormatError as exc:
        return exc.line, exc.column, str(exc)


@given(st.lists(st.text("0123456789+-,#ab \u00a0\u2003\x1c", max_size=20),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_split_parser_matches_regex_tokenizer(lines):
    path = _Text("\n".join(lines))
    assert _outcome(_parse_tune_file, path) == _outcome(_regex_parse, path)


# ---------------------------------------------------------------------------
# the bundled corpus


def test_mini_corpus_shape(mini_corpus):
    assert [t.id for t in mini_corpus] == \
        [f"tune_{i:02d}" for i in range(1, 21)]
    assert all(len(t.tune) > 40 for t in mini_corpus)
    assert all(min(t.tune) >= 0 and max(t.tune) <= 19 for t in mini_corpus)


def test_mini_corpus_loads_identically_twice(mini_corpus):
    again = load_mini_corpus()
    assert [(t.id, t.tune) for t in again] == \
        [(t.id, t.tune) for t in mini_corpus]


def test_mini_corpus_supports_every_mutation_kind(mini_corpus):
    # the bundled tunes are built so per-kind experiments never have
    # holes in their tables
    for ct in mini_corpus:
        g = induce(ct.tune)
        assert all(applicable(g, k) for k in MutationKind), ct.id


def test_mini_corpus_loads_from_a_zip(tmp_path, mini_corpus):
    # The bundled corpus is read through importlib.resources, so it must
    # load when the package is imported from a zip, not only from disk.
    pkg = Path(tunegram.__file__).parent
    archive = tmp_path / "tunegram.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for f in sorted(pkg.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                z.write(f, Path("tunegram") / f.relative_to(pkg))
    code = (
        "import json, sys\n"
        f"sys.path[:] = [{str(archive)!r}] + sys.path[1:]\n"
        "import tunegram\n"
        f"assert tunegram.__file__.startswith({str(archive)!r})\n"
        "print(json.dumps([[t.id, t.tune] for t in tunegram.load_mini_corpus()]))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [(i, tuple(t)) for i, t in json.loads(proc.stdout)] == \
        [(t.id, t.tune) for t in mini_corpus]
