"""Reading tune corpora from plain text files.

A tune file holds integers separated by whitespace and/or commas,
possibly over several lines.  Lines starting with ``#`` and blank lines
are ignored.  A corpus directory is every ``.txt``/``.csv`` file in it,
sorted by name; the file stem becomes the tune id.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from importlib import resources
from os.path import splitext
from pathlib import Path
from typing import Sequence

from .model import Tune, TunegramError

log = logging.getLogger(__name__)

_TOKEN = re.compile(r"[^\s,]+")


class CorpusFormatError(TunegramError):
    """A tune file could not be parsed; knows file, line and column."""

    def __init__(self, path, line: int, column: int, message: str) -> None:
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.path = str(path)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CorpusTune:
    """One tune as loaded from disk."""

    id: str
    tune: Tune
    source_path: str


def _parse_tune_file(path) -> Tune:
    notes: list[int] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # str.split() and _TOKEN split on the same characters; the regex
        # only rescans a bad line, to find the column of its bad token.
        try:
            notes.extend(map(int, line.replace(",", " ").split()))
        except ValueError:
            for m in _TOKEN.finditer(line):
                tok = m.group()
                try:
                    int(tok)
                except ValueError:
                    raise CorpusFormatError(
                        path, lineno, m.start() + 1,
                        f"expected an integer, got {tok!r}") from None
    return tuple(notes)


def load_corpus(path) -> list[CorpusTune]:
    """Load one tune file, or every tune file in a directory.

    ``path`` may also be a ``Traversable``, such as a directory in a zip.
    Empty-tune files are skipped (a single warning reports how many).
    Ids must be unique; two files with the same stem are an error.
    """
    root = path if hasattr(path, "iterdir") else Path(path)
    if root.is_dir():
        files = sorted((p for p in root.iterdir()
                        if splitext(p.name)[1] in (".txt", ".csv")
                        and p.is_file()), key=lambda p: p.name)
    elif root.is_file():
        files = [root]
    else:
        raise FileNotFoundError(f"no such corpus path: {root}")

    tunes: list[CorpusTune] = []
    seen: dict[str, Path] = {}
    skipped = 0
    for file in files:
        notes = _parse_tune_file(file)
        if not notes:
            skipped += 1
            continue
        stem = splitext(file.name)[0]
        if stem in seen:
            raise CorpusFormatError(
                file, 1, 1, f"duplicate tune id {stem!r} (also {seen[stem]})")
        seen[stem] = file
        tunes.append(CorpusTune(stem, notes, str(file)))
    if skipped:
        log.warning("skipped %d empty tune file(s) under %s", skipped, root)
    return tunes


def load_mini_corpus() -> list[CorpusTune]:
    """Load the bundled 20-tune synthetic corpus.

    Small strophic tunes (repeated phrases, a motif shared between two
    of them) generated by scripts/make_mini_corpus.py and shipped with
    the package, for experiments and tests that need a corpus without
    depending on an external collection.
    """
    return load_corpus(resources.files(__package__) / "data" / "mini_corpus")


def serialize_tune(t: Sequence[int]) -> str:
    """Render a tune in the same text format load_corpus reads."""
    return " ".join(str(v) for v in t) + "\n"


def write_tune(t: Sequence[int], path: str | Path) -> None:
    Path(path).write_text(serialize_tune(t), encoding="utf-8")
