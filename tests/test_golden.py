"""Behaviour lock: sha256 digests of two experiment CSVs on the bundled
mini corpus at a fixed seed.

These digests pin every number the pipeline produces (Sequitur,
mutation draws, expansion, edit distance, PAI) on 20 tunes.  They were
recorded before the edit-distance kernel became bit-parallel and did not
change with it.  A change to a digest must be deliberate: update it
here only together with a CHANGES.md entry that says what moved and why.
"""

import hashlib
from importlib import resources

import pytest

from tunegram.cli import main

GOLDEN = {
    "trajectories": (
        ["experiment", "trajectories", "--steps", "30", "--seed", "0"],
        "13e11a564c7afb266c4e22bd277ef413b20223026ac617f9c27e7602bb2202d6",
    ),
    "per-kind": (
        ["experiment", "per-kind", "--seed", "0"],
        "e73625c44e53ce986a56e6285cadb2443778506e3e507a706a8dbc29bfdbee8a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_experiment_csv_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    corpus = resources.files("tunegram") / "data" / "mini_corpus"
    with resources.as_file(corpus) as corpus_dir:
        assert main([*argv, "--corpus", str(corpus_dir), "--out", str(out),
                     "--workers", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
