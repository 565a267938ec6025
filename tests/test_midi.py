"""Byte-exact checks on the MIDI exporter."""

import pytest

from tunegram.midi import NoteRangeError, export_midi, render_midi
from tunegram.model import TunegramError

EXPECTED_TWO_NOTES = bytes.fromhex(
    "4d546864"          # MThd
    "00000006"
    "0000"              # format 0
    "0001"              # one track
    "01e0"              # 480 ticks per quarter
    "4d54726b"          # MTrk
    "00000020"          # 32 track bytes follow
    "00ff510307a120"    # tempo: 500000 us per quarter
    "00c000"            # program 0
    "00903c50"          # note on  60 vel 80
    "8360803c40"        # note off 60 after 480 ticks
    "00903e50"          # note on  62
    "8360803e40"        # note off 62
    "00ff2f00"          # end of track
)


def test_two_note_file_bytes():
    assert render_midi([60, 62]) == EXPECTED_TWO_NOTES


def test_render_is_deterministic():
    t = [60, 64, 67, 64, 60]
    assert render_midi(t) == render_midi(t)


def test_pitch_classes_get_shifted():
    data = render_midi([2, 11])
    assert bytes((0x90, 62, 80)) in data
    assert bytes((0x90, 71, 80)) in data


def test_absolute_pitches_kept_when_high_notes_present():
    data = render_midi([11, 12])
    assert bytes((0x90, 11, 80)) in data
    assert bytes((0x90, 12, 80)) in data
    assert bytes((0x90, 71, 80)) not in data


def test_track_length_scales_with_tune():
    short = render_midi([60])
    long = render_midi([60] * 10)
    assert len(long) - len(short) == 9 * 9  # nine extra on/off pairs


def test_note_range_errors_name_the_index():
    with pytest.raises(NoteRangeError) as exc_info:
        render_midi([200])
    assert exc_info.value.index == 0
    assert exc_info.value.value == 200

    with pytest.raises(NoteRangeError) as exc_info:
        render_midi([60, 200])
    assert exc_info.value.index == 1

    # a negative pitch class still lands below 0 after the shift fails
    with pytest.raises(NoteRangeError):
        render_midi([-70])


def test_empty_tune_rejected():
    with pytest.raises(TunegramError):
        render_midi([])


def test_export_writes_render_output(tmp_path):
    p = tmp_path / "t.mid"
    export_midi([60, 62], p)
    assert p.read_bytes() == EXPECTED_TWO_NOTES
