"""Minimal Standard MIDI File export for tunes.

Writes a single-track (format 0) file: 480 ticks per quarter note,
one quarter note per tune entry, velocity 80, program 0, 120 BPM.
The byte layout is fixed, so the same tune always produces the same
file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .model import TunegramError

TICKS_PER_QUARTER = 480
_QUARTER_US = 500_000  # 120 BPM
_VELOCITY = 80


class NoteRangeError(TunegramError):
    """A note falls outside the MIDI range 0..127."""

    def __init__(self, index: int, value: int) -> None:
        super().__init__(
            f"note at index {index} maps to MIDI pitch {value}, "
            f"outside 0..127")
        self.index = index
        self.value = value


def _varint(n: int) -> bytes:
    """Encode a delta time as a variable-length quantity."""
    out = [n & 0x7F]
    n >>= 7
    while n:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    return bytes(reversed(out))


def render_midi(t: Sequence[int]) -> bytes:
    """Build the SMF bytes for a tune.

    When every note is below 12 the tune is treated as pitch classes
    and shifted up to the octave of middle C (MIDI 60); otherwise values
    are used as MIDI pitches directly.
    """
    if not t:
        raise TunegramError("cannot export an empty tune")
    offset = 60 if max(t) < 12 else 0
    pitches = []
    for i, v in enumerate(t):
        p = v + offset
        if not 0 <= p <= 127:
            raise NoteRangeError(i, p)
        pitches.append(p)

    track = bytearray()
    track += _varint(0) + bytes((0xFF, 0x51, 0x03))
    track += _QUARTER_US.to_bytes(3, "big")
    track += _varint(0) + bytes((0xC0, 0x00))
    for p in pitches:
        track += _varint(0) + bytes((0x90, p, _VELOCITY))
        track += _varint(TICKS_PER_QUARTER) + bytes((0x80, p, 0x40))
    track += _varint(0) + bytes((0xFF, 0x2F, 0x00))

    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
    header += TICKS_PER_QUARTER.to_bytes(2, "big")
    return bytes(header + b"MTrk" + len(track).to_bytes(4, "big") + track)


def export_midi(t: Sequence[int], path: str | Path) -> None:
    """Write a tune to ``path`` as a Standard MIDI File."""
    Path(path).write_bytes(render_midi(t))
