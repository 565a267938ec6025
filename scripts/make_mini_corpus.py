"""Regenerate the bundled mini corpus (src/tunegram/data/mini_corpus).

The corpus is 20 synthetic strophic tunes over a two-octave major
scale.  Each tune is a handful of phrases played twice in an
interlocking order (abacbdcede), a short motif spliced into two of the
phrases, and a two-note coda.  That gives the repetition profile of a
small folk tune: pitch grammars compress well, and every one of the 19
mutation kinds has a valid target in the induced grammar.

Construction keeps every digram outside the repeats globally unique
(each adjacent pair of notes appears in one context only), so Sequitur
factors a tune into exactly one rule per phrase plus one motif rule and
nothing else.  That fixed shape is what the generator verifies before
accepting a tune; candidate seeds that collide are skipped.

Phrases come in two layouts of equal length: plain ones, and two
"carrier" phrases that give up their tail positions to the motif.
Keeping the lengths equal stops definition swaps between phrase rules
from rewriting large stretches of the expansion, which would otherwise
rival the effect of whole-rule insertion.

Deterministic: the constants below freeze the corpus.  Rerunning the
script rewrites byte-identical files.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from tunegram.corpus import serialize_tune
from tunegram.model import MutationKind
from tunegram.mutation import applicable
from tunegram.sequitur import expand_rule, induce

MASTER = 7
N_PHRASES = 5
PHRASE_LEN = (7, 9)
MOTIF_LEN = (3, 4)
N_TUNES = 20
MAX_SEED_TRIES = 300

ALPHABET = [0, 2, 4, 5, 7, 9, 11, 12, 14, 16, 17, 19]
PATTERN = "abacbdcede"

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "tunegram" \
    / "data" / "mini_corpus"


def build_tune(rng: random.Random) -> tuple[int, ...]:
    """One candidate tune; raises ValueError when the digram budget
    runs out and the caller should retry with fresh draws."""
    used: set[tuple[int, int]] = set()

    def pick(prev, nxt=None, exclude=()):
        opts = [c for c in ALPHABET
                if c not in exclude
                and (prev is None or (prev, c) not in used)
                and (nxt is None or (c, nxt) not in used)]
        if not opts:
            raise ValueError("digram space exhausted")
        c = rng.choice(opts)
        if prev is not None:
            used.add((prev, c))
        if nxt is not None:
            used.add((c, nxt))
        return c

    plen = rng.randint(*PHRASE_LEN)
    mlen = rng.randint(*MOTIF_LEN)
    # Odd positions hold notes shared by all phrases, even positions
    # are filled per phrase, so phrases resemble each other note-wise
    # without ever sharing a digram.
    shared = rng.sample(ALPHABET, plen // 2)
    base = [shared[i // 2] if i % 2 else None for i in range(plen)]
    # Carrier phrases drop trailing positions; splicing the motif in
    # restores plen, keeping all phrases the same length.
    short = base[:plen - mlen]

    motif = []
    for _ in range(mlen):
        motif.append(pick(motif[-1] if motif else None))

    carriers = rng.sample(range(N_PHRASES), 2)
    firsts: list[int] = []
    phrases: list[list[int]] = []
    for pi in range(N_PHRASES):
        body: list[int] = []
        layout = short if pi in carriers else base
        for i, b in enumerate(layout):
            if b is not None:
                used.add((body[-1], b))
                body.append(b)
            else:
                nxt = layout[i + 1] if i + 1 < len(layout) else None
                body.append(pick(body[-1] if body else None, nxt,
                                 exclude=firsts if i == 0 else ()))
            if i == 0:
                firsts.append(body[0])
        if pi in carriers:
            spots = [at for at in range(2, len(body) - 1)
                     if (body[at - 1], motif[0]) not in used
                     and (motif[-1], body[at]) not in used]
            if not spots:
                raise ValueError("no motif insertion point")
            at = rng.choice(spots)
            used.add((body[at - 1], motif[0]))
            used.add((motif[-1], body[at]))
            body = body[:at] + motif + body[at:]
        phrases.append(body)

    seq: list[int] = []
    for ch in PATTERN:
        p = phrases[ord(ch) - ord("a")]
        if seq:
            if (seq[-1], p[0]) in used:
                raise ValueError("phrase boundary digram collides")
            used.add((seq[-1], p[0]))
        seq.extend(p)
    for _ in range(2):  # coda: keeps plain notes at the top level
        seq.append(pick(seq[-1]))
    return tuple(seq), phrases, motif


def make_checked(seed: int) -> tuple[int, ...] | None:
    """Build until the induced grammar has the intended shape: root,
    one rule per phrase, one motif rule, and every kind applicable."""
    rng = random.Random(seed)
    for _ in range(500):
        try:
            t, phrases, motif = build_tune(rng)
        except ValueError:
            continue
        g = induce(t)
        if len(g) != N_PHRASES + 2:
            continue
        expansions = sorted(len(expand_rule(g, r)) for r in g.rhs if r)
        if expansions != sorted([len(p) for p in phrases] + [len(motif)]):
            continue
        if any(not applicable(g, k) for k in MutationKind):
            continue
        return t
    return None


def main() -> int:
    tunes = []
    i = 0
    while len(tunes) < N_TUNES and i < MAX_SEED_TRIES:
        t = make_checked(MASTER * 100_000 + i)
        i += 1
        if t is not None:
            tunes.append(t)
    if len(tunes) < N_TUNES:
        print(f"only {len(tunes)} tunes after {i} seeds", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for n, t in enumerate(tunes, start=1):
        (OUT_DIR / f"tune_{n:02d}.txt").write_text(
            serialize_tune(t), encoding="utf-8")
    print(f"wrote {len(tunes)} tunes to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
