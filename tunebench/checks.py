"""Correctness checks on what a workload's command produced.

Each check returns the ids of the tunes (jobs) whose output it rejects,
so failures can be counted per job.
"""

from __future__ import annotations

from spans import Tracer
from workloads import TRAJ_STEPS, Tune

#: Every how-manyth traced levenshtein call is redone by edit_distance.
DP_SAMPLE_EVERY = 50

HEADERS = {
    "trajectories": "tune_id,step,kind,ed_vs_original,ed_vs_previous,length,pai",
    "per-kind": "tune_id,kind,ed",
    "encoding": "tune_id,pai_pitch,pai_interval",
}
#: Kinds the pipeline can always apply (ADD_NOTE, REVERSE_RULE, ADD_RULE).
ALWAYS_APPLICABLE = {7, 15, 18}
EXCLUDED_BY_DEFAULT = 18


def edit_distance(a: Tune, b: Tune) -> int:
    """Levenshtein distance by the textbook full-row DP."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def rows_by_tune(data: bytes) -> dict[str, list[str]]:
    rows: dict[str, list[str]] = {}
    for line in data.decode().splitlines()[1:]:
        rows.setdefault(line.split(",", 1)[0], []).append(line)
    return rows


def differing(a: bytes, b: bytes, ids: list[str]) -> set[str]:
    """Tunes whose CSV rows differ between two outputs."""
    ra, rb = rows_by_tune(a), rows_by_tune(b)
    return {t for t in ids if ra.get(t) != rb.get(t)}


def _trajectory_ok(tune: Tune, rows: list[list[int]]) -> bool:
    if [r[0] for r in rows] != list(range(1, TRAJ_STEPS + 1)):
        return False
    n0 = prev = len(tune)
    for _, kind, ed_orig, ed_prev, length, pai in rows:
        if not (1 <= kind <= 19 and kind != EXCLUDED_BY_DEFAULT and length >= 1
                and abs(length - prev) <= ed_prev <= max(length, prev)
                and abs(length - n0) <= ed_orig <= max(length, n0)
                and 0 <= pai <= length - 1):
            return False
        prev = length
    return True


def _per_kind_ok(tune: Tune, rows: list[list[int]]) -> bool:
    kinds = [r[0] for r in rows]
    return (kinds == sorted(set(kinds)) and set(kinds) <= set(range(1, 20))
            and ALWAYS_APPLICABLE <= set(kinds) and all(r[1] >= 0 for r in rows))


def _encoding_ok(tune: Tune, rows: list[list[int]]) -> bool:
    return (len(rows) == 1 and 0 <= rows[0][0] <= len(tune) - 1
            and 0 <= rows[0][1] <= len(tune) - 2)


_ROW_CHECKS = {"trajectories": _trajectory_ok, "per-kind": _per_kind_ok,
               "encoding": _encoding_ok}


def check_csv(experiment: str, tunes: list[tuple[str, Tune]],
              data: bytes) -> set[str]:
    """Header, tune order and the invariants every row must satisfy."""
    ids = [t for t, _ in tunes]
    lines = data.decode().splitlines()
    if not lines or lines[0] != HEADERS[experiment]:
        return set(ids)
    rows = rows_by_tune(data)
    if list(rows) != [t for t in ids if t in rows]:
        return set(ids)
    ok = _ROW_CHECKS[experiment]
    bad = set()
    for tune_id, notes in tunes:
        try:
            parsed = [[int(v) for v in line.split(",")[1:]]
                      for line in rows.get(tune_id, [])]
        except ValueError:
            parsed = None
        if not parsed or not ok(notes, parsed):
            bad.add(tune_id)
    return bad


def round_trip(tunes: list[tuple[str, Tune]]) -> set[str]:
    """Tunes for which expand(induce(t)) != t."""
    from tunegram import expand, induce
    return {tune_id for tune_id, notes in tunes if expand(induce(notes)) != notes}


def check_trace(tracer: Tracer, ids: list[str]) -> set[str]:
    """Mutated tunes stay inside their original tune's alphabet, and a
    sample of the levenshtein calls agrees with edit_distance."""
    jobs = [i for i, s in enumerate(tracer.spans) if tracer.job_of(i) == i]
    job_tune = {span: ids[n] for n, span in enumerate(jobs)}
    bad = set()
    distances = 0
    for i, span in enumerate(tracer.spans):
        function = tracer.function[span.binding]
        job = tracer.job_of(i)
        if function == "sequitur.expand":
            if not set(span.note) <= set(tracer.spans[job].note):
                bad.add(job_tune[job])
        elif function == "metrics.levenshtein":
            distances += 1
            a, b, got = span.note
            if distances % DP_SAMPLE_EVERY == 0 and edit_distance(a, b) != got:
                bad.add(job_tune[job])
    return bad
