"""Output checks, computed apart from the program under test.

Every check raises ``CheckFailed`` on a wrong output.  None of them calls
into ``stanford_re_ray``: precision and recall, the edge invariants, the
survivor set and the join oracle are all recomputed here from the raw
tables, so a fault in the program cannot hide in its own scorer.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import pyarrow as pa

#: floors for triple precision and recall against the generator's gold
#: table; the engine measures ≥ 0.99 on both at every size used here
PRECISION_FLOOR = 0.95
RECALL_FLOOR = 0.95
#: slack on the noisy-OR bounds: merged scores are float64 sums of logs
SCORE_EPS = 1e-9

TRIPLE_COLUMNS = ["subj", "subj_type", "pred", "obj", "obj_type", "score",
                  "doc_id", "sent_idx"]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _rows(table: pa.Table, cols: list[str]) -> list[tuple]:
    return list(zip(*(table.column(c).to_pylist() for c in cols)))


def triples_digest(triples: pa.Table) -> str:
    """sha256 over the sorted triple rows (scores rounded to 12 digits)."""
    h = hashlib.sha256()
    rows = sorted(
        (s, st, p, o, ot, f"{sc:.12f}", d, int(si))
        for s, st, p, o, ot, sc, d, si in _rows(triples, TRIPLE_COLUMNS))
    for r in rows:
        h.update("\x1f".join(map(str, r)).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def precision_recall(triples: pa.Table, gold: pa.Table) -> tuple[float, float]:
    """Any-document scoring: a triple is correct when (subj, pred, obj
    lower-cased) is a gold key."""
    def keys(t):
        return {(s, p, o.lower()) for s, p, o in _rows(t, ["subj", "pred", "obj"])}

    guess, want = keys(triples), keys(gold)
    hit = len(guess & want)
    return hit / max(1, len(guess)), hit / max(1, len(want))


def check_quality(triples: pa.Table, gold: pa.Table) -> None:
    p, r = precision_recall(triples, gold)
    if p < PRECISION_FLOOR or r < RECALL_FLOOR:
        raise CheckFailed(f"triples precision {p:.4f} / recall {r:.4f} "
                          f"below floors {PRECISION_FLOOR}/{RECALL_FLOOR}")


def check_edges(triples: pa.Table, nodes: pa.Table, edges: pa.Table) -> None:
    """Each edge is the noisy-OR merge of the triples that resolve to it:
    ``n_support`` counts them, and the score lies between the best
    supporting triple's score and 1.  Names resolve through each node's
    name and alternative names."""
    name_to_id: dict[tuple[str, str], str] = {}
    for eid, name, etype, alts in _rows(
            nodes, ["entity_id", "name", "type", "alt_names"]):
        for n in [name, *(alts or [])]:
            if name_to_id.setdefault((n, etype), eid) != eid:
                raise CheckFailed(f"name {n!r}/{etype} maps to two nodes")
    support: Counter = Counter()
    best: dict[tuple, float] = {}
    for s, st, p, o, ot, sc in _rows(
            triples, ["subj", "subj_type", "pred", "obj", "obj_type", "score"]):
        try:
            key = (name_to_id[(s, st)], p, name_to_id[(o, ot)])
        except KeyError as e:
            raise CheckFailed(f"triple entity {e} has no node") from None
        support[key] += 1
        best[key] = max(best.get(key, 0.0), sc)
    seen = set()
    for src, p, dst, sc, n in _rows(
            edges, ["src_id", "pred", "dst_id", "score", "n_support"]):
        key = (src, p, dst)
        if key in seen:
            raise CheckFailed(f"edge {key} emitted twice")
        seen.add(key)
        if key not in support:
            raise CheckFailed(f"edge {key} has no supporting triple")
        if n != support[key]:
            raise CheckFailed(f"edge {key} n_support {n} != {support[key]} "
                              "supporting triples")
        if not (best[key] - SCORE_EPS <= sc <= 1.0 + SCORE_EPS):
            raise CheckFailed(f"edge {key} score {sc} outside "
                              f"[{best[key]}, 1]")
    missing = set(support) - seen
    if missing:
        raise CheckFailed(f"{len(missing)} triple groups have no edge, "
                          f"e.g. {sorted(missing)[0]}")


def check_kg(triples: pa.Table, nodes: pa.Table, edges: pa.Table,
             gold: pa.Table) -> str:
    """All KG output checks; returns the sorted-triples digest."""
    check_quality(triples, gold)
    check_edges(triples, nodes, edges)
    return triples_digest(triples)


def partition_files(out_dir: str) -> dict[str, tuple]:
    """(size, mtime_ns, inode, sha256) of every output file, keyed by its
    path relative to ``out_dir`` (manifests excluded)."""
    out = {}
    for table in ("triples", "nodes", "edges"):
        base = os.path.join(out_dir, table)
        for part in sorted(os.listdir(base)):
            path = os.path.join(base, part, "data.parquet")
            st = os.stat(path)
            with open(path, "rb") as f:
                sha = hashlib.sha256(f.read()).hexdigest()
            out[f"{table}/{part}"] = (st.st_size, st.st_mtime_ns, st.st_ino, sha)
    return out


def check_resume(result: dict, rewritten: list[str], all_pids: list[str],
                 before: dict[str, tuple], after: dict[str, tuple]) -> None:
    """A resume pass processes exactly the rewritten shards and leaves every
    other partition's files untouched (same inode, mtime and bytes)."""
    if result["failed"]:
        raise CheckFailed(f"resume pass failed shards {result['failed']}")
    if sorted(result["processed"]) != sorted(rewritten):
        raise CheckFailed(f"resume processed {result['processed']}, "
                          f"expected exactly {rewritten}")
    others = sorted(set(all_pids) - set(rewritten))
    if sorted(result["completed_previously"]) != others:
        raise CheckFailed(f"resume skipped {result['completed_previously']}, "
                          f"expected {others}")
    if sorted(before) != sorted(after):
        raise CheckFailed("resume changed the set of partition files")
    for key, stamp in before.items():
        pid = key.split("part=", 1)[1]
        if pid in others and after[key] != stamp:
            raise CheckFailed(f"untouched partition file {key} changed")


def check_survivors(got: list[int], expected: list[int]) -> None:
    """Dedup keeps the minimum id of each planted cluster plus every
    singleton, and nothing else."""
    got_s, exp_s = sorted(got), sorted(expected)
    if got_s != exp_s:
        extra = sorted(set(got_s) - set(exp_s))
        lost = sorted(set(exp_s) - set(got_s))
        raise CheckFailed(f"{len(got_s)} survivors, expected {len(exp_s)}: "
                          f"{len(extra)} unexpected, {len(lost)} missing")


def join_wrong_rows(got: pa.Table, left: pa.Table, right: pa.Table,
                    keys: list[str]) -> int:
    """Rows of ``got`` that differ from ``pyarrow.Table.join`` of the same
    inputs: the larger side of the multiset difference."""
    want = left.join(right, keys=keys, join_type="inner")
    cols = sorted(want.column_names)
    if sorted(got.column_names) != cols:
        return max(got.num_rows, want.num_rows)
    a, b = Counter(_rows(got, cols)), Counter(_rows(want, cols))
    return max(sum((a - b).values()), sum((b - a).values()))
