"""S8 — entity canonicalization + graph materialization (nodes/edges).

Rebuilt from:

- ``EntityMergingPostProcessor`` — pairwise entity-linker match →
  equivalence classes → merged representative
  (kbp/sf/evaluate/GraphConsistencyPostProcessors.java:51-130);
- ``EntityLinker.sameEntity`` — acronym match + token-overlap score with
  per-type thresholds (PER > 0.49, ORG > 0.79)
  (kbp/entitylinking/EntityLinker.java:19-36,80-174);
- ``EntityGraph.mergeEdges`` — parallel same-relation edges merged with
  noisy-OR score and argmax-score provenance (EntityGraph.java:60-98;
  Utils.noisyOr, kbp/sf/common/Utils.java:287-291).

Physical plan (SURVEY.md §7.4 shuffles #3 and #4):

    names  ──groupby(block_key [+salt]).map_groups(link_cluster)──► nodes
    triples ─map_batches(name→id via broadcast map)
            ─groupby(src_id, pred, dst_id).map_groups(noisy_or merge)──► edges

The blocking key is the normalized surface's last token (surname / org
head-word): candidate pairs for linking must share it, which keeps the
pairwise linker inside small per-group clusters.  Zipf-skewed head keys are
salted by a hash of the full surface into ``n_salt`` subgroups, each capped
at ``max_cluster`` members (TEST_GRAPH_MAXSIZE-style guardrail,
Props.java:256-285) — two-phase merge is unnecessary because clusters only
need a representative, not global transitivity, matching the reference's
greedy single-pass merge.
"""

from __future__ import annotations

import hashlib
import re

import pandas as pd
import pyarrow as pa

_NORM = re.compile(r"[^a-z0-9 ]+")
ACRO_RE = re.compile(r"^[A-Z]{2,6}$")


def normalize_surface(name: str) -> str:
    return _NORM.sub("", name.lower()).strip()


def block_key(name: str, etype: str) -> str:
    """Blocking key for linking: last normalized token (surname / org head)."""
    norm = normalize_surface(name)
    toks = norm.split()
    if not toks:
        return "_"
    if etype == "PERSON":
        return "p:" + toks[-1]
    return "o:" + toks[-1]


def acronym_of(name: str) -> str:
    return "".join(w[0] for w in name.split() if w and w[0].isupper()).upper()


def same_entity(a: str, b: str, etype: str) -> bool:
    """EntityLinker.sameEntity port (EntityLinker.java:80-174): exact,
    acronym, then token-overlap score with per-type thresholds.

    Deviation from the reference for global-scale precision: two FULL
    person names (≥2 tokens each) additionally require compatible first
    tokens (equal, or one an initial of the other).  The reference's bare
    0.49 overlap runs inside one query entity's fill set; applied globally
    it merges every same-surname person ("John Lee" ≡ "Karen Lee")."""
    if a == b:
        return True
    na, nb = normalize_surface(a), normalize_surface(b)
    if na == nb:
        return True
    if etype == "ORGANIZATION":
        if ACRO_RE.match(a) and acronym_of(b) == a:
            return True
        if ACRO_RE.match(b) and acronym_of(a) == b:
            return True
    la, lb = na.split(), nb.split()
    if not la or not lb:
        return False
    if etype == "PERSON" and len(la) >= 2 and len(lb) >= 2:
        if la[-1] != lb[-1]:
            return False
        fa, fb = la[0], lb[0]
        return fa == fb or fa[0] == fb[0] and (len(fa) == 1 or len(fb) == 1)
    ta, tb = set(la), set(lb)
    overlap = len(ta & tb) / min(len(ta), len(tb))
    threshold = 0.49 if etype == "PERSON" else 0.79
    return overlap > threshold


def entity_id(name: str, etype: str) -> str:
    return hashlib.sha1(f"{etype}|{name}".encode("utf-8")).hexdigest()[:16]


def link_cluster(group: pd.DataFrame, max_cluster: int = 150) -> pd.DataFrame:
    """Per-block greedy linking: rows (name, type, n_mentions) → one row per
    equivalence class with the representative name + alt names.

    Representative choice mirrors the priority-weighted merge
    (GraphConsistencyPostProcessors.java:51-130): highest mention count,
    then longest name, then lexicographic — deterministic under any input
    order.
    """
    rows = group.to_dict("records")
    rows.sort(key=lambda r: (-int(r["n_mentions"]), -len(r["name"]), r["name"]))
    rows = rows[:max_cluster]
    reps: list[dict] = []
    out = []
    for r in rows:
        placed = False
        for rep in reps:
            if rep["type"] == r["type"] and same_entity(rep["name"], r["name"], r["type"]):
                rep["alt_names"].append(r["name"])
                rep["n_mentions"] += int(r["n_mentions"])
                rep["members"].append(r["name"])
                placed = True
                break
        if not placed:
            reps.append(
                {
                    "name": r["name"],
                    "type": r["type"],
                    "n_mentions": int(r["n_mentions"]),
                    "alt_names": [],
                    "members": [r["name"]],
                }
            )
    for rep in reps:
        eid = entity_id(rep["name"], rep["type"])
        out.append(
            {
                "entity_id": eid,
                "name": rep["name"],
                "type": rep["type"],
                "alt_names": sorted(set(rep["alt_names"])),
                "n_mentions": rep["n_mentions"],
                # members column lets the driver build the name→id map /
                # name-resolution join without re-running the linker
                "members": rep["members"],
            }
        )
    return pd.DataFrame(
        out,
        columns=["entity_id", "name", "type", "alt_names", "n_mentions", "members"],
    )


#: the key edges merge on (one bucketed shuffle, ``pipelines.kg.merge_edges``)
EDGE_KEY = ["src_id", "pred", "dst_id"]


def noisy_or_merge_bucket(df: pd.DataFrame):
    """Vectorized per-bucket edge merge: noisy-OR via sum of log(1-s),
    argmax-score provenance, support counts (semantics of
    ``noisy_or_merge`` / EntityGraph.mergeEdges).  Returns Arrow."""
    import numpy as np

    from ..schema import pd_to_arrow

    if not len(df):
        return pd_to_arrow(df.iloc[0:0])
    key = EDGE_KEY
    df = (df.sort_values(key + ["doc_id", "sent_idx"], kind="mergesort")
            .reset_index(drop=True))
    clipped = np.clip(1.0 - df["score"].to_numpy(), 1e-15, 1.0)
    df = df.assign(__log1m=np.log(clipped))
    g = df.groupby(key, sort=False)
    log_sum = g["__log1m"].sum()
    n = g.size().rename("n_support")
    best_idx = g["score"].idxmax()
    best = df.loc[best_idx.values].set_index(key)
    out = best.join((1.0 - np.exp(log_sum)).rename("merged")).join(n)
    out = out.reset_index()
    out["score"] = out.pop("merged")
    out["n_support"] = out["n_support"].astype("int64")
    return pd_to_arrow(out[["src_id", "pred", "dst_id", "score", "n_support",
                            "doc_id", "sent_idx"]])


def noisy_or_merge(group: pd.DataFrame) -> pd.DataFrame:
    """Edge merge: same (src_id, pred, dst_id) edges → one edge with
    noisy-OR score (Utils.noisyOr) + argmax-score provenance
    (EntityGraph.java:85-98)."""
    score = 1.0
    for s in group["score"]:
        score *= 1.0 - float(s)
    score = 1.0 - score
    best = group.iloc[int(group["score"].to_numpy().argmax())]
    return pd.DataFrame(
        [
            {
                "src_id": best["src_id"],
                "pred": best["pred"],
                "dst_id": best["dst_id"],
                "score": score,
                "n_support": len(group),
                "doc_id": best["doc_id"],
                "sent_idx": best["sent_idx"],
            }
        ]
    )
