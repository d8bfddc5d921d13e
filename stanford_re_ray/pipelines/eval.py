"""Evaluation harness beyond the P/R gate — KBPEvaluator analogs.

- ``tune_thresholds``: sweep a global (or per-relation) score threshold,
  argmax F1 (KBPEvaluator.java:311-403: sweep 0→10 step .1).
- ``pr_curve``: sort fills by score desc, prefix-k precision/recall
  points (KBPEvaluator.java:411-489).
- ``validate_fills``: validation mode — re-judge EXTERNAL proposed fills
  with the classifier + unary consistency, emitting ±1 judgements
  (KBPSlotValidator, kbp/sf/evaluate/KBPSlotValidator.java; writer analog
  OfficialOutputWriter.outputValidSlotsForEntity).

All run driver-side over small scored outputs (the reference does the
same — these are per-run diagnostics, not data-scale transforms).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _keys(df: pd.DataFrame) -> set[tuple[str, str, str]]:
    return {(s, p, o.lower())
            for s, p, o in zip(df["subj"], df["pred"], df["obj"])}


def pr_at_threshold(guess: pd.DataFrame, gold_keys: set, thr: float,
                    rel: str | None = None) -> tuple[float, float, float]:
    g = guess[guess["score"] >= thr]
    if rel is not None:
        g = g[g["pred"] == rel]
        gold = {k for k in gold_keys if k[1] == rel}
    else:
        gold = gold_keys
    keys = _keys(g)
    correct = len(keys & gold)
    p = correct / max(1, len(keys))
    r = correct / max(1, len(gold))
    f1 = 2 * p * r / max(1e-12, p + r)
    return p, r, f1


def tune_thresholds(
    triples: pa.Table,
    gold: pa.Table,
    per_relation: bool = False,
    grid: np.ndarray | None = None,
) -> dict:
    """Sweep thresholds, return argmax-F1 threshold(s) + scores."""
    guess = triples.to_pandas()
    gold_keys = _keys(gold.to_pandas())
    if grid is None:
        grid = np.round(np.arange(0.0, 1.01, 0.05), 2)
    if not per_relation:
        best = max(
            ((thr, *pr_at_threshold(guess, gold_keys, thr)) for thr in grid),
            key=lambda t: (t[3], -t[0]),
        )
        return {"threshold": float(best[0]), "precision": best[1],
                "recall": best[2], "f1": best[3]}
    out = {}
    for rel in sorted(guess["pred"].unique()):
        best = max(
            ((thr, *pr_at_threshold(guess, gold_keys, thr, rel))
             for thr in grid),
            key=lambda t: (t[3], -t[0]),
        )
        out[rel] = {"threshold": float(best[0]), "f1": best[3]}
    return out


def pr_curve(triples: pa.Table, gold: pa.Table, n_points: int = 50) -> pd.DataFrame:
    """Precision/recall at every prefix of the score-desc ranking."""
    guess = triples.to_pandas().sort_values(
        ["score", "subj", "pred", "obj"], ascending=[False, True, True, True],
        kind="mergesort",
    ).reset_index(drop=True)
    gold_keys = _keys(gold.to_pandas())
    seen: set = set()
    correct = 0
    rows = []
    step = max(1, len(guess) // n_points)
    for i, r in enumerate(guess.itertuples(index=False), start=1):
        k = (r.subj, r.pred, r.obj.lower())
        if k not in seen:
            seen.add(k)
            if k in gold_keys:
                correct += 1
        if i % step == 0 or i == len(guess):
            rows.append({
                "k": i,
                "precision": correct / max(1, len(seen)),
                "recall": correct / max(1, len(gold_keys)),
            })
    return pd.DataFrame(rows)


def validate_fills(
    proposed: pa.Table,
    model,
    pages,
    dicts=None,
    clusters=None,
) -> pa.Table:
    """Validation mode: judge external (queryId-less) proposed triples.

    Runs our extraction over the given pages, then marks each proposed
    (subj, pred, obj) +1 if we extract it too (VALIDATE_FORCECLASSIFIABLE
    semantics: classifiable + type-consistent), -1 otherwise."""
    from .kg import dataset_to_table, triples_stage

    ours = dataset_to_table(triples_stage(pages, model, dicts=dicts,
                                          clusters=clusters))
    ok = _keys(ours.to_pandas())
    judgements = [
        1 if (s, p, o.lower()) in ok else -1
        for s, p, o in zip(proposed.column("subj").to_pylist(),
                           proposed.column("pred").to_pylist(),
                           proposed.column("obj").to_pylist())
    ]
    return proposed.append_column("judgement",
                                  pa.array(judgements, pa.int8()))
