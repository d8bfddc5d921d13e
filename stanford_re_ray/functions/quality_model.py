"""Model-based document quality scoring — the FineWeb-Edu / DCLM-style
classifier pass: train a hashed bag-of-words logistic regression against
a weak rule-based label (the Gopher keep flag), then score every
document with it.  This is the canonical "learned quality filter"
stage of a large-scale training-data pipeline, kept fully distributed
and fully deterministic.

Distributed shape:
- Featurize once: per-batch Arrow tokenize → hashed sparse count
  vectors (``zlib.crc32(token) % d`` buckets) + the Gopher weak label;
  materialized, re-read each epoch (lineage would re-execute).
- Each epoch is ONE ``map_batches`` pass plus a ≤ (d+1)-key groupby:
  the current weight vector broadcasts via ``ray.put``; each batch
  emits its partial gradient as sparse (j, g) rows; partials sum into
  the full-batch gradient; the driver applies one GD step.  Only d+1
  ints/epoch reach the driver — corpus size never does.
- Scoring is one more broadcast-weights pass emitting per-source
  integer partials.

Determinism (the repo contract): per-document gradient contributions
are quantized to int64 (residual x 1e9) BEFORE any cross-partition
sum, so every reduce is an associative integer sum — bit-identical
under any partitioning; per-document scores quantize to ppm the same
way before the per-source mean.  Scale note: |residual| ≤ 1, so a
feature's accumulator stays below 1e9 × its summed counts (the bias's
below 1e9 × the document count); training raises before either bound
can pass 2^63 - 1 (~9.2e9 summed counts) instead of wrapping.  Beyond
it, shard the epoch into per-partition averaged sub-gradients (the
``pipelines.train`` sharded-fit pattern) before summing.

No SQL oracle — iterative GD is outside DuckDB; the pytest gate pins
the full output against an independent serial numpy twin
(tests/test_quality_model.py), exact to the integer.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..schema import pd_to_arrow

QUALITY_DIM = 512


def _hash_tokens(tokens: list[str], d: int,
                 _cache: dict = {}) -> np.ndarray:
    key_cache = _cache.setdefault(d, {})
    if len(key_cache) > (1 << 20):
        key_cache.clear()
    out = np.empty(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        h = key_cache.get(t)
        if h is None:
            h = key_cache[t] = zlib.crc32(t.encode()) % d
        out[i] = h
    return out


def featurize_quality(docs: ray.data.Dataset,
                      d: int = QUALITY_DIM) -> ray.data.Dataset:
    """documents(doc_id, text, source) → materialized feature rows
    (doc_id, source, y, idx list, cnt list): hashed unigram counts plus
    the Gopher keep flag as the weak training label."""
    from .corpus import _tokenize_column
    from .textstats import gopher_quality_batch

    def feats(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        p = np.asarray(parent, dtype=np.int64)
        hashed = _hash_tokens(flat.to_pylist(), d)
        n = batch.num_rows
        idxs: list[np.ndarray] = []
        cnts: list[np.ndarray] = []
        for i in range(n):
            hi = hashed[p == i]
            if len(hi):
                u, c = np.unique(hi, return_counts=True)
            else:
                u = np.array([], np.int64)
                c = np.array([], np.int64)
            idxs.append(u)
            cnts.append(c)
        y = gopher_quality_batch(batch).column("keep")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "y": pa.array(np.asarray(y, dtype=np.int64)),
            "idx": pa.array(idxs, pa.list_(pa.int64())),
            "cnt": pa.array(cnts, pa.list_(pa.int64())),
        })

    return docs.map_batches(feats, batch_format="pyarrow").materialize()


def _doc_probs(batch: pa.Table, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-doc sigmoid under weights ``w`` (bias = w[-1]) plus the flat
    sparse structure needed by the gradient."""
    idx = batch.column("idx")
    flat_idx = np.asarray(idx.combine_chunks().flatten(), dtype=np.int64)
    flat_cnt = np.asarray(
        batch.column("cnt").combine_chunks().flatten(), dtype=np.int64)
    parent = np.asarray(
        pa.compute.list_parent_indices(idx.combine_chunks()),
        dtype=np.int64)
    z = np.full(batch.num_rows, w[-1], dtype=np.float64)
    np.add.at(z, parent, w[flat_idx] * flat_cnt)
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    return p, flat_idx, flat_cnt, parent


#: the quantized residual's bound: |p - y| ≤ 1, scaled by 1e9
DQ_MAX = 10**9


def _sum_partials(partials: ray.data.Dataset, d: int,
                  small: bool) -> np.ndarray:
    """Σ g per j over the per-block (j, g) partial rows, in g's dtype:
    on the driver when ``small`` (no shuffle), else in one distributed
    groupby (1e12-doc corpora)."""
    from ray.data.aggregate import Sum

    if not small:
        partials = partials.groupby("j").aggregate(Sum("g", alias_name="g"))
    rows = partials.to_pandas()
    g = rows["g"].to_numpy()
    out = np.zeros(d + 1, dtype=g.dtype)
    np.add.at(out, rows["j"].to_numpy(np.int64), g)
    return out


def train_quality_lr(feats: ray.data.Dataset, n_docs: int,
                     d: int = QUALITY_DIM, epochs: int = 8,
                     lr: float = 0.5) -> np.ndarray:
    """Full-batch gradient descent, one broadcast-weights pass per
    epoch; returns the (d+1) weight vector (last element = bias).
    Raises ``OverflowError`` when an int64 gradient accumulator could
    wrap: DQ_MAX times a feature's summed counts, or times the document
    count, passes 2^63 - 1."""
    # (d+1) rows per input block reach the reduce; below the cutoff the
    # driver sums them directly
    small = (d + 1) * feats.num_blocks() <= 2_000_000

    def count_partial(batch: pa.Table) -> pa.Table:
        _, flat_idx, flat_cnt, _ = _doc_probs(batch, np.zeros(d + 1))
        c = np.zeros(d + 1, dtype=np.float64)
        np.add.at(c, flat_idx, flat_cnt.astype(np.float64))
        c[d] = batch.num_rows
        return pa.table({"j": pa.array(np.arange(d + 1, dtype=np.int64)),
                         "g": pa.array(c)})

    worst = DQ_MAX * _sum_partials(
        feats.map_batches(count_partial, batch_format="pyarrow"), d,
        small).max(initial=0.0)
    if worst >= 2.0**63:
        raise OverflowError(
            f"int64 gradient sums could reach {worst:.3g} (≥ 2^63): "
            "shard the corpus into averaged sub-gradients")
    w = np.zeros(d + 1, dtype=np.float64)
    for _ in range(epochs):
        ref = ray.put(w)

        def grad_partial(batch: pa.Table, _ref=ref) -> pa.Table:
            from ..state.broadcast import fetch

            wv = fetch(_ref)
            p, flat_idx, flat_cnt, parent = _doc_probs(batch, wv)
            y = batch.column("y").to_numpy().astype(np.int64)
            dq = np.floor((p - y) * 1e9 + 0.5).astype(np.int64)
            g = np.zeros(d + 1, dtype=np.int64)
            np.add.at(g, flat_idx, flat_cnt * dq[parent])
            g[d] = dq.sum()
            return pa.table({"j": pa.array(np.arange(d + 1, dtype=np.int64)),
                             "g": pa.array(g)})

        # int64 sums: bit-identical under any partitioning, either path
        g = _sum_partials(feats.map_batches(grad_partial,
                                            batch_format="pyarrow"),
                          d, small).astype(np.float64)
        w = w - lr * (g / 1e9) / max(n_docs, 1)
    return w


def quality_classifier_report(docs: ray.data.Dataset,
                              d: int = QUALITY_DIM, epochs: int = 8,
                              lr: float = 0.5,
                              n_docs: int | None = None) -> pa.Table:
    """End-to-end: featurize → train → score → per-source report
    (source, n_docs, n_label_pass, mean_score_ppm, n_model_pass) —
    n_model_pass counts docs the trained model scores ≥ 0.5."""
    from ray.data.aggregate import Sum

    feats = featurize_quality(docs, d=d)
    if n_docs is None:
        n_docs = feats.count()
    w = train_quality_lr(feats, n_docs, d=d, epochs=epochs, lr=lr)
    ref = ray.put(w)

    def score_partial(batch: pa.Table, _ref=ref) -> pa.Table:
        from ..state.broadcast import fetch

        wv = fetch(_ref)
        p, _, _, _ = _doc_probs(batch, wv)
        sq = np.floor(p * 1e6 + 0.5).astype(np.int64)
        return pa.table({
            "source": batch.column("source"),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
            "n_label_pass": pa.array(
                batch.column("y").to_numpy().astype(np.int64)),
            "sum_ppm": pa.array(sq),
            "n_model_pass": pa.array((sq >= 500_000).astype(np.int64)),
        })

    out = (feats.map_batches(score_partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n", alias_name="n_docs"),
                      Sum("n_label_pass", alias_name="n_label_pass"),
                      Sum("sum_ppm", alias_name="sum_ppm"),
                      Sum("n_model_pass", alias_name="n_model_pass"))
           .to_pandas().sort_values("source").reset_index(drop=True))
    for c in ("n_docs", "n_label_pass", "sum_ppm", "n_model_pass"):
        out[c] = out[c].astype("int64")
    out["mean_score_ppm"] = (out["sum_ppm"] // out["n_docs"]).astype("int64")
    return pd_to_arrow(
        out[["source", "n_docs", "n_label_pass", "mean_score_ppm",
             "n_model_pass"]])
