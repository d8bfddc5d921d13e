"""The learned quality filter (functions/quality_model.py) is rows-only
on the driver scoreboard (iterative GD has no SQL twin), so this gate
pins the ENTIRE distributed computation — featurize → 8 GD epochs →
score → per-source report — against an independent serial numpy
re-implementation, exact to the integer: every cross-partition reduce in
the engine is a quantized int64 sum, so the distributed result must be
bit-equal to the serial one under any partitioning."""

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIRS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]

D = 512
EPOCHS = 8
LR = 0.5


def _serial_report(sf_dir: str) -> pd.DataFrame:
    from stanford_re_ray.functions.corpus import _tokenize_column
    from stanford_re_ray.functions.textstats import gopher_quality_batch

    tbl = pq.read_table(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text", "source"])
    parent, flat = _tokenize_column(tbl.column("text"))
    p = np.asarray(parent, dtype=np.int64)
    hashed = np.array([zlib.crc32(t.encode()) % D
                       for t in flat.to_pylist()], dtype=np.int64)
    n = tbl.num_rows
    y = np.asarray(gopher_quality_batch(tbl).column("keep"),
                   dtype=np.int64)

    # per-doc (idx, cnt) sparse vectors, then flattened CSR arrays with
    # UNIQUE (doc, bucket) entries — mirrors the engine's np.unique step
    flat_idx_l, flat_cnt_l, flat_parent_l = [], [], []
    for i in range(n):
        hi = hashed[p == i]
        if len(hi):
            u, c = np.unique(hi, return_counts=True)
            flat_idx_l.append(u)
            flat_cnt_l.append(c)
            flat_parent_l.append(np.full(len(u), i, np.int64))
    fi = np.concatenate(flat_idx_l)
    fc = np.concatenate(flat_cnt_l)
    fp = np.concatenate(flat_parent_l)

    w = np.zeros(D + 1, dtype=np.float64)
    for _ in range(EPOCHS):
        z = np.full(n, w[-1], dtype=np.float64)
        np.add.at(z, fp, w[fi] * fc)
        prob = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
        dq = np.floor((prob - y) * 1e9 + 0.5).astype(np.int64)
        g = np.zeros(D + 1, dtype=np.int64)
        np.add.at(g, fi, fc * dq[fp])
        g[D] = dq.sum()
        w = w - LR * (g.astype(np.float64) / 1e9) / n

    z = np.full(n, w[-1], dtype=np.float64)
    np.add.at(z, fp, w[fi] * fc)
    prob = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    sq = np.floor(prob * 1e6 + 0.5).astype(np.int64)
    df = pd.DataFrame({"source": tbl.column("source").to_pylist(),
                       "y": y, "sq": sq})
    rep = df.groupby("source", sort=True).agg(
        n_docs=("sq", "size"), n_label_pass=("y", "sum"),
        sum_ppm=("sq", "sum"),
        n_model_pass=("sq", lambda s: int((s >= 500_000).sum())))
    rep = rep.reset_index()
    rep["mean_score_ppm"] = rep["sum_ppm"] // rep["n_docs"]
    for c in ("n_docs", "n_label_pass", "mean_score_ppm", "n_model_pass"):
        rep[c] = rep[c].astype("int64")
    return rep[["source", "n_docs", "n_label_pass", "mean_score_ppm",
                "n_model_pass"]].reset_index(drop=True)


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_quality_classifier_matches_serial_twin(ray_session, sf_dir):
    import ray.data as rd

    from stanford_re_ray.functions.quality_model import (
        quality_classifier_report)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "source"]) \
        .repartition(7)   # deliberately odd partitioning: the int-sum
    #                       reduces must make the result partition-proof
    got = quality_classifier_report(docs, d=D, epochs=EPOCHS,
                                    lr=LR).to_pandas()
    want = _serial_report(sf_dir)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_exact=True)


def test_quality_classifier_labels_nontrivial(ray_session):
    """The weak label must have both classes at sf0.01 — otherwise the
    classifier gate would pass vacuously on a degenerate fit."""
    from stanford_re_ray.functions.textstats import gopher_quality_batch

    tbl = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                        columns=["doc_id", "text"])
    keep = np.asarray(gopher_quality_batch(tbl).column("keep"))
    assert 0 < keep.sum() < len(keep)


def test_gradient_sums_that_could_wrap_raise(ray_session):
    """One document with a count of 2^40 makes ``count × dq`` pass
    2^63 - 1 (dq = 5e8 at the first step): training must raise instead
    of returning weights from wrapped int64 sums."""
    import ray.data as rd

    from stanford_re_ray.functions.quality_model import train_quality_lr

    feats = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "source": pa.array(["web"]),
        "y": pa.array([0], pa.int64()),
        "idx": pa.array([[3]], pa.list_(pa.int64())),
        "cnt": pa.array([[1 << 40]], pa.list_(pa.int64())),
    }))
    with pytest.raises(OverflowError):
        train_quality_lr(feats, 1, d=8, epochs=1)
