"""Size-gated operators pick a broadcast/driver-side branch at test
scale and a distributed branch at corpus scale — which means the
DISTRIBUTED branch (the one that actually runs at 100 TB) would go
untested unless forced.  These tests force each fallback via its gate
constant and pin bit-equality against the small-scale branch, plus
cross-algorithm and partition-invariance gates for the round-5 graph
operators."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _pairs_df(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_ngram_pairs_join_path_matches_broadcast(ray_session, monkeypatch):
    """ngram_jaccard_pairs: the distributed rehydration-join branch
    (corpus scale) must emit exactly the broadcast-verify branch's
    pairs."""
    import ray.data as rd

    from stanford_re_ray.functions import dedup

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    fast = _pairs_df(dedup.ngram_jaccard_pairs(docs, threshold=0.3))
    monkeypatch.setattr(dedup, "BROADCAST_CAND_LIMIT", 0)
    slow = _pairs_df(dedup.ngram_jaccard_pairs(docs, threshold=0.3))
    pd.testing.assert_frame_equal(fast, slow, check_exact=True)
    assert len(fast) > 0


def test_quality_lr_groupby_path_matches_driver_sum(ray_session):
    """train_quality_lr: the distributed per-epoch gradient groupby
    (corpus scale) must produce bit-identical weights to the
    driver-side int64 partial sum."""
    import ray.data as rd

    from stanford_re_ray.functions import quality_model as qm

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text", "source"]) \
        .repartition(5)
    feats = qm.featurize_quality(docs)
    n = feats.count()
    w_fast = qm.train_quality_lr(feats, n, epochs=3)

    class TinyBlocks:
        """Proxy forcing the groupby branch without changing data."""

        def __init__(self, inner):
            self._inner = inner

        def num_blocks(self):
            return 10_000_000

        def __getattr__(self, name):
            return getattr(self._inner, name)

    w_slow = qm.train_quality_lr(TinyBlocks(feats), n, epochs=3)
    np.testing.assert_array_equal(w_fast, w_slow)


def test_cc_pointer_doubling_matches_plain_cc(ray_session):
    """On a graph where fixed-round pointer doubling reaches its
    fixpoint, it and both plans of ``connected_components`` (driver
    union-find, and distributed doubling to convergence with the
    broadcast gate at 0) must agree exactly with the true components."""
    import ray.data as rd

    from stanford_re_ray.functions import dedup
    from stanford_re_ray.pipelines.graph_ops import cc_pointer_doubling

    rng = np.random.RandomState(7)
    # 40 clusters of 6 nodes, random intra-cluster trees
    src, dst = [], []
    for c in range(40):
        base = c * 6
        for v in range(1, 6):
            src.append(base + v)
            dst.append(base + rng.randint(0, v))
    edges = rd.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64())})).repartition(4)

    ptr = cc_pointer_doubling(edges, n_rounds=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    pairs = edges.map_batches(
        lambda t: pa.table({"doc_a": t.column("src"),
                            "doc_b": t.column("dst")}),
        batch_format="pyarrow")

    def cc() -> pd.DataFrame:
        return dedup.connected_components(pairs, max_rounds=12) \
            .to_pandas().rename(columns={"doc_id": "node"}) \
            .sort_values("node").reset_index(drop=True)

    local = cc()
    old = dedup.BROADCAST_LOSER_LIMIT
    try:
        dedup.BROADCAST_LOSER_LIMIT = 0
        dist = cc()
    finally:
        dedup.BROADCAST_LOSER_LIMIT = old
    truth = (ptr["node"].to_numpy() // 6) * 6
    np.testing.assert_array_equal(ptr["component"].to_numpy(), truth)
    for plan in (local, dist):
        pd.testing.assert_frame_equal(
            ptr, plan[["node", "component"]], check_dtype=False)


@pytest.mark.parametrize("parts", [3, 11])
def test_label_propagation_partition_invariant(ray_session, parts):
    """LPA labels must be identical under any input partitioning (the
    mode reduce ships through a hash-bucket shuffle; ties break by
    value, never by arrival order)."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import label_propagation

    rng = np.random.RandomState(3)
    src = rng.randint(0, 300, 1500).astype(np.int64)
    dst = rng.randint(0, 300, 1500).astype(np.int64)
    base = rd.from_arrow(pa.table({"src": pa.array(src),
                                   "dst": pa.array(dst)}))
    ref = label_propagation(base.repartition(2), n_rounds=3) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    got = label_propagation(base.repartition(parts), n_rounds=3) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(ref, got, check_exact=True)


def test_power_iteration_is_eigenvector(ray_session):
    """q232's loading vector must satisfy G v ≈ λ v on the de-quantized
    Gram (the defining property, independent of the oracle)."""
    from stanford_re_ray.pipelines.analytics import q232_power_iteration

    out = q232_power_iteration(SF).to_pandas()
    v = out["loading"].to_numpy(np.float64)
    lam = float(out["eigenvalue"].iloc[0])
    # rebuild G the same way the query does
    from stanford_re_ray.functions.clustering import embedding_moments
    import ray.data as rd

    emb = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    mom = embedding_moments(emb, dim=64).to_pandas()
    mom = mom[(mom["i"] >= 0) & (mom["j"] >= 0)]
    G = np.zeros((64, 64))
    G[mom["i"], mom["j"]] = mom["sxy"] / 1e12
    G[mom["j"], mom["i"]] = mom["sxy"] / 1e12
    # the embedding table is near-isotropic (lambda2/lambda1 ~ 0.93), so
    # 20 fixed-depth iterations give an APPROXIMATE dominant direction —
    # the conformance gate pins the exact synchronized trajectory; this
    # gate pins the math: the Rayleigh quotient must sit within 1% of
    # the true top eigenvalue and the residual within the measured
    # partial-convergence envelope
    resid = np.linalg.norm(G @ v - lam * v) / max(abs(lam), 1e-9)
    assert resid < 0.08, resid
    # Rayleigh quotient of any unit vector is ≤ lambda1, and after 20
    # iterations it must have climbed well clear of the bulk spectrum
    ev = np.linalg.eigvalsh(G)
    lam1 = float(ev[-1])
    assert lam <= lam1 * 1.001, (lam, lam1)
    assert lam >= 0.9 * lam1, (lam, lam1)
    assert lam >= float(ev[-2]) * 0.999, (lam, float(ev[-2]))
