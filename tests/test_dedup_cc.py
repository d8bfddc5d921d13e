"""Near-dup clustering: connected components over verified pairs, and the
full exact/minhash dedup chain on a corpus with planted duplicates."""

import pyarrow as pa
import pytest


def test_connected_components(ray_session):
    import ray.data as rd

    from stanford_re_ray.functions.dedup import connected_components

    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([1, 2, 5, 7], pa.int64()),
        "doc_b": pa.array([2, 3, 6, 8], pa.int64()),
    }))
    out = connected_components(pairs).to_pandas()
    comp = dict(zip(out["doc_id"], out["component"]))
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[5] == comp[6] == 5
    assert comp[7] == comp[8] == 7


def _long_chain():
    """A 40-hop chain over ids 2^60 + i, visited in a shuffled order so
    the min id sits mid-chain, plus a disjoint pair; and its answer."""
    import numpy as np

    base = 1 << 60
    order = np.random.RandomState(11).permutation(41) + base
    a = list(order[:-1]) + [base + 100]
    b = list(order[1:]) + [base + 101]
    truth = {int(v): base for v in order}
    truth.update({base + 100: base + 100, base + 101: base + 100})
    return pa.table({"doc_a": pa.array(a, pa.int64()),
                     "doc_b": pa.array(b, pa.int64())}), truth


def _components_at_gate(pairs, gate, **kw):
    from stanford_re_ray.functions import dedup

    old = dedup.BROADCAST_LOSER_LIMIT
    try:
        dedup.BROADCAST_LOSER_LIMIT = gate
        out = dedup.connected_components(pairs, **kw).to_pandas()
    finally:
        dedup.BROADCAST_LOSER_LIMIT = old
    return out


@pytest.mark.parametrize("gate", [5_000_000, 0], ids=["local", "dist"])
def test_connected_components_long_chain_exact(ray_session, gate):
    """Both plans (driver union-find under the broadcast gate, pointer
    doubling above it) give the exact components of a chain whose
    diameter exceeds the default ``max_rounds``, with 64-bit ids."""
    import ray.data as rd

    tbl, truth = _long_chain()
    out = _components_at_gate(rd.from_arrow(tbl), gate)
    assert str(out["doc_id"].dtype) == str(out["component"].dtype) == "int64"
    assert dict(zip(out["doc_id"].tolist(),
                    out["component"].tolist())) == truth


def test_connected_components_round_cap_raises(ray_session):
    """The distributed plan raises when labels still change at
    ``max_rounds`` rather than return split components."""
    import ray.data as rd

    tbl, _ = _long_chain()
    with pytest.raises(RuntimeError, match="max_rounds=1"):
        _components_at_gate(rd.from_arrow(tbl), 0, max_rounds=1)


def test_union_find_matches_bfs():
    """The driver union-find equals a plain BFS labelling (component =
    min id) on random multigraphs with 64-bit ids."""
    import numpy as np

    from stanford_re_ray.functions.dedup import _union_find

    rng = np.random.RandomState(5)
    for _ in range(200):
        n, m = rng.randint(1, 60), rng.randint(0, 90)
        a = rng.randint(0, n, m).astype(np.int64) + (1 << 60)
        b = rng.randint(0, n, m).astype(np.int64) + (1 << 60)
        keep = a != b
        adj: dict = {}
        for x, y in zip(a[keep].tolist(), b[keep].tolist()):
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        truth: dict = {}
        for s in sorted(adj):
            if s in truth:
                continue
            truth[s], stack = s, [s]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in truth:
                        truth[v] = s
                        stack.append(v)
        out = _union_find(a[keep], b[keep])
        assert dict(zip(out.column("doc_id").to_pylist(),
                        out.column("component").to_pylist())) == truth


def test_minhash_finds_planted_near_dups(ray_session):
    import ray.data as rd

    from stanford_re_ray.functions.dedup import (jaccard,
                                                 ngram_jaccard_pairs)

    base = ("the quick brown fox jumps over the lazy dog while the band "
            "plays a long tune about data pipelines and shuffles at scale "
            "with deterministic hashing everywhere in the engine")
    near = base.replace("lazy", "sleepy")
    other = ("completely different content about cooking pasta with basil "
             "tomatoes olive oil and garlic in a small kitchen on sunday "
             "afternoon with friends and family around the table eating")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [base, near, other, base],
    }))
    pairs = ngram_jaccard_pairs(docs, threshold=0.5).to_pandas()
    got = {(r.doc_a, r.doc_b) for r in pairs.itertuples()}
    assert (1, 4) in got          # exact dup
    assert (1, 2) in got or (2, 4) in got   # near dup
    assert not any(3 in p for p in got)     # unrelated doc untouched
    assert jaccard(base, near) > 0.5


def test_ngram_broadcast_verify_empty_doc_set(ray_session, monkeypatch):
    """The broadcast verify must drop every candidate pair when the
    pruned doc set it receives is empty, not index an empty id array."""
    import ray.data as rd

    from stanford_re_ray.functions import relational
    from stanford_re_ray.functions.dedup import ngram_jaccard_pairs

    text = "the same sentence about shuffles repeated in two documents"
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                                   "text": [text, text]}))
    monkeypatch.setattr(relational, "_bloom_prune_probe",
                        lambda left, right, on: left.limit(0))
    assert ngram_jaccard_pairs(docs, threshold=0.5).count() == 0


def test_simhash_neardup_pairs(ray_session):
    import ray.data as rd

    from stanford_re_ray.functions.dedup import simhash_neardup_pairs

    base = ("the quick brown fox jumps over the lazy dog while the band "
            "plays a long tune about data pipelines and shuffles at scale")
    near = base.replace("lazy", "sleepy")
    other = ("unrelated recipe text with pasta tomatoes basil and olive oil "
             "cooked slowly in a pan on sunday afternoon with friends")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [base, near, other, base],
    }))
    out = simhash_neardup_pairs(docs, max_hamming=4).to_pandas()
    got = {(r.doc_a, r.doc_b): r.hamming for r in out.itertuples()}
    assert got.get((1, 4)) == 0              # exact dup → hamming 0
    assert (1, 2) in got                     # near dup within 4 bits
    assert not any(3 in k for k in got)      # unrelated doc excluded


def test_dedup_corpus_end_to_end(ray_session):
    """The composed pipeline: planted exact+near dups collapse to one
    representative (min doc_id); unrelated docs all survive — under the
    broadcast gate (driver components, broadcast loser filter) and with
    the gate at 0 (pointer doubling, distributed anti join)."""
    import ray.data as rd

    from stanford_re_ray.functions import dedup

    base = ("the quick brown fox jumps over the lazy dog while the band "
            "plays a long tune about data pipelines and shuffles at scale "
            "with deterministic hashing everywhere in the engine")
    near = base.replace("lazy", "sleepy")
    others = [
        "completely different content about cooking pasta with basil "
        "tomatoes olive oil and garlic in a small kitchen on sunday",
        "an unrelated essay on mountain hiking trails maps compasses "
        "weather layers boots and the quiet joy of early starts",
        "financial report third quarter revenue margins guidance capital "
        "expenditure headcount and currency headwinds discussed at length",
    ]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": [base, near, base] + others[:3],
    }))
    for gate in (dedup.BROADCAST_LOSER_LIMIT, 0):
        old = dedup.BROADCAST_LOSER_LIMIT
        try:
            dedup.BROADCAST_LOSER_LIMIT = gate
            kept = sorted(dedup.dedup_corpus(docs, threshold=0.5)
                          .to_pandas()["doc_id"])
        finally:
            dedup.BROADCAST_LOSER_LIMIT = old
        # cluster {1,2,3} -> representative 1; the three distinct docs
        # survive
        assert kept == [1, 4, 5, 6], gate


def test_embedding_neardup_broadcast_matches_join_path(ray_session):
    """The size-gated broadcast verify (vectorized row-gather cosine,
    dedupe after verification) must return exactly the distributed
    rehydration-join path's pairs — same ids, same 6-dp cosines."""
    import pandas as pd
    import ray.data as rd

    from stanford_re_ray.functions.dedup import embedding_neardup_pairs

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])

    def canon(df):
        return (df.sort_values(["vec_a", "vec_b"])
                .reset_index(drop=True)[["vec_a", "vec_b", "cosine"]])

    via_broadcast = canon(
        embedding_neardup_pairs(emb, threshold=0.4).to_pandas())
    via_joins = canon(
        embedding_neardup_pairs(emb, threshold=0.4,
                                broadcast_limit=0).to_pandas())
    assert len(via_broadcast) > 0          # fixture plants true pairs
    pd.testing.assert_frame_equal(via_broadcast, via_joins,
                                  check_exact=True)


def test_incremental_dedup_bloom_prefilter(ray_session):
    """incremental_dedup must (a) equal the plain set-difference
    semantics exactly and (b) actually short-circuit: the Bloom hit set
    sent to the exact anti join must contain every true duplicate and
    be far smaller than the shard."""
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.dedup import incremental_dedup
    from stanford_re_ray.functions.sketch import (BLOOM_K, _bloom_bits,
                                                  bloom_build)

    ref_texts = [f"reference document number {i} with unique tail {i*7}"
                 for i in range(200)]
    # 30 true dups of reference content + 170 novel docs
    new_texts = [ref_texts[i] for i in range(30)] + [
        f"fresh never-seen document {i} tail {i*13}" for i in range(170)]
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(1000, 1200), pa.int64()),
        "text": pa.array(new_texts)}))
    ref = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(200), pa.int64()),
        "text": pa.array(ref_texts)}))

    kept = sorted(r["doc_id"]
                  for r in incremental_dedup(new, ref).take_all())
    expected = sorted(1000 + i for i, t in enumerate(new_texts)
                      if t not in set(ref_texts))
    assert kept == expected

    # the prefilter story: true dups all hit the bloom; novel docs
    # mostly miss (false-positive rate at 200 keys / 4096 bits / k=3
    # is well under 5%)
    import hashlib

    def key(t):
        return hashlib.sha1(t.encode()).hexdigest()

    bm = bloom_build(
        ref.map_batches(lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "key_sha1": pa.array([key(t) for t in
                                  b.column("text").to_pylist()])}),
            batch_format="pyarrow"),
        "key_sha1")
    hits = [t for t in new_texts
            if all(bm[b] for b in _bloom_bits(key(t), BLOOM_K, len(bm)))]
    assert len(hits) >= 30           # no false negatives
    assert len(hits) <= 30 + 20      # prefilter is actually selective
