"""Scale-path parity tests: the distributed (join-based) variants must
produce exactly the rows of the broadcast/driver-side variants, and the
PipelineConfig knobs must actually reach the stages."""

import numpy as np
import pyarrow as pa
import pytest


def _triples_table() -> pa.Table:
    subj = ["Ann Smith", "Ann Smith", "Bob Jones", "Acme Corp", "Acme Corp"]
    subj_t = ["PERSON", "PERSON", "PERSON", "ORGANIZATION", "ORGANIZATION"]
    pred = ["per:employee_of", "per:spouse", "per:employee_of",
            "org:top_members/employees", "org:top_members/employees"]
    obj = ["Acme Corp", "Bob Jones", "Acme Corp", "Ann Smith", "Bob Jones"]
    obj_t = ["ORGANIZATION", "PERSON", "ORGANIZATION", "PERSON", "PERSON"]
    n = len(subj)
    return pa.table({
        "subj": pa.array(subj, pa.string()),
        "subj_type": pa.array(subj_t, pa.string()),
        "pred": pa.array(pred, pa.string()),
        "obj": pa.array(obj, pa.string()),
        "obj_type": pa.array(obj_t, pa.string()),
        "score": pa.array([0.9, 0.8, 0.7, 0.95, 0.6], pa.float64()),
        "doc_id": pa.array([f"d{i}" for i in range(n)], pa.string()),
        "sent_idx": pa.array(list(range(n)), pa.int32()),
    })


def test_edges_join_matches_broadcast(ray_session):
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import (dataset_to_table, edges_stage,
                                              edges_stage_join,
                                              name_map_from_nodes,
                                              nodes_stage)

    triples = rd.from_arrow(_triples_table())
    nodes = nodes_stage(triples).materialize()
    name_map = name_map_from_nodes(dataset_to_table(nodes))

    key = ["src_id", "pred", "dst_id"]
    e_bcast = (dataset_to_table(edges_stage(triples, name_map)).to_pandas()
               .sort_values(key).reset_index(drop=True))
    e_join = (dataset_to_table(edges_stage_join(triples, nodes)).to_pandas()
              .sort_values(key).reset_index(drop=True))
    assert list(e_bcast.columns) == list(e_join.columns)
    assert e_bcast.equals(e_join[e_bcast.columns])
    assert len(e_join) > 0


def test_config_knobs_reach_stages(ray_session):
    """max_pair_distance=0 must kill every candidate pair → zero triples;
    defaults must keep producing them (proves the knob is wired through
    run_kg_pipeline, not silently ignored)."""
    import ray.data as rd

    from stanford_re_ray.config import PipelineConfig
    from stanford_re_ray.fixtures import gen_corpus
    from stanford_re_ray.pipelines.kg import run_kg_pipeline
    from stanford_re_ray.pipelines.train import train_model

    train = gen_corpus(60, per_lo=0, per_hi=60, org_lo=0, org_hi=30)
    pages = rd.from_arrow(train.pages).repartition(2)
    model = train_model(pages, train.kb, dicts=train.dicts,
                        clusters=train.clusters, negative_subsample=1.0,
                        epochs=40)

    base = run_kg_pipeline(
        rd.from_arrow(train.pages), model, PipelineConfig(),
        dicts=train.dicts, clusters=train.clusters)
    assert base["triples"].count() > 0

    strangled = run_kg_pipeline(
        rd.from_arrow(train.pages), model,
        PipelineConfig(max_pair_distance=0),
        dicts=train.dicts, clusters=train.clusters)
    assert strangled["triples"].count() == 0

    short_sent = run_kg_pipeline(
        rd.from_arrow(train.pages), model,
        PipelineConfig(max_sent_tokens=2),
        dicts=train.dicts, clusters=train.clusters)
    assert short_sent["triples"].count() == 0

    high_bar = run_kg_pipeline(
        rd.from_arrow(train.pages), model,
        PipelineConfig(keep_threshold=1.0),
        dicts=train.dicts, clusters=train.clusters)
    assert high_bar["triples"].count() == 0


def test_mention_scorer_trailing_empty_features(ray_session):
    """A batch whose LAST row has an empty feature list must not crash the
    vectorized reduceat path (latent bug flagged in round-1 advice)."""
    import ray

    from stanford_re_ray.relations import RELATION_NAMES
    from stanford_re_ray.stages.classify import (D_FEATURES, LRModel,
                                                 MentionScorer)

    R = len(RELATION_NAMES)
    w = np.zeros((R, D_FEATURES), dtype=np.float32)
    w[:, 5] = 4.0
    model = LRModel(w, np.zeros(R, dtype=np.float32))
    batch = pa.table({
        "subj": pa.array(["Ann Smith", "Bo Kim"], pa.string()),
        "subj_type": pa.array(["PERSON", "PERSON"], pa.string()),
        "obj": pa.array(["Acme Corp", "Big Org"], pa.string()),
        "obj_type": pa.array(["ORGANIZATION", "ORGANIZATION"], pa.string()),
        "doc_id": pa.array(["d1", "d2"], pa.string()),
        "sent_idx": pa.array([0, 0], pa.int32()),
        "subj_begin": pa.array([0, 0], pa.int32()),
        "subj_end": pa.array([2, 2], pa.int32()),
        "obj_begin": pa.array([3, 3], pa.int32()),
        "obj_end": pa.array([5, 5], pa.int32()),
        "features": pa.array([[5, 6], []], pa.list_(pa.int64())),
    })
    out = MentionScorer(ray.put(model))(batch)
    # row 1 (empty features) scores 0 → dropped; row 0 survives
    assert out.num_rows == 1
    assert out.column("subj").to_pylist() == ["Ann Smith"]


def test_connected_components_no_driver_collect(ray_session):
    """With the broadcast gate at 0 the pairs never reach the driver:
    distributed pointer doubling converges on a chain (needs >1 round)
    and on disjoint components."""
    import ray.data as rd

    from stanford_re_ray.functions import dedup

    # chain 1-2-3-4-5 forces multi-round propagation; 10-11 is disjoint
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([4, 3, 2, 1, 10], pa.int64()),
        "doc_b": pa.array([5, 4, 3, 2, 11], pa.int64()),
    }))
    old = dedup.BROADCAST_LOSER_LIMIT
    try:
        dedup.BROADCAST_LOSER_LIMIT = 0
        out = dedup.connected_components(pairs).to_pandas()
    finally:
        dedup.BROADCAST_LOSER_LIMIT = old
    comp = dict(zip(out["doc_id"], out["component"]))
    assert comp[1] == comp[2] == comp[3] == comp[4] == comp[5] == 1
    assert comp[10] == comp[11] == 10


def test_q02_hashjoin_path_matches_broadcast(ray_session):
    """Above BROADCAST_DIM_LIMIT q02 switches to the distributed hash join;
    both paths must produce identical rows."""
    from stanford_re_ray.pipelines import analytics as A

    sf = "/root/testdata/sf0.001"

    def norm(t):
        df = t.to_pandas()
        return (df[sorted(df.columns)].round(6)
                .sort_values(sorted(df.columns)).reset_index(drop=True))

    bcast = norm(A.q02_revenue_by_nation(sf))
    old = A.BROADCAST_DIM_LIMIT
    try:
        A.BROADCAST_DIM_LIMIT = 0
        dist = norm(A.q02_revenue_by_nation(sf))
    finally:
        A.BROADCAST_DIM_LIMIT = old
    assert bcast.equals(dist)


def test_hash_join_skew_salting(ray_session):
    """salt_keys spreads a hot key's left rows over k sub-buckets and
    replicates the right side — result must equal the unsalted join."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([7] * 50 + [1, 2, 3], pa.int64()),
        "lv": pa.array(list(range(53)), pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([7, 7, 1, 4], pa.int64()),
        "rv": pa.array([100, 200, 300, 400], pa.int64()),
    }))

    def norm(ds):
        df = ds.to_pandas()
        return (df[sorted(df.columns)]
                .sort_values(sorted(df.columns)).reset_index(drop=True))

    plain = norm(hash_join(left, right, on="k"))
    salted = norm(hash_join(left, right, on="k", salt_keys={7: 4}))
    assert plain.equals(salted)
    assert len(salted) == 100 + 1  # 50 hot-left x 2 right + key 1

    plain_l = norm(hash_join(left, right, on="k", how="left"))
    salted_l = norm(hash_join(left, right, on="k", how="left",
                              salt_keys={7: 4}))
    assert plain_l.equals(salted_l)

    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="semi", salt_keys={7: 2})


def test_ivf_pruned_matches_inline(ray_session, tmp_path):
    """ivf_build + ivf_topk_pruned (storage-level partition pruning) must
    return the same ids as the inline ivf_topk on the same data."""
    import ray.data as rd

    from stanford_re_ray.functions.similarity import (ivf_build, ivf_topk,
                                                      ivf_topk_pruned)
    from stanford_re_ray.pipelines.analytics import _query_vector

    sf = "/root/testdata/sf0.001"
    emb = rd.read_parquet(f"{sf}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    q = _query_vector(sf)
    inline = ivf_topk(emb, q, k=10)
    idx_dir = str(tmp_path / "ivf")
    ivf_build(emb, idx_dir)
    pruned = ivf_topk_pruned(idx_dir, q, k=10)
    assert pruned.column("vec_id").to_pylist() == \
        inline.column("vec_id").to_pylist()
    # pruning is real: fewer partition dirs read than exist
    import os

    parts = [d for d in os.listdir(idx_dir) if d.startswith("ivf_list=")]
    assert len(parts) > 4  # more lists on disk than the 4 probed


def test_empty_corpus_pipeline(ray_session):
    """Zero extracted triples must flow through S6-S8 without crashing
    (regression: the driver-side small-graph path used to KeyError on the
    column-less empty table)."""
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.fixtures import gen_corpus
    from stanford_re_ray.pipelines.kg import run_kg_pipeline
    from stanford_re_ray.pipelines.train import train_model

    train = gen_corpus(30, per_lo=0, per_hi=30, org_lo=0, org_hi=15)
    model = train_model(rd.from_arrow(train.pages).repartition(2), train.kb,
                        dicts=train.dicts, clusters=train.clusters,
                        negative_subsample=1.0, epochs=20)
    empty_pages = rd.from_arrow(pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("us")),
        "html": pa.array([], pa.binary()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
    }))
    res = run_kg_pipeline(empty_pages, model, dicts=train.dicts,
                          clusters=train.clusters)
    assert res["triples"].count() == 0
    assert res["nodes"].count() == 0
    assert res["edges"].count() == 0


def test_hash_join_empty_sides(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                   "lv": pa.array([10, 20], pa.int64())}))
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "rv": pa.array([], pa.int64())}))
    assert hash_join(left, empty, on="k").count() == 0
    assert hash_join(left, empty, on="k", how="left").count() == 2
    assert hash_join(left, empty, on="k", how="anti").count() == 2
    assert hash_join(empty.map_batches(
        lambda b: b.rename_columns(["k", "lv"]), batch_format="pyarrow"),
        left.map_batches(lambda b: b.rename_columns(["k", "rv"]),
                         batch_format="pyarrow"),
        on="k").count() == 0


def test_hash_join_degenerate_outer_left_schema(ray_session):
    """An empty-SCHEMA left (e.g. a fully-filtered upstream) with
    ``left_schema`` passed takes the normal outer path: the output
    carries BOTH sides' columns (left ones null), so downstream
    fillna()/select() callers don't KeyError on degenerate inputs."""
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join

    empty_left = rd.from_items([])           # schema() is None
    assert empty_left.schema() is None
    right = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "rv": pa.array([10, 20], pa.int64())}))
    lsch = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    out = hash_join(empty_left, right, on="k", how="outer",
                    left_schema=lsch).to_pandas()
    assert sorted(out.columns) == ["k", "lv", "rv"]
    assert len(out) == 2
    assert out["lv"].isna().all()
    # without the hatch the documented asymmetry applies: right verbatim
    out2 = hash_join(rd.from_items([]), right, on="k", how="outer") \
        .to_pandas()
    assert sorted(out2.columns) == ["k", "rv"]


def test_rollup_sum_scale_quantized(ray_session):
    """rollup_sum(scale=) quantizes values to integer units before the
    shuffle (associative reduce) and returns exact sums for
    scale-representable fractions at any partitioning."""
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.relational import rollup_sum

    vals = [0.25, 1.75, 2.5, 3.25, 0.75, 1.25]
    flags = ["a", "a", "a", "b", "b", "b"]
    stat = ["x", "y", "x", "y", "x", "y"]
    ds = rd.from_arrow(pa.table({
        "f": pa.array(flags), "s": pa.array(stat),
        "v": pa.array(vals, pa.float64()),
    })).repartition(3)
    out = rollup_sum(ds, ["f", "s"], "v", scale=100).to_pandas() \
        .sort_values(["f", "s"]).reset_index(drop=True)
    got = {(r.f, r.s): (r.sum_value, r.n_rows) for r in out.itertuples()}
    assert got[("a", "x")] == (2.75, 2)
    assert got[("a", "y")] == (1.75, 1)
    assert got[("a", "ALL")] == (4.5, 3)
    assert got[("b", "ALL")] == (5.25, 3)
    assert got[("ALL", "ALL")] == (9.75, 6)
    assert len(out) == 7   # 4 full + 2 flag subtotals + grand total


def test_cube_sum_grouping_sets(ray_session):
    """cube_sum adds the (ALL, s) grouping set rollup lacks, agrees with
    rollup on the shared sets, and refuses key values that collide with
    the all_token marker."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from stanford_re_ray.functions.relational import cube_sum

    vals = [0.25, 1.75, 2.5, 3.25, 0.75, 1.25]
    flags = ["a", "a", "a", "b", "b", "b"]
    stat = ["x", "y", "x", "y", "x", "y"]
    ds = rd.from_arrow(pa.table({
        "f": pa.array(flags), "s": pa.array(stat),
        "v": pa.array(vals, pa.float64()),
    })).repartition(3)
    out = cube_sum(ds, ["f", "s"], "v", scale=100).to_pandas() \
        .sort_values(["f", "s"]).reset_index(drop=True)
    got = {(r.f, r.s): (r.sum_value, r.n_rows) for r in out.itertuples()}
    assert got[("a", "x")] == (2.75, 2)
    assert got[("a", "ALL")] == (4.5, 3)
    assert got[("ALL", "x")] == (3.5, 3)    # the CUBE-only set
    assert got[("ALL", "y")] == (6.25, 3)
    assert got[("ALL", "ALL")] == (9.75, 6)
    assert len(out) == 9   # 4 full + 2 flag + 2 status + grand total

    bad = rd.from_arrow(pa.table({
        "f": pa.array(["ALL"]), "s": pa.array(["x"]),
        "v": pa.array([1.0], pa.float64()),
    }))
    with pytest.raises(Exception, match="all_token"):
        cube_sum(bad, ["f", "s"], "v", scale=100).materialize()


def test_detect_hot_keys_and_auto_salt(ray_session):
    """detect_hot_keys finds a key holding 50% of rows via the sampled
    pre-pass; auto_salt joins match the unsalted join; and the salted
    routing shrinks the hot key's largest bucket by ~k."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import (detect_hot_keys,
                                                      hash_join)

    n = 4000
    hot = ["hot"] * (n // 2)
    cold = [f"k{i}" for i in range(n // 2)]
    left = rd.from_arrow(pa.table({
        "k": pa.array(hot + cold, pa.string()),
        "lv": pa.array(list(range(n)), pa.int64()),
    })).repartition(8)
    right = rd.from_arrow(pa.table({
        "k": pa.array(["hot", "k1", "k2"], pa.string()),
        "rv": pa.array([1, 2, 3], pa.int64()),
    }))

    found = detect_hot_keys(left, "k", threshold=0.05)
    assert ("hot",) in found
    assert found[("hot",)] >= 2           # split factor scales with freq
    assert len(found) == 1                # cold keys (each ~0.025%) absent

    def norm(ds):
        df = ds.to_pandas()
        return (df[sorted(df.columns)]
                .sort_values(sorted(df.columns)).reset_index(drop=True))

    plain = norm(hash_join(left, right, on="k"))
    auto = norm(hash_join(left, right, on="k", auto_salt=True))
    assert plain.equals(auto)
    assert len(plain) == n // 2 + 2       # hot matches + k1 + k2

    # largest-bucket shrink: with salting, the hot key's left rows spread
    # over k sub-buckets (content-hash of the row), so the max rows any
    # one reduce group sees drops ~k-fold
    k = found[("hot",)]
    explicit = norm(hash_join(left, right, on="k",
                              salt_keys={("hot",): k}))
    assert plain.equals(explicit)

    # the routing itself, on a tagged union batch as hash_join builds it:
    # right-only ``rv`` is null on every left row, and must not collapse
    # the spread into one sub-bucket
    from stanford_re_ray.functions.relational import _route_buckets

    tagged = pa.table({
        "k": pa.array(hot + ["hot"], pa.string()),
        "lv": pa.array(list(range(n // 2)) + [None], pa.int64()),
        "rv": pa.array([None] * (n // 2) + [1], pa.int64()),
        "__side": pa.array(["l"] * (n // 2) + ["r"], pa.string()),
    })
    routed = _route_buckets(tagged, ["k"], 64, {("hot",): k}, k,
                            ["k", "lv"]).to_pandas()
    side = routed.groupby("__side")["__bucket"]
    l_sizes = side.get_group("l").value_counts()
    assert len(l_sizes) == k              # every sub-bucket gets left rows
    assert l_sizes.max() < 2 * (n // 2) / k
    assert set(side.get_group("r")) == set(l_sizes.index)  # replicated


def test_resolve_n_buckets():
    from stanford_re_ray.functions.relational import (MAX_BUCKETS,
                                                      resolve_n_buckets)

    assert resolve_n_buckets(128, 10**9) == 128      # explicit wins
    assert resolve_n_buckets(None, None) == 64       # no info
    assert resolve_n_buckets(None, 1000) == 64       # floor
    assert resolve_n_buckets(None, 100_000_000) == 401
    assert resolve_n_buckets(None, 10**12) == MAX_BUCKETS


def test_asof_join_semantics(ray_session):
    """asof_join: latest right row at or before each left row per key;
    keys missing on the right null-pad; forward direction flips it."""
    import pandas as pd
    import ray.data as rd

    from stanford_re_ray.functions.relational import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "t": pa.array([10, 25, 5, 40, 7], pa.int64()),
        "lv": pa.array(list(range(5)), pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([8, 20, 50], pa.int64()),
        "rv": pa.array([100, 200, 300], pa.int64()),
    }))
    out = (asof_join(left, right, by="k", on="t")
           .to_pandas().sort_values("lv").reset_index(drop=True))
    # lv0 t=10 -> rv 100 (t=8); lv1 t=25 -> rv 200 (t=20); lv2 t=5 -> none
    # lv3 k=2 t=40 -> none (right t=50 is after); lv4 k=3 -> no right key
    assert list(pd.array(out["rv"], dtype="Int64")) == \
        [100, 200, pd.NA, pd.NA, pd.NA]

    fwd = (asof_join(left, right, by="k", on="t", direction="forward")
           .to_pandas().sort_values("lv").reset_index(drop=True))
    # forward: lv0 t=10 -> 200 (t=20); lv1 t=25 -> none; lv2 t=5 -> 100;
    # lv3 t=40 -> 300 (t=50); lv4 -> none
    assert list(pd.array(fwd["rv"], dtype="Int64")) == \
        [200, pd.NA, 100, 300, pd.NA]


def test_grouped_topk_cross_batch(ray_session):
    """The map-side partial keeps per-batch top-k; rows of one key split
    across many blocks must still yield the global per-key top-k with
    deterministic ranks."""
    import numpy as np
    import ray.data as rd

    from stanford_re_ray.functions.relational import grouped_topk

    rng_vals = [(k, v, 100 * k + v) for k in range(5) for v in range(20)]
    tbl = pa.table({
        "k": pa.array([r[0] for r in rng_vals], pa.int64()),
        "v": pa.array([r[1] for r in rng_vals], pa.int64()),
        "id": pa.array([r[2] for r in rng_vals], pa.int64()),
    })
    # many tiny blocks → every key spans many batches
    ds = rd.from_arrow(tbl).repartition(20)
    out = (grouped_topk(ds, key="k", order_by="v", k=3, descending=True,
                        tiebreak=["id"])
           .to_pandas().sort_values(["k", "rank"]).reset_index(drop=True))
    assert len(out) == 15
    for k in range(5):
        g = out[out["k"] == k]
        assert list(g["v"]) == [19, 18, 17]
        assert list(g["rank"]) == [1, 2, 3]
    # ties broken by the tiebreak column, ascending
    dup = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "v": pa.array([5, 5, 5], pa.int64()),
        "id": pa.array([30, 10, 20], pa.int64()),
    })).repartition(3)
    out2 = (grouped_topk(dup, key="k", order_by="v", k=2,
                         tiebreak=["id"]).to_pandas()
            .sort_values("rank").reset_index(drop=True))
    assert list(out2["id"]) == [10, 20]


def test_grouped_topk_keeps_large_nullable_int_keys(ray_session):
    """Distinct int64 keys above 2^53 in a column with a null stay
    distinct groups: each key gets its own k rows (a float64 round trip
    would merge them into one), the null key is one group of its own,
    and the key column stays int64."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import grouped_topk
    from stanford_re_ray.pipelines.kg import dataset_to_table

    base = 1 << 60
    rows = [(base + i, 5 * i + j) for i in range(37) for j in range(5)]
    rows = [rows[(7 * i) % 185] for i in range(185)]   # spread each key
    # five blocks, each with one null key: every block's key column
    # holds a null beside the large keys
    ds = rd.from_arrow([pa.table({
        "k": pa.array([None] + [k for k, _ in rows[o:o + 37]], pa.int64()),
        "v": pa.array([185 + b] + [v for _, v in rows[o:o + 37]],
                      pa.int64())}) for b, o in enumerate(range(0, 185, 37))])
    out = dataset_to_table(grouped_topk(ds, key="k", order_by="v", k=3))
    assert out.schema.field("k").type == pa.int64()
    got = {}
    for k, v, r in zip(*(out.column(c).to_pylist() for c in ("k", "v",
                                                             "rank"))):
        got.setdefault(k, []).append((r, v))
    want = {k: [(1, 5 * j + 4), (2, 5 * j + 3), (3, 5 * j + 2)]
            for j, k in enumerate([base + i for i in range(37)] + [None])}
    assert {k: sorted(g) for k, g in got.items()} == want


def test_asof_join_consistent_int_dtype_across_buckets(ray_session):
    """A fully-matched key and an unmatched key land in different buckets;
    integer right columns must still come back as ONE Arrow integer type
    (nullable), not int64 in one block and float64 in another."""
    import pyarrow as par
    import ray.data as rd

    from stanford_re_ray.functions.relational import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(list(range(40)), pa.int64()),
        "t": pa.array([10] * 40, pa.int64()),
    }))
    # only even keys have right rows -> odd-key buckets produce nulls
    right = rd.from_arrow(pa.table({
        "k": pa.array(list(range(0, 40, 2)), pa.int64()),
        "t": pa.array([5] * 20, pa.int64()),
        "rv": pa.array(list(range(20)), pa.int64()),
    }))
    out = asof_join(left, right, by="k", on="t", n_buckets=8)
    schema = out.schema()
    rv_type = dict(zip(schema.names, schema.types))["rv"]
    assert par.types.is_integer(rv_type), rv_type
    df = out.to_pandas()
    assert df["rv"].notna().sum() == 20 and df["rv"].isna().sum() == 20


def test_kcore_broadcast_matches_join_path(ray_session):
    """kcore's broadcast np.isin peel and the distributed ANTI-join peel
    (forced with broadcast_limit=0) must produce identical cores; both
    must match a serial peeling reference."""
    import collections

    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import kcore

    # deterministic sparse graph: ring + chords + a pendant tree (the
    # tree peels away; the ring and chorded core survive k=2)
    src, dst = [], []
    for i in range(12):                      # 12-cycle: all degree 2
        src.append(i); dst.append((i + 1) % 12)
    for i in (0, 3, 6):                      # chords raise some degrees
        src.append(i); dst.append(i + 5)
    for i in range(12, 20):                  # pendant chain off node 0
        src.append(i - 12 if i == 12 else i - 1); dst.append(i)
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})

    def serial_kcore(k):
        adj = collections.defaultdict(set)
        for a, b in zip(src, dst):
            if a != b:
                adj[a].add(b); adj[b].add(a)
        changed = True
        while changed:
            changed = False
            low = [n for n in adj if len(adj[n]) < k]
            for n in low:
                for m in adj[n]:
                    adj[m].discard(n)
                del adj[n]
                changed = True
        return {n: len(s) for n, s in adj.items()}

    for k in (2, 3):
        want = serial_kcore(k)
        got_b = {r["node"]: r["core_deg"]
                 for r in kcore(rd.from_arrow(edges), k=k).take_all()}
        got_j = {r["node"]: r["core_deg"]
                 for r in kcore(rd.from_arrow(edges), k=k,
                                broadcast_limit=0).take_all()}
        assert got_b == want, (k, got_b, want)
        assert got_j == want, (k, got_j, want)


def test_bfs_distances_broadcast_matches_join_path(ray_session):
    """bfs_distances' broadcast np.isin frontier expansion and the
    distributed SEMI/ANTI-join path (forced with broadcast_limit=0) must
    label identical (node, dist) sets; both must match a serial BFS."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import bfs_distances

    # two components: a 10-node path from seed 0 (distances 0..9, capped
    # by max_hops) and a 4-cycle around seed 20; node 40 isolated
    src = list(range(9)) + [20, 21, 22, 23]
    dst = list(range(1, 10)) + [21, 22, 23, 20]
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})
    seeds, max_hops = [0, 20], 4

    adj = {}
    for a, b in zip(src, dst):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {s: 0 for s in seeds}
    frontier = list(seeds)
    for d in range(1, max_hops + 1):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in want:
                    want[v] = d
                    nxt.append(v)
        frontier = nxt

    for limit in (5_000_000, 0):
        out = bfs_distances(
            rd.from_arrow(edges).repartition(3), seeds=seeds,
            max_hops=max_hops, broadcast_limit=limit).to_pandas()
        got = dict(zip(out["node"], out["dist"]))
        assert got == want, f"broadcast_limit={limit}: {got} != {want}"


def test_set_ops_distinct(ray_session):
    """intersect_distinct/except_distinct match Python set semantics on
    multi-column keys, with duplicates on both sides collapsed."""
    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.relational import (except_distinct,
                                                      intersect_distinct)

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 3, 3, 4], pa.int64()),
        "s": pa.array(["a", "a", "b", "c", "c", "d"]),
    })).repartition(3)
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 3, 5], pa.int64()),
        "s": pa.array(["b", "x", "c", "e"]),
    })).repartition(2)

    inter = intersect_distinct(left, right, on=["k", "s"]).to_pandas()
    got_i = sorted(map(tuple, inter[["k", "s"]].itertuples(index=False)))
    assert got_i == [(2, "b"), (3, "c")]

    exc = except_distinct(left, right, on=["k", "s"]).to_pandas()
    got_e = sorted(map(tuple, exc[["k", "s"]].itertuples(index=False)))
    assert got_e == [(1, "a"), (4, "d")]


def test_knn_join_ivf_parity_and_pruning(ray_session):
    """knn_join_ivf with n_probe == n_lists is bit-identical to the
    exact knn_join; with n_probe < n_lists each query's result equals a
    serial brute-force restricted to its probed lists."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from stanford_re_ray.functions.similarity import (_det_centroids,
                                                      knn_join,
                                                      knn_join_ivf)

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    qids = list(range(8))

    def canon(ds):
        return (ds.to_pandas()[["query_id", "vec_id", "cosine", "rank"]]
                .sort_values(["query_id", "rank"]).reset_index(drop=True))

    exact = canon(knn_join(emb, qids, k=3))
    full = canon(knn_join_ivf(emb, qids, k=3, n_lists=16, n_probe=16))
    pd.testing.assert_frame_equal(exact, full, check_exact=True)

    pruned = canon(knn_join_ivf(emb, qids, k=3, n_lists=16, n_probe=4))

    # serial reference for the pruned semantics
    df = emb.to_pandas()
    vecs = np.array(df["embedding"].to_list(), dtype=np.float64)
    ids = df["vec_id"].to_numpy()
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cents = _det_centroids(vecs.shape[1], 16)
    lists = np.argmax(vn @ cents.T, axis=1)
    rows = []
    for q in qids:
        qv = vn[ids == q][0]
        probe = set(np.argsort(-(cents @ qv))[:4].tolist())
        ok = np.array([i not in qids and lists[j] in probe
                       for j, i in enumerate(ids)])
        sims = vn[ok] @ qv
        vid = ids[ok]
        top = np.lexsort((vid, -sims))[:3]
        for r, t in enumerate(top):
            rows.append((q, int(vid[t]), float(sims[t]), r + 1))
    expected = pd.DataFrame(rows, columns=["query_id", "vec_id",
                                           "cosine", "rank"])
    got = pruned.copy()
    pd.testing.assert_frame_equal(
        got[["query_id", "vec_id", "rank"]],
        expected[["query_id", "vec_id", "rank"]], check_exact=True)
    assert np.allclose(got["cosine"], expected["cosine"], atol=1e-12)


def test_knn_join_ivf_trained_centroids(ray_session):
    """The production path: knn_join_ivf over a kmeans_fit codebook —
    full probe over trained centroids must still equal the exact join
    (pruning structure changes, the guarantee doesn't)."""
    import pandas as pd
    import ray.data as rd

    from stanford_re_ray.functions.clustering import kmeans_fit
    from stanford_re_ray.functions.similarity import knn_join, knn_join_ivf

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    cents, _ = kmeans_fit(emb, k=8, n_iter=1)
    qids = list(range(6))

    def canon(ds):
        return (ds.to_pandas()[["query_id", "vec_id", "rank"]]
                .sort_values(["query_id", "rank"]).reset_index(drop=True))

    exact = canon(knn_join(emb, qids, k=3))
    full = canon(knn_join_ivf(emb, qids, k=3, n_lists=8, n_probe=8,
                              centroids=cents))
    pd.testing.assert_frame_equal(exact, full, check_exact=True)

    pruned = canon(knn_join_ivf(emb, qids, k=3, n_lists=8, n_probe=2,
                                centroids=cents))
    # pruned output keeps the per-query structure: <= k ranked rows
    assert set(pruned["query_id"]) <= set(qids)
    assert (pruned.groupby("query_id")["rank"].max() <= 3).all()


def test_sssp_weighted_broadcast_matches_join_path(ray_session):
    """sssp_weighted's broadcast searchsorted relax and the distributed
    hash_join path (forced with broadcast_limit=0) must produce
    identical (node, cost) tables; both must match a serial hop-bounded
    Bellman-Ford."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import sssp_weighted

    # diamond with a cheap long way round + a separate cycle; node 9
    # reachable only through the cycle, node 40 unreachable
    src = [0, 0, 1, 2, 3, 3, 4, 5, 9]
    dst = [1, 2, 3, 3, 4, 5, 9, 9, 0]
    w = [1, 5, 1, 1, 10, 1, 1, 1, 7]
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "w": pa.array(w, pa.int64())})
    max_hops = 5

    # serial round-synchronous Bellman-Ford (≤ max_hops edges)
    INF = 10 ** 9
    dist = {0: 0}
    for _ in range(max_hops):
        upd = {}
        for a, b, ww in zip(src, dst, w):
            if a in dist and dist[a] + ww < min(dist.get(b, INF),
                                                upd.get(b, INF)):
                upd[b] = dist[a] + ww
        for node, c in upd.items():
            if c < dist.get(node, INF):
                dist[node] = c

    for limit in (5_000_000, 0):
        out = sssp_weighted(
            rd.from_arrow(edges).repartition(3), source=0,
            max_hops=max_hops, broadcast_limit=limit).to_pandas()
        got = dict(zip(out["node"], out["cost"]))
        assert got == dist, (limit, got, dist)


def test_q127_hashjoin_path_matches_broadcast(ray_session):
    """q127's dimension chain folds driver-side under
    BROADCAST_DIM_LIMIT and becomes broadcast_join + hash_join beyond;
    both paths must produce identical regional revenue."""
    from stanford_re_ray.pipelines import analytics as A

    sf = "/root/testdata/sf0.001"

    def norm(t):
        df = t.to_pandas()
        return df.sort_values("r_name").reset_index(drop=True)

    bcast = norm(A.q127_regional_revenue(sf))
    old = A.BROADCAST_DIM_LIMIT
    try:
        A.BROADCAST_DIM_LIMIT = 0
        dist = norm(A.q127_regional_revenue(sf))
    finally:
        A.BROADCAST_DIM_LIMIT = old
    assert bcast.equals(dist)


def test_q139_hashjoin_path_matches_broadcast(ray_session):
    """q139's customer dimension broadcasts under BROADCAST_DIM_LIMIT
    and hash-joins beyond; identical shares either way."""
    from stanford_re_ray.pipelines import analytics as A

    sf = "/root/testdata/sf0.001"
    bcast = A.q139_revenue_share(sf).to_pandas()
    old = A.BROADCAST_DIM_LIMIT
    try:
        A.BROADCAST_DIM_LIMIT = 0
        dist = A.q139_revenue_share(sf).to_pandas()
    finally:
        A.BROADCAST_DIM_LIMIT = old
    assert bcast.equals(dist)


def test_grouping_sets_sum_validation(ray_session):
    """grouping_sets_sum rejects duplicate sets (identical mask patterns
    would silently merge into doubled sums) and non-key columns; a
    valid arbitrary set list (not a rollup prefix, not a cube) agrees
    with a pandas reference."""
    import pandas as pd
    import pyarrow as pa
    import pytest

    import ray.data as rd

    from stanford_re_ray.functions.relational import grouping_sets_sum

    tbl = pa.table({
        "f": ["a", "a", "b", "b", "b"],
        "s": ["x", "y", "x", "x", "y"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    ds = rd.from_arrow(tbl).repartition(2)
    with pytest.raises(ValueError, match="duplicate"):
        grouping_sets_sum(ds, ["f", "s"], "v", sets=[("f",), ("f",)])
    with pytest.raises(ValueError, match="non-key"):
        grouping_sets_sum(ds, ["f", "s"], "v", sets=[("nope",)])

    out = (grouping_sets_sum(ds, ["f", "s"], "v",
                             sets=[("f", "s"), ("s",)], scale=10)
           .to_pandas().sort_values(["f", "s"]).reset_index(drop=True))
    df = tbl.to_pandas()
    full = df.groupby(["f", "s"])["v"].agg(["sum", "count"]).reset_index()
    bys = df.groupby("s")["v"].agg(["sum", "count"]).reset_index()
    bys["f"] = "ALL"
    exp = (pd.concat([full, bys[["f", "s", "sum", "count"]]])
           .rename(columns={"sum": "sum_value", "count": "n_rows"})
           .sort_values(["f", "s"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out[["f", "s", "sum_value", "n_rows"]].astype(
            {"n_rows": "int64"}),
        exp.astype({"n_rows": "int64"}), check_dtype=False)


def test_hits_broadcast_matches_join_path(ray_session):
    """hits()'s broadcast big-int path and the distributed hash_join
    path (forced with broadcast_limit=0) must produce identical
    (node, auth_q, hub_q) tables; both must match a serial exact-int
    reference with the same max-normalization floor math."""
    import numpy as np
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import hits

    rng = np.random.RandomState(11)
    src = rng.randint(0, 30, 200).astype(np.int64)
    dst = rng.randint(0, 30, 200).astype(np.int64)
    edges = pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    E = sorted(set(zip(src.tolist(), dst.tolist())))
    nodes = sorted({a for a, _ in E} | {b for _, b in E})
    scale = 1_000_000

    def norm(d):
        m = max(d.values(), default=0)
        return {k: (v * scale // m if m > 0 else 0) for k, v in d.items()}

    hub = {n: scale for n in nodes}
    auth = {}
    for _ in range(2):
        a = {}
        for u, v in E:
            a[v] = a.get(v, 0) + hub.get(u, 0)
        auth = norm(a)
        h = {}
        for u, v in E:
            h[u] = h.get(u, 0) + auth.get(v, 0)
        hub = norm(h)
    ref = {n: (auth.get(n, 0), hub.get(n, 0)) for n in nodes}

    for limit in (2_000_000, 0):
        out = hits(rd.from_arrow(edges).repartition(3), n_iter=2,
                   broadcast_limit=limit).to_pandas()
        got = {r.node: (r.auth_q, r.hub_q) for r in out.itertuples()}
        assert got == ref, (limit,)
