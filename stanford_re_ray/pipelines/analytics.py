"""Generic analytical pipelines over the driver's test tables
(``/root/testdata/sf*``): one function per engine primitive, each with an
ANSI-SQL oracle (see ``__ray_entry__.oracle_sql``).

These exercise the same physical operators the KG pipeline uses —
map-side-partial groupby aggregation, broadcast joins, key-partitioned
hash joins, sort/limit, window bucketing, dedup — over neutral inputs so
the driver's DuckDB comparison can verify them value-for-value.

Float policy: every computed float column is rounded (ROUND in the oracle,
``np.round`` here) far above the double accumulation error so value hashes
match across engines; counts/keys are exact ints.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.relational import resolve_n_blocks


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    """One table of a scale-factor directory, its blocks WITHOUT schema
    metadata: the tables were written by pandas, and pandas' dict
    metadata reaching Ray's schema unification cannot be hashed ("Failed
    to hash the schemas").  The declared read schema strips it in the
    read itself, so row counts and schemas still come from the footer."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def _row_count(sf_dir: str, table: str) -> int:
    """Row count straight from the Parquet footer metadata — no data pass,
    no Ray tasks.  Used for broadcast-vs-shuffle plan guards (a ds.count()
    there would cost a full extra read of the table)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows


def q01_pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H-Q1-style grouped aggregation (map-side partials inside Ray's
    groupby.aggregate; only partials shuffle)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])
    out = (
        ds.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Mean("l_discount", alias_name="avg_disc"),
            Count(alias_name="n_rows"),
        )
        .to_pandas()
    )
    out["sum_qty"] = np.round(out["sum_qty"], 2)
    out["sum_base_price"] = np.round(out["sum_base_price"], 2)
    out["avg_disc"] = np.round(out["avg_disc"], 6)
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


#: above this many dimension rows, q02 switches from the broadcast join to
#: the key-partitioned hash join (a dimension table stops being
#: broadcastable somewhere before it stops fitting one worker's heap)
BROADCAST_DIM_LIMIT = 5_000_000


def q02_revenue_by_nation(sf_dir: str) -> pa.Table:
    """Broadcast join: orders ⋈ customer ⋈ nation (dimension tables shipped
    once via ray.put, merged inside map_batches — no shuffle).  Falls back
    to the distributed hash join when the customer dimension outgrows the
    broadcast limit."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import broadcast_join, hash_join

    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    if _row_count(sf_dir, "customer") > BROADCAST_DIM_LIMIT:
        # customer is no longer broadcastable: nation (tiny) still
        # broadcasts onto customer, then orders ⋈ customer hash-joins
        dim_ds = broadcast_join(
            cust_ds, nation.rename(columns={"n_nationkey": "c_nationkey"}),
            on="c_nationkey",
        ).map_batches(
            lambda b: pa.table({"o_custkey": b.column("c_custkey"),
                                "n_name": b.column("n_name")}),
            batch_format="pyarrow",
        )
        joined = hash_join(orders, dim_ds, on="o_custkey")
    else:
        cust = cust_ds.to_pandas()
        dim = cust.merge(nation, left_on="c_nationkey",
                         right_on="n_nationkey")
        dim = dim[["c_custkey", "n_name"]].rename(
            columns={"c_custkey": "o_custkey"})
        joined = broadcast_join(orders, dim, on="o_custkey")
    out = (
        joined.groupby("n_name")
        .aggregate(Sum("o_totalprice", alias_name="revenue"),
                   Count(alias_name="n_orders"))
        .to_pandas()
    )
    out["revenue"] = np.round(out["revenue"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q03_topk_orders(sf_dir: str, k: int = 10) -> pa.Table:
    """Global top-k: sort + limit (no full materialization on the driver)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)
    return pa.Table.from_pandas(top.to_pandas(), preserve_index=False)


def q04_distinct_brands(sf_dir: str) -> pa.Table:
    """Distinct + count (groupby count)."""
    from ray.data.aggregate import Count

    out = (
        _read(sf_dir, "part", ["p_brand"])
        .groupby("p_brand")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


_HOUR_US = 3600 * 1_000_000


def q05_events_hourly(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour window per user over the events stream table:
    window key computed vectorized in map_batches, then grouped —
    the Ray Data shape of a streaming tumbling-window aggregate."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def window(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64())
        # epoch-second window start as plain int64: avoids cross-engine
        # timestamp-resolution ambiguity in the value-hash comparison
        start = pc.multiply(pc.divide(us, _HOUR_US), 3600)
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "window_start": start,
                "value": batch.column("value"),
            }
        )
        # map-side combine: ~10 events share a (user, hour) key, so the
        # per-batch Arrow group_by shrinks the shuffle ~10x; the final
        # groupby sums the partials (count partials are exact int64,
        # value partials change only float addition order — covered by
        # the 6-dp output rounding both engines apply)
        return t.group_by(["user_id", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")])

    out = (
        ds.map_batches(window, batch_format="pyarrow")
        .groupby(["user_id", "window_start"])
        .aggregate(Sum("value_count", alias_name="n_events"),
                   Sum("value_sum", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = np.round(out["sum_value"], 6)
    out["n_events"] = out["n_events"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q06_filtered_revenue(sf_dir: str) -> pa.Table:
    """Filter + computed column + aggregate, all Arrow-vectorized."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_discount", "l_shipdate"])

    def revenue(batch: pa.Table) -> pa.Table:
        cutoff = pa.scalar(pd.Timestamp("1996-01-01"), pa.timestamp("us"))
        b = batch.filter(pc.less(batch.column("l_shipdate"), cutoff))
        rev = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        return pa.table({"l_returnflag": b.column("l_returnflag"), "revenue": rev})

    out = (
        ds.map_batches(revenue, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("revenue", alias_name="revenue"))
        .to_pandas()
    )
    out["revenue"] = np.round(out["revenue"], 2)
    return pa.Table.from_pandas(out, preserve_index=False)


def q07_join_revenue_by_priority(sf_dir: str) -> pa.Table:
    """Both-sides-large key-partitioned hash join (lineitem ⋈ orders)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"]).map_batches(
        lambda b: b.rename_columns(["o_orderkey", "l_extendedprice"]),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # est_rows from Parquet footers: reduce parallelism scales with the
    # data instead of the bare 64-bucket default (under-parallel >16M rows)
    joined = hash_join(li, orders, on="o_orderkey", how="inner",
                       est_rows=_row_count(sf_dir, "lineitem")
                       + _row_count(sf_dir, "orders"))
    out = (
        joined.groupby("o_orderpriority")
        .aggregate(Sum("l_extendedprice", alias_name="revenue"),
                   Count(alias_name="n"))
        .to_pandas()
    )
    out["revenue"] = np.round(out["revenue"], 2)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q08_customers_without_orders(sf_dir: str) -> pa.Table:
    """Distributed anti join (hash_join how='anti') — both sides stream;
    no driver-side key-set materialization."""
    from ..functions.relational import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: b.rename_columns(["o_custkey"]), batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_custkey"])
    out = hash_join(cust, orders, on="o_custkey", how="anti")
    df = out.to_pandas().rename(columns={"o_custkey": "c_custkey"})
    if "c_custkey" not in df.columns:  # empty result: preserve the schema
        df = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64")})
    return pa.Table.from_pandas(
        df.sort_values("c_custkey").reset_index(drop=True),
        preserve_index=False,
    )


def q09_exact_dedup(sf_dir: str) -> pa.Table:
    """Exact text dedup on documents (hash-partition + per-group min/count)."""
    from ..functions.dedup import exact_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(docs).to_pandas()[["doc_id", "n_copies"]]
    out["n_copies"] = out["n_copies"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True), preserve_index=False
    )


def q10_token_counts(sf_dir: str) -> pa.Table:
    from ..functions.textstats import token_count_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(token_count_batch, batch_format="pyarrow")
    return pa.Table.from_pandas(
        out.to_pandas()[["doc_id", "n_tokens", "n_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True),
        preserve_index=False,
    )


def q11_quality_stats(sf_dir: str) -> pa.Table:
    from ..functions.textstats import quality_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(quality_batch, batch_format="pyarrow")
    return pa.Table.from_pandas(
        out.to_pandas()[["doc_id", "n_digits", "n_upper"]]
        .sort_values("doc_id")
        .reset_index(drop=True),
        preserve_index=False,
    )


def _query_vector(sf_dir: str, vid: int = 0) -> np.ndarray:
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    idx = tbl.column("vec_id").to_pylist().index(vid)
    return np.array(tbl.column("embedding")[idx].as_py(), dtype=np.float64)


def q12_ann_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Brute-force cosine top-k vs the embedding of vec_id 0."""
    from ..functions.similarity import brute_force_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = brute_force_topk(emb, _query_vector(sf_dir), k=k)
    return pa.table({"vec_id": out.column("vec_id")})


def q64_ivf_trained_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """IVF ANN over a TRAINED codebook (the production path): one Lloyd
    iteration of ``kmeans_fit`` (k=8) refines the Forgy init, the
    codebook quantizes to 6 dp (SQL-reproducible, as q63), and
    ``ivf_topk(centroids=...)`` probes the query's 2 nearest lists.
    Assignment/probing rank by v̂·cᵢ (first index wins ties), exactly
    what the oracle's ROW_NUMBER ordering reproduces."""
    from ..functions.clustering import kmeans_fit
    from ..functions.similarity import ivf_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents, _ = kmeans_fit(emb, k=8, n_iter=1)
    out = ivf_topk(emb, _query_vector(sf_dir), k=k, n_lists=8, n_probe=2,
                   centroids=np.round(cents, 6))
    return pa.table({"vec_id": out.column("vec_id")})


def q66_personalized_pagerank(sf_dir: str, n_iter: int = 3) -> pa.Table:
    """Personalized PageRank (``pagerank(seeds=...)``): the teleport
    mass floor-splits over the seed set {3, 17, 59} instead of all
    nodes — the entity-relatedness variant of q51, same integer
    fixed-point arithmetic."""
    from ..pipelines.graph_ops import pagerank

    ds = _read(sf_dir, "events", ["event_id", "props"])

    edges = _event_edge_batch

    edge_ds = (ds.map_batches(edges, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: b.drop_columns(["count()"]),
                            batch_format="pyarrow"))
    out = pagerank(edge_ds, n_iter=n_iter,
                   est_rows=_row_count(sf_dir, "events"),
                   seeds=[3, 17, 59]).to_pandas()
    for c in ("node", "rank_q"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "rank_q"]],
                                preserve_index=False)


def q67_connected_components(sf_dir: str) -> pa.Table:
    """Connected components (``functions.dedup.connected_components``,
    the same exact CC that clusters verified near-dup pairs inside
    ``dedup_corpus``: driver union-find under its broadcast gate,
    distributed pointer doubling above it) over a SPARSE deterministic
    pair graph (every 211th event links two of 1,000 nodes), so
    multiple non-trivial components exist.  Oracle: recursive-CTE
    transitive closure + MIN(label)."""
    from ..functions.dedup import connected_components

    ds = _read(sf_dir, "events", ["event_id", "props"])

    def prs(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        a = eid % 1000
        b = (eid + 7 * k) % 1000
        keep = (eid % 211 == 0) & (a != b)
        return pa.table({"doc_a": pa.array(a[keep]),
                         "doc_b": pa.array(b[keep])})

    out = (connected_components(
               ds.map_batches(prs, batch_format="pyarrow"), max_rounds=40)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "component"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "component"]],
                                preserve_index=False)


def q65_triangle_counts(sf_dir: str) -> pa.Table:
    """Distributed triangle counting (``graph_ops.triangle_counts``)
    over the q51 event-derived edge list: canonical a<b orientation,
    wedge join on the middle vertex, semi-join closure, per-node
    explode+count — three key-partitioned hash joins, zero driver
    materialization."""
    from ..pipelines.graph_ops import triangle_counts

    ds = _read(sf_dir, "events", ["event_id", "props"])

    edges = _event_edge_batch

    edge_ds = ds.map_batches(edges, batch_format="pyarrow")
    out = (triangle_counts(edge_ds, est_rows=_row_count(sf_dir, "events"))
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in ("node", "n_triangles"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "n_triangles"]],
                                preserve_index=False)


def q69_kcore(sf_dir: str, k: int = 2, rounds: int = 12) -> pa.Table:
    """k-core decomposition (``graph_ops.kcore``) over a scale-adaptive
    sparse event graph: n_nodes = n_events // 4 keeps average degree
    ~1.6 at every scale factor, so the 2-core peels away ~70% of nodes
    over ~8 synchronous rounds (nontrivial at sf0.001 AND sf0.01).
    Oracle: the same peeling unrolled to ``rounds`` CTE rounds — both
    sides are round-synchronous, so they agree even short of fixpoint."""
    from ..pipelines.graph_ops import kcore

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 4
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 5 == 0
        return pa.table({"src": pa.array(eid[keep] % n_nodes),
                         "dst": pa.array((eid[keep] + 13 * kk[keep])
                                         % n_nodes)})

    core = kcore(ds.map_batches(edges, batch_format="pyarrow"), k=k,
                 est_rows=n_events, max_rounds=rounds)
    out = core.to_pandas()
    if not len(out):
        out = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                            "core_deg": pd.Series([], dtype="int64")})
    out = out.sort_values("node").reset_index(drop=True)
    for c in ("node", "core_deg"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "core_deg"]],
                                preserve_index=False)


def q20_semi_join(sf_dir: str) -> pa.Table:
    """Distributed semi join (hash_join how='semi'): customers with ≥1
    order."""
    from ..functions.relational import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: b.rename_columns(["o_custkey"]), batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_custkey"])
    out = hash_join(cust, orders, on="o_custkey", how="semi").to_pandas()
    out = out.rename(columns={"o_custkey": "c_custkey"})
    out = out.drop_duplicates().sort_values("c_custkey").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


_SESSION_GAP_S = 1800


def q21_sessions(sf_dir: str) -> pa.Table:
    """Gap-based sessionization (30-min inactivity) per user over the
    events stream table: ``groupby(user).map_groups`` over ts-sorted
    groups — the Ray Data shape of session windows (no watermarks: batch
    log semantics)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts", kind="mergesort")
        gaps = g["ts"].diff().dt.total_seconds()
        n_sessions = int((gaps.isna() | (gaps > _SESSION_GAP_S)).sum())
        return pd.DataFrame([{
            "user_id": g["user_id"].iloc[0],
            "n_events": len(g),
            "n_sessions": n_sessions,
        }])

    out = (
        ds.groupby("user_id").map_groups(sessions, batch_format="pandas")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    out["n_events"] = out["n_events"].astype("int64")
    out["n_sessions"] = out["n_sessions"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q25_bpe_tokens(sf_dir: str) -> pa.Table:
    """Regex (BPE-ish) token counts — the second tokenizer of
    token_count_batch, value-checked against DuckDB regexp_extract_all."""
    from ..functions.textstats import token_count_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(token_count_batch, batch_format="pyarrow")
    df = out.to_pandas()[["doc_id", "n_bpe_tokens"]]
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True), preserve_index=False
    )


_SLIDE_WIDTH_S = 3600
_SLIDE_HOP_S = 1800


def q26_sliding_windows(sf_dir: str) -> pa.Table:
    """SLIDING 1-hour windows hopping every 30 min per user: each event
    lands in exactly width/hop = 2 windows, emitted vectorized in
    map_batches (the flat-emit shape of a hopping-window aggregate), then
    one groupby — no per-window passes over the data."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    hop_us = _SLIDE_HOP_S * 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64())
        base = pc.multiply(pc.divide(us, hop_us), _SLIDE_HOP_S)
        prev = pc.subtract(base, pa.scalar(_SLIDE_HOP_S, pa.int64()))
        uid = batch.column("user_id")
        val = batch.column("value")
        return pa.table({
            "user_id": pa.concat_arrays(
                [uid.combine_chunks(), uid.combine_chunks()]),
            "window_start": pa.concat_arrays(
                [base.combine_chunks(), prev.combine_chunks()]),
            "value": pa.concat_arrays(
                [val.combine_chunks(), val.combine_chunks()]),
        })

    out = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["user_id", "window_start"])
        .aggregate(Count(alias_name="n_events"),
                   Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = np.round(out["sum_value"], 6)
    out["n_events"] = out["n_events"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q27_asof_join(sf_dir: str) -> pa.Table:
    """As-of join — for each event, the user's latest order at or before
    the event time (``functions.relational.asof_join``: one key-bucketed
    shuffle, per-bucket vectorized merge_asof; an operator the Dataset
    API lacks).  Orders are first compacted to one row per
    (custkey, orderdate) keeping max orderkey so ties are deterministic
    in both engines (DuckDB ASOF JOIN's pick is otherwise unspecified).
    Inner semantics: events whose user never ordered before are
    dropped."""
    from ..functions.relational import asof_join
    from ..schema import pd_to_arrow

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def events_shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch.column("event_id"),
            "k": batch.column("user_id").cast(pa.int64()),
            "t": batch.column("ts"),
            "value": batch.column("value"),
        })

    def orders_shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column("o_custkey").cast(pa.int64()),
            "t": batch.column("o_orderdate"),
            "o_orderkey": batch.column("o_orderkey"),
            "o_orderdate": batch.column("o_orderdate"),
        })

    def add_k_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket",
            pa.array((batch.column("k").to_numpy() % 64).astype(np.int32)),
        )

    def compact(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["k", "t", "o_orderkey"], kind="mergesort")
        return pd_to_arrow(g.drop_duplicates(["k", "t"], keep="last"))

    right = (
        orders.map_batches(orders_shape, batch_format="pyarrow")
        .map_batches(add_k_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(compact, batch_format="pandas")
    )
    joined = asof_join(
        events.map_batches(events_shape, batch_format="pyarrow"),
        right, by="k", on="t",
    ).to_pandas()
    joined = joined[joined["o_orderkey"].notna()]
    out = pd.DataFrame({
        "event_id": joined["event_id"].astype("int64"),
        "user_id": joined["k"].astype("int64"),
        "event_ts": joined["t"],
        "o_orderkey": joined["o_orderkey"].astype("int64"),
        "o_orderdate": joined["o_orderdate"],
        "value": np.round(joined["value"].astype("float64"), 6),
    })
    return pa.Table.from_pandas(out, preserve_index=False)


def q28_gopher_quality(sf_dir: str) -> pa.Table:
    """Gopher/C4-style doc-level quality filtering: word-count and
    mean-word-length windows plus repetition signals (duplicate-2-gram
    fraction, top-word fraction) and the combined keep verdict — the
    standard pre-training corpus filter, as one vectorized map_batches
    (``functions.textstats.gopher_quality_batch``)."""
    from ..functions.textstats import gopher_quality_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(gopher_quality_batch,
                           batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q29_topk_per_group(sf_dir: str, k: int = 2) -> pa.Table:
    """Top-k per group — row_number() OVER (PARTITION BY custkey ORDER BY
    totalprice DESC) <= k, as the distributed two-stage
    ``functions.relational.grouped_topk`` (map-side per-key partial top-k,
    one bucket shuffle)."""
    from ..functions.relational import grouped_topk

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    out = grouped_topk(orders, key="o_custkey", order_by="o_totalprice",
                       k=k, descending=True,
                       tiebreak=["o_orderkey"]).to_pandas()
    out = out.sort_values(["o_custkey", "rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        pd.DataFrame({
            "o_custkey": out["o_custkey"].astype("int64"),
            "rnk": out["rank"].astype("int64"),
            "o_orderkey": out["o_orderkey"].astype("int64"),
            "o_totalprice": np.round(out["o_totalprice"], 2),
        }), preserve_index=False)


def q30_median_by_flag(sf_dir: str) -> pa.Table:
    """Exact per-group median (interpolated, matching SQL ``median``) via
    groupby + per-group vectorized quantile.  Scale caveat (documented):
    each group's values are gathered into one task — right for
    low-cardinality group keys (here 3 return flags); high-cardinality or
    giant groups want a t-digest sketch instead."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def med(g: pd.DataFrame):
        from ..schema import pd_to_arrow

        return pd_to_arrow(pd.DataFrame({
            "l_returnflag": [g["l_returnflag"].iloc[0]],
            "median_price": [round(float(np.median(g["l_extendedprice"])), 6)],
            "n_rows": [len(g)],
        }))

    out = (ds.groupby("l_returnflag").map_groups(med, batch_format="pandas")
           .to_pandas().sort_values("l_returnflag").reset_index(drop=True))
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q31_distinct_suppliers(sf_dir: str) -> pa.Table:
    """COUNT(DISTINCT) per group as two cascaded groupbys: distinct
    (flag, suppkey) pairs first (map-side combinable), then count per
    flag — the scalable shape (a per-group set union would not be)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_suppkey"])
    pairs = (ds.groupby(["l_returnflag", "l_suppkey"])
             .aggregate(Count(alias_name="_c")))
    out = (pairs.groupby("l_returnflag")
           .aggregate(Count(alias_name="n_suppliers"))
           .to_pandas().sort_values("l_returnflag").reset_index(drop=True))
    out["n_suppliers"] = out["n_suppliers"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q32_pii_scrub(sf_dir: str) -> pa.Table:
    """PII scrubbing (emails → IPv4 → phone-like runs, fixed order) with
    per-doc match counts.  The fixture texts carry no PII, so the query
    APPENDS a deterministic contact line derived from doc_id before
    scrubbing — both engines build the same augmented text, making the
    redaction a real cross-engine regex-parity check rather than a no-op
    (patterns pinned to explicit-ASCII RE2-compatible classes)."""
    from ..functions.textstats import pii_scrub_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        aug = [
            f"{t} contact user{i}@example.com at 10.0.{i % 256}.7 "
            f"or +1 555 000{i:04d}"
            for i, t in zip(ids, texts)
        ]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(aug, pa.string())})

    out = (docs.map_batches(augment, batch_format="pyarrow")
           .map_batches(pii_scrub_batch, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("n_email", "n_ip", "n_phone"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q34_running_totals(sf_dir: str) -> pa.Table:
    """Per-user running totals over the event stream — SUM() OVER
    (PARTITION BY user ORDER BY ts) — as one hash(user) bucket shuffle
    with a vectorized in-group sort + cumsum (each user's timeline lives
    whole in its bucket; the same co-location contract as the joins).
    Events are pre-compacted to one row per (user_id, ts) keeping max
    event_id so ordering ties cannot differ across engines."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket",
            pa.array((batch.column("user_id").to_numpy() % 64)
                     .astype(np.int32)),
        )

    def running(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort")
        g = g.drop_duplicates(["user_id", "ts"], keep="last")
        g["running_value"] = g.groupby("user_id", sort=False)["value"].cumsum()
        g["n_events_so_far"] = g.groupby("user_id", sort=False).cumcount() + 1
        return pd_to_arrow(g)

    out = (events.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("__bucket").map_groups(running, batch_format="pandas")
           .to_pandas().sort_values(["user_id", "ts"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(pd.DataFrame({
        "event_id": out["event_id"].astype("int64"),
        "user_id": out["user_id"].astype("int64"),
        "ts": out["ts"],
        "running_value": np.round(out["running_value"].astype("float64"), 6),
        "n_events_so_far": out["n_events_so_far"].astype("int64"),
    }), preserve_index=False)


def q74_event_deltas(sf_dir: str) -> pa.Table:
    """LAG/LEAD window primitive: per-user time-to-previous and
    time-to-next event — ``ts - LAG(ts) OVER (PARTITION BY user ORDER BY
    ts)`` — distributed exactly like q34's running totals: ONE
    hash(user) bucket shuffle, then a vectorized in-group sort + diff
    (each user's timeline lives whole in its bucket).  Timestamps ride
    as int64 epoch-microseconds end to end (the q05 policy: no
    cross-engine timestamp-resolution ambiguity) so every delta is
    exact integer arithmetic; boundary rows (no prev/next) take -1.
    Events are pre-compacted to one row per (user_id, ts) keeping max
    event_id so ordering ties cannot differ across engines."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.int64())
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": ts_us,
            "__bucket": pa.array(
                (batch.column("user_id").to_numpy() % 64)
                .astype(np.int32)),
        })

    def deltas(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort")
        g = g.drop_duplicates(["user_id", "ts_us"], keep="last")
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        uid = g["user_id"].to_numpy(dtype=np.int64)
        prev = np.empty(len(g), np.int64)
        nxt = np.empty(len(g), np.int64)
        if len(g):
            same_prev = np.zeros(len(g), bool)
            same_prev[1:] = uid[1:] == uid[:-1]
            prev[:] = -1
            prev[same_prev] = (ts[same_prev]
                               - ts[np.flatnonzero(same_prev) - 1])
            same_next = np.zeros(len(g), bool)
            same_next[:-1] = uid[:-1] == uid[1:]
            nxt[:] = -1
            nxt[same_next] = (ts[np.flatnonzero(same_next) + 1]
                              - ts[same_next])
        g["prev_delta_us"] = prev
        g["next_delta_us"] = nxt
        return pd_to_arrow(g)

    out = (events.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("__bucket").map_groups(deltas, batch_format="pandas")
           .to_pandas().sort_values(["user_id", "ts_us"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(pd.DataFrame({
        "event_id": out["event_id"].astype("int64"),
        "user_id": out["user_id"].astype("int64"),
        "ts_us": out["ts_us"].astype("int64"),
        "prev_delta_us": out["prev_delta_us"].astype("int64"),
        "next_delta_us": out["next_delta_us"].astype("int64"),
    }), preserve_index=False)


def q75_set_ops(sf_dir: str) -> pa.Table:
    """Distinct set operations (``functions.relational.intersect_distinct``
    / ``except_distinct``): viewers INTERSECT high-value purchasers and
    viewers EXCEPT high-value purchasers, both as map-side-combined
    distinct + one SEMI/ANTI hash join, unioned with an ``op`` tag."""
    from ..functions.relational import except_distinct, intersect_distinct

    events = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def viewers(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("event_type"), "view")
        return batch.filter(keep).select(["user_id"])

    def purchasers(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(batch.column("event_type"), "purchase"),
                       pc.greater(batch.column("value"), 90.0))
        return batch.filter(keep).select(["user_id"])

    v = events.map_batches(viewers, batch_format="pyarrow")
    p = events.map_batches(purchasers, batch_format="pyarrow")

    def tag(op: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "op", pa.array([op] * batch.num_rows, pa.string()))
        return f

    both = (intersect_distinct(v, p, on="user_id")
            .map_batches(tag("intersect"), batch_format="pyarrow")
            .union(except_distinct(v, p, on="user_id")
                   .map_batches(tag("except"), batch_format="pyarrow")))
    out = (both.to_pandas().sort_values(["op", "user_id"])
           .reset_index(drop=True))
    out["user_id"] = out["user_id"].astype("int64")
    return pa.Table.from_pandas(out[["op", "user_id"]],
                                preserve_index=False)


def q76_funnel(sf_dir: str) -> pa.Table:
    """Conversion funnel: users whose FIRST view precedes their LAST
    purchase, with per-user view/purchase counts.  Fully combiner-shaped
    — per-batch Arrow ``group_by`` partials (min/max over int64
    epoch-microsecond sentinels, int counts) then ONE groupby of
    associative reductions; no bucketing, no row ever reshuffles."""
    from ray.data.aggregate import Max, Min, Sum

    events = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    I64_MAX = np.iinfo(np.int64).max

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        is_v = et == "view"
        is_p = et == "purchase"
        # sentinel encoding keeps the reduce null-free and associative:
        # min-identity for first view, max-identity for last purchase
        ts_v = np.where(is_v, ts_us, I64_MAX)
        ts_p = np.where(is_p, ts_us, -1)
        uniq, inv = np.unique(uid, return_inverse=True)
        fv = np.full(len(uniq), I64_MAX, np.int64)
        np.minimum.at(fv, inv, ts_v)
        lp = np.full(len(uniq), -1, np.int64)
        np.maximum.at(lp, inv, ts_p)
        nv = np.zeros(len(uniq), np.int64)
        np.add.at(nv, inv, is_v.astype(np.int64))
        npu = np.zeros(len(uniq), np.int64)
        np.add.at(npu, inv, is_p.astype(np.int64))
        return pa.table({"user_id": pa.array(uniq),
                         "fv": pa.array(fv), "lp": pa.array(lp),
                         "nv": pa.array(nv), "np": pa.array(npu)})

    agg = (events.map_batches(partial, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Min("fv", alias_name="first_view_us"),
                      Max("lp", alias_name="last_purchase_us"),
                      Sum("nv", alias_name="n_views"),
                      Sum("np", alias_name="n_purchases")))

    def funnel(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("first_view_us"),
                       batch.column("last_purchase_us"))
        return batch.filter(keep)

    out = (agg.map_batches(funnel, batch_format="pyarrow")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in ("user_id", "first_view_us", "last_purchase_us",
              "n_views", "n_purchases"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "first_view_us", "last_purchase_us",
             "n_views", "n_purchases"]], preserve_index=False)


def q35_hash_sample(sf_dir: str, percent: int = 10) -> pa.Table:
    """Deterministic content-hash sampling — the reproducible subsample
    every pipeline needs (no RNG state; membership is a pure function of
    the key, identical across engines via the md5_number_upper
    convention): keep documents whose md5(doc_id) lands in the lowest
    ``percent``% of the 64-bit space."""
    import hashlib

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cut = percent

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        mask = [
            int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                           "little") % 100 < cut
            for i in ids
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    out = (docs.map_batches(keep, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["n_chars"] = out.pop("text").str.len().astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q36_vocab_heavy_hitters(sf_dir: str, top_n: int = 40) -> pa.Table:
    """Corpus vocabulary heavy-hitters (``functions.corpus``): exact
    global token counts via a per-batch ``value_counts`` combiner (only
    distinct-token partials shuffle), one token groupby, vocab-sized
    sort + limit."""
    from ..functions.corpus import vocab_heavy_hitters

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = vocab_heavy_hitters(docs, top_n=top_n).to_pandas()
    out["n_occurrences"] = out["n_occurrences"].astype("int64")
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def q37_tfidf_topk(sf_dir: str, k: int = 3) -> pa.Table:
    """Per-document top-k TF-IDF terms (``functions.corpus.tfidf_topk``):
    in-batch Arrow tf grouping, token-groupby df, both-sides-large
    hash join, quantized int64 score, distributed grouped top-k."""
    from ..functions.corpus import tfidf_topk

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tfidf_topk(docs, n_docs=n_docs, k=k,
                     est_rows=n_docs * 50).to_pandas()
    out = out.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(pd.DataFrame({
        "doc_id": out["doc_id"].astype("int64"),
        "rnk": out["rank"].astype("int64"),
        "token": out["token"],
        "tf": out["tf"].astype("int64"),
        "score_q": out["score_q"].astype("int64"),
    }), preserve_index=False)


def q38_line_dedup(sf_dir: str) -> pa.Table:
    """C4-style cross-document line dedup (``functions.corpus.line_dedup``).
    Fixture documents are single-line, so the query deterministically
    augments each into three lines — unique body, a footer shared by the
    ``doc_id % 7`` class (≥30 chars → participates in cross-doc dedup),
    and the doc's 40-char prefix — identically in both engines (the q32
    augmentation pattern), making the dedup decisions corpus-global and
    value-checkable."""
    from ..functions.corpus import line_dedup

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        txts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        out = [
            f"{t}\nshared boilerplate footer line number {i % 7} for dedup"
            f"\n{t[:40]}"
            for t, i in zip(txts, ids)
        ]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(out, pa.string())})

    aug = docs.map_batches(augment, batch_format="pyarrow")
    out = (line_dedup(aug, min_line_chars=30, est_rows=n_docs * 3)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_lines_kept"] = out["n_lines_kept"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q39_quantiles_by_flag(sf_dir: str) -> pa.Table:
    """Exact per-group p25/p50/p75 via the histogram shape
    (``functions.quantiles.exact_quantiles``) — the scale-correct
    replacement for q30's gather-based median: only (group, cents)
    histogram cells shuffle, never raw rows."""
    from ..functions.quantiles import exact_quantiles

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = (exact_quantiles(ds, key="l_returnflag",
                           value_col="l_extendedprice",
                           quantiles=(0.25, 0.5, 0.75), scale=100)
           .to_pandas().sort_values("l_returnflag").reset_index(drop=True))
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q40_inverted_index(sf_dir: str) -> pa.Table:
    """Inverted-index construction (``functions.corpus.inverted_index``):
    token → (df, ascending comma-joined posting list).  ``max_df`` capped
    at 40% of the corpus so stopword-like tokens (the posting-list skew
    hazard) are pruned, as real indexes do."""
    from ..functions.corpus import inverted_index

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (inverted_index(docs, max_df=int(n_docs * 0.4),
                          est_rows=n_docs * 50)
           .to_pandas().sort_values("token").reset_index(drop=True))
    out["df"] = out["df"].astype("int64")
    return pa.Table.from_pandas(out[["token", "df", "postings"]],
                                preserve_index=False)


def q41_kmeans(sf_dir: str, k: int = 4) -> pa.Table:
    """One Lloyd iteration of distributed k-means over the embeddings
    (``functions.clustering``): broadcast centroids, matmul assignment,
    per-batch (count, vector-sum) combiner partials — k rows per batch
    shuffle, never vectors."""
    from ..functions.clustering import kmeans_table

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_table(emb, k=k, n_iter=1)


def q42_bigram_lm(sf_dir: str, top_n: int = 50) -> pa.Table:
    """Top-N bigram conditional probabilities
    (``functions.corpus.bigram_lm_topk``)."""
    from ..functions.corpus import bigram_lm_topk

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bigram_lm_topk(docs, top_n=top_n,
                         est_rows=n_docs * 100).to_pandas()
    for c in ("c12", "c1", "p_q"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["w1", "w2", "c12", "c1", "p_q"]].reset_index(drop=True),
        preserve_index=False)


def q43_decontaminate(sf_dir: str, n: int = 4) -> pa.Table:
    """Benchmark decontamination (``functions.mixing.decontaminate``):
    distinct shared word-n-grams between each training document and the
    broadcast eval-split n-gram set."""
    from ..functions.mixing import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = decontaminate(docs, n=n).to_pandas()
    for c in ("doc_id", "n_hits"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q44_props_field_stats(sf_dir: str) -> pa.Table:
    """Semi-structured metadata extraction: pull the integer ``k`` field
    out of the events' JSON ``props`` string with one vectorized RE2
    kernel (``pyarrow.compute.extract_regex`` — the same engine family as
    DuckDB's regexp_extract, so cross-engine parity is exact) and
    aggregate per event type.  No Python per-row parsing."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        return pa.table({
            "event_type": batch.column("event_type"),
            "k": k,
            "is_high": pc.cast(pc.greater(k, 50), pa.int64()),
        })

    out = (ds.map_batches(extract, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Sum("k", alias_name="sum_k"),
                      Sum("is_high", alias_name="n_high"))
           .to_pandas().sort_values("event_type").reset_index(drop=True))
    for c in ("n", "sum_k", "n_high"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q45_stratified_sample(sf_dir: str) -> pa.Table:
    """Stratum-equalizing deterministic sample
    (``functions.mixing.stratified_sample``): every language down-sampled
    to the smallest stratum's expected size via content-hash Bernoulli."""
    from ..functions.mixing import stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = (stratified_sample(docs, stratum_col="lang")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "lang"]],
                                preserve_index=False)


def q46_sequence_packing(sf_dir: str, seq_len: int = 512) -> pa.Table:
    """GPT-style sequence packing histogram
    (``functions.mixing.sequence_packing``): distributed exclusive scan
    over per-document token counts in doc_id order; packs of ``seq_len``
    tokens with per-pack document and token totals."""
    from ..functions.mixing import sequence_packing

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return sequence_packing(docs, seq_len=seq_len,
                            n_rows=_row_count(sf_dir, "documents"))


def q47_cms_heavy_hitters(sf_dir: str, top_n: int = 40) -> pa.Table:
    """Count-min sketch point estimates vs exact counts for the exact
    top-N tokens (``functions.sketch.cms_build``): the sketch's fixed
    (depth × width) state replaces the vocabulary shuffle at scale; this
    query value-checks both the merged sketch cells and the min-over-rows
    estimates against the SQL oracle."""
    from ..functions.corpus import vocab_heavy_hitters
    from ..functions.sketch import cms_build, cms_estimate

    docs = _read(sf_dir, "documents", ["text"])
    top = vocab_heavy_hitters(
        _read(sf_dir, "documents", ["text"]), top_n=top_n).to_pandas()
    sketch = cms_build(docs)
    return pa.table({
        "token": pa.array(top["token"], pa.string()),
        "n_exact": pa.array(top["n_occurrences"].astype("int64")),
        "n_est": pa.array(cms_estimate(sketch, list(top["token"]))),
    })


def q48_bloom_membership(sf_dir: str) -> pa.Table:
    """Bloom-filter membership pre-pass (``functions.sketch``): build the
    filter over even-doc texts, probe odd-doc texts; emits the doc_ids
    that MAY match (no false negatives; false positives reproduced
    exactly by the oracle's identical bit math)."""
    from ..functions.sketch import bloom_build, bloom_membership

    def half(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("doc_id").combine_chunks())
            return batch.filter(pa.array(ids % 2 == parity))
        return f

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    build = docs.map_batches(half(0), batch_format="pyarrow")
    probe = docs.map_batches(half(1), batch_format="pyarrow")
    bitmap = bloom_build(build, "text")
    out = (bloom_membership(probe, bitmap, "text")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return pa.table({"doc_id": pa.array(out["doc_id"].astype("int64"))})


def q49_hll_distinct(sf_dir: str) -> pa.Table:
    """HyperLogLog distinct-token estimate next to the exact count
    (``functions.sketch.hll_distinct_tokens``): 256 max-merged registers
    replace the distinct shuffle; the quantized estimate is
    bit-deterministic cross-engine (integer-exact register sum)."""
    from ..functions.corpus import term_count_partial
    from ..functions.sketch import hll_distinct_tokens

    docs = _read(sf_dir, "documents", ["text"])
    n_exact = (docs.map_batches(term_count_partial, batch_format="pyarrow")
               .groupby("token").count().count())
    est_q, _regs = hll_distinct_tokens(docs)
    return pa.table({"n_exact": pa.array([n_exact], pa.int64()),
                     "n_est_q": pa.array([est_q], pa.int64())})


def q50_mixture_upsample(sf_dir: str) -> pa.Table:
    """Inverse-frequency epoch-plan upsampling
    (``functions.mixing.mixture_upsample``): low-resource languages
    repeated up to the largest stratum's expected size, one row per
    (doc, epoch)."""
    from ..functions.mixing import mixture_upsample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = (mixture_upsample(docs)
           .to_pandas().sort_values(["doc_id", "epoch"])
           .reset_index(drop=True))
    for c in ("doc_id", "epoch"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "lang", "epoch"]],
                                preserve_index=False)


def _event_edge_batch(batch: pa.Table,
                      drop_src_mod7: bool = False) -> pa.Table:
    """Shared deterministic event-graph derivation (q51/q62/q65/q66 and
    their SQL oracles): src = event_id mod 100, dst shifted by the JSON
    ``k`` field, self-loops dropped; ``drop_src_mod7`` removes all
    out-edges of nodes ≡ 0 (mod 7) so those nodes dangle (q62)."""
    hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
    k = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
    eid = batch.column("event_id").to_numpy().astype(np.int64)
    src = eid % 100
    dst = (eid + k) % 100
    keep = src != dst
    if drop_src_mod7:
        keep &= src % 7 != 0
    return pa.table({"src": pa.array(src[keep]),
                     "dst": pa.array(dst[keep])})


def q51_pagerank(sf_dir: str, n_iter: int = 3) -> pa.Table:
    """Distributed iterative PageRank (``pipelines.graph_ops.pagerank``)
    over a deterministic event-derived edge list (src = event_id mod 100,
    dst shifted by the JSON ``k`` field): integer fixed-point ranks,
    bit-identical to the oracle's unrolled iterations."""
    from ..pipelines.graph_ops import pagerank

    ds = _read(sf_dir, "events", ["event_id", "props"])

    edges = _event_edge_batch

    edge_ds = (ds.map_batches(edges, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: b.drop_columns(["count()"]),
                            batch_format="pyarrow"))
    n_events = _row_count(sf_dir, "events")
    out = pagerank(edge_ds, n_iter=n_iter, est_rows=n_events).to_pandas()
    for c in ("node", "rank_q"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "rank_q"]],
                                preserve_index=False)


def q62_pagerank_dangling(sf_dir: str, n_iter: int = 3) -> pa.Table:
    """PageRank with dangling-mass redistribution
    (``pagerank(redistribute_dangling=True)``): the standard formulation
    where zero-out-degree nodes' rank is split evenly (integer floor)
    into every node's damped term each round.  The edge list drops all
    edges whose src ≡ 0 (mod 7), so nodes 0, 7, … receive rank but emit
    none — real dangling mass the q51 variant would silently drop."""
    from ..pipelines.graph_ops import pagerank

    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        return _event_edge_batch(batch, drop_src_mod7=True)

    edge_ds = (ds.map_batches(edges, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: b.drop_columns(["count()"]),
                            batch_format="pyarrow"))
    n_events = _row_count(sf_dir, "events")
    out = pagerank(edge_ds, n_iter=n_iter, est_rows=n_events,
                   redistribute_dangling=True).to_pandas()
    for c in ("node", "rank_q"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "rank_q"]],
                                preserve_index=False)


def q52_perplexity_filter(sf_dir: str) -> pa.Table:
    """Bigram-LM quality scoring (``functions.corpus.perplexity_scores``):
    LM trained on even-id docs, odd-id docs scored; integer-quantized
    total log-probability plus bigram/OOV counts per document."""
    from ..functions.corpus import perplexity_scores

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = perplexity_scores(docs, est_rows=n_docs * 50).to_pandas()
    for c in ("doc_id", "lp_total_q", "n_bigrams", "n_oov"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "lp_total_q", "n_bigrams", "n_oov"]],
        preserve_index=False)


def q77_source_kl(sf_dir: str) -> pa.Table:
    """Per-source KL divergence vs the corpus unigram blend
    (``functions.mixing.source_kl_divergence``): integer-quantized
    per-(source, token) terms, associative int sums, broadcast
    source totals, key-partitioned vocabulary join."""
    from ..functions.mixing import source_kl_divergence

    docs = _read(sf_dir, "documents", ["source", "text"])
    out = (source_kl_divergence(docs).to_pandas()
           .sort_values("source").reset_index(drop=True))
    for c in ("kl_q", "n_tokens"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["source", "kl_q", "n_tokens"]],
                                preserve_index=False)


def q78_weighted_sample(sf_dir: str, k: int = 50) -> pa.Table:
    """Weighted bottom-k ticket sampling
    (``functions.mixing.weighted_bottomk_sample``): inclusion
    probability ∝ document length, fully deterministic via the q35
    md5 convention; per-batch partial top-k bounds the shuffle."""
    from ..functions.mixing import weighted_bottomk_sample

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (weighted_bottomk_sample(docs, k=k).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_chars", "priority"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "n_chars", "priority"]],
                                preserve_index=False)


def q53_bpe_merges(sf_dir: str, n_merges: int = 6) -> pa.Table:
    """Distributed BPE tokenizer training (``functions.corpus.bpe_train``):
    the learned merge table.  Iterative argmax — pytest-gated against a
    serial reference (rows-only for the driver, like the model queries)."""
    from ..functions.corpus import bpe_train

    docs = _read(sf_dir, "documents", ["text"])
    return bpe_train(docs, n_merges=n_merges)


def q54_curation(sf_dir: str) -> pa.Table:
    """Composed curation pipeline (``functions.mixing.curate_corpus``):
    Gopher quality filter → exact dedup (min-id representative) →
    benchmark decontamination → stratum-balancing sample, value-checked
    end-to-end against one CTE-chained oracle."""
    from ..functions.mixing import curate_corpus

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    out = curate_corpus(docs, est_rows=n_docs).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "lang"]],
                                preserve_index=False)


def q55_semdedup(sf_dir: str, k: int = 4, threshold: float = 0.4) -> pa.Table:
    """SemDeDup (``functions.clustering.semdedup``): k-means-bounded
    within-cluster cosine dedup over the embeddings — the semantic
    member of the dedup family (exact → MinHash → SimHash → embedding
    sign-LSH → SemDeDup)."""
    from ..functions.clustering import semdedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = (semdedup(emb, k=k, threshold=threshold)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    for c in ("vec_id", "cluster"):
        out[c] = out[c].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return pa.Table.from_pandas(out[["vec_id", "cluster", "keep"]],
                                preserve_index=False)


def q63_semdedup_trained(sf_dir: str, k: int = 4,
                         threshold: float = 0.4) -> pa.Table:
    """SemDeDup over TRAINED centroids (the production path): one Lloyd
    iteration of ``kmeans_fit`` refines the Forgy init, the codebook is
    quantized to 6 dp (so the SQL twin can reproduce it bit-for-bit from
    ``round(AVG(x), 6)``), and ``semdedup(centroids=...)`` runs the
    within-cluster keep-earliest cosine dedup against it."""
    from ..functions.clustering import kmeans_fit, semdedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents, _ = kmeans_fit(emb, k=k, n_iter=1)
    out = (semdedup(emb, k=k, threshold=threshold,
                    centroids=np.round(cents, 6))
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    for c in ("vec_id", "cluster"):
        out[c] = out[c].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return pa.Table.from_pandas(out[["vec_id", "cluster", "keep"]],
                                preserve_index=False)


def q56_cdc_substring_dedup(sf_dir: str) -> pa.Table:
    """Content-defined-chunking substring dedup
    (``functions.dedup.cdc_substring_dedup``): per-doc counts of
    duplicated chunks under the keep-first rule — the scalable stand-in
    for suffix-array exact-substring dedup."""
    from ..functions.dedup import cdc_substring_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (cdc_substring_dedup(docs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_chunks", "n_dup_chunks", "dup_chars"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "n_chunks", "n_dup_chunks", "dup_chars"]],
        preserve_index=False)


def q57_dsir_weights(sf_dir: str) -> pa.Table:
    """DSIR-style importance weights (``functions.mixing.dsir_importance``):
    hashed-word-bucket target/corpus ratio scores with a quantized-integer
    keep rule."""
    from ..functions.mixing import dsir_importance

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (dsir_importance(docs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_tokens", "score_q"):
        out[c] = out[c].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return pa.Table.from_pandas(
        out[["doc_id", "n_tokens", "score_q", "keep"]],
        preserve_index=False)


def q18_fingerprints(sf_dir: str) -> pa.Table:
    """Rolling document fingerprints (``textstats.fingerprint_batch`` —
    the vectorized chunked-prefix kernel); materialized table form for
    the bench harness (the driver-facing query in ``__ray_entry__``
    returns the lazy Dataset)."""
    from ..functions.textstats import fingerprint_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (docs.map_batches(fingerprint_batch, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q58_cdc_clean(sf_dir: str) -> pa.Table:
    """Cleaned corpus after CDC substring dedup
    (``functions.dedup.cdc_dedup_clean``): duplicate chunks removed,
    survivors re-concatenated."""
    from ..functions.dedup import cdc_dedup_clean

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (cdc_dedup_clean(docs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_removed_chars"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "clean_text", "n_removed_chars"]],
        preserve_index=False)


def q59_outer_join(sf_dir: str) -> pa.Table:
    """Full-outer key-partitioned join (``hash_join(how="outer")``):
    urgent-order counts ⟗ negative-balance customers — unmatched rows
    survive from BOTH sides, sentinel-filled so the output is
    null-free for exact cross-engine hashing."""
    from ray.data.aggregate import Count

    from ..functions.relational import hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    left = (orders
            .filter(lambda r: r["o_orderpriority"] == "1-URGENT")
            .groupby("o_custkey").aggregate(Count(alias_name="n_urgent"))
            .map_batches(lambda b: b.rename_columns(["custkey", "n_urgent"]),
                         batch_format="pyarrow"))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def neg_bal(batch: pa.Table) -> pa.Table:
        m = pc.less(batch.column("c_acctbal"), 0.0)
        f = batch.filter(m)
        return pa.table({"custkey": f.column("c_custkey"),
                         "acctbal": f.column("c_acctbal")})

    right = cust.map_batches(neg_bal, batch_format="pyarrow")
    out = (hash_join(left, right, on="custkey", how="outer")
           .to_pandas().sort_values("custkey").reset_index(drop=True))
    out["custkey"] = out["custkey"].astype("int64")
    out["n_urgent"] = out["n_urgent"].fillna(0).astype("int64")
    out["acctbal"] = out["acctbal"].fillna(0.0).round(2)
    return pa.Table.from_pandas(out[["custkey", "n_urgent", "acctbal"]],
                                preserve_index=False)


def q60_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP aggregation (``functions.relational.rollup_sum``): sums and
    counts at (flag, status), (flag, ALL), (ALL, ALL) levels in one
    shuffle over combiner partials."""
    from ..functions.relational import rollup_sum

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    out = (rollup_sum(li, ["l_returnflag", "l_linestatus"], "l_quantity",
                      scale=100)
           .to_pandas()
           .sort_values(["l_returnflag", "l_linestatus"])
           .reset_index(drop=True))
    out["sum_value"] = out["sum_value"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(
        out[["l_returnflag", "l_linestatus", "sum_value", "n_rows"]],
        preserve_index=False)


def q72_cube(sf_dir: str) -> pa.Table:
    """CUBE aggregation (``functions.relational.cube_sum``): sums and
    counts at all four grouping sets of (flag, status) — (f,s), (f,ALL),
    (ALL,s), (ALL,ALL) — in one shuffle over 2^n-exploded combiner
    partials.  l_quantity is integer-valued so the scale=100 quantized
    sums are exact on both engines."""
    from ..functions.relational import cube_sum

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    out = (cube_sum(li, ["l_returnflag", "l_linestatus"], "l_quantity",
                    scale=100)
           .to_pandas()
           .sort_values(["l_returnflag", "l_linestatus"])
           .reset_index(drop=True))
    out["sum_value"] = out["sum_value"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(
        out[["l_returnflag", "l_linestatus", "sum_value", "n_rows"]],
        preserve_index=False)


def q61_range_join(sf_dir: str) -> pa.Table:
    """Keyless band join (``functions.relational.range_join``): events
    whose value falls in a half-unit price band derived from each part,
    rolled up per part.  Cents are round-half-up integers so the
    aggregate is associative and the oracle exact."""
    import numpy as np

    from ray.data.aggregate import Count, Sum

    from ..functions.relational import range_join

    ev = _read(sf_dir, "events", ["event_id", "value"])
    part = _read(sf_dir, "part", ["p_partkey", "p_retailprice"])

    def bands(batch: pa.Table) -> pa.Table:
        rp = batch.column("p_retailprice")
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "band_lo": pc.subtract(rp, 850.0),
            "band_hi": pc.subtract(rp, 849.5),
        })

    joined = range_join(ev, part.map_batches(bands, batch_format="pyarrow"),
                        "value", "band_lo", "band_hi")

    def cents(batch: pa.Table) -> pa.Table:
        if "value" not in batch.column_names:   # schema-less empty block
            return pa.table({"p_partkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        v = batch.column("value").to_numpy(zero_copy_only=False)
        c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({"p_partkey": batch.column("p_partkey"),
                         "cents": pa.array(c)})

    out = (joined.map_batches(cents, batch_format="pyarrow")
           .groupby("p_partkey")
           .aggregate(Count(alias_name="n_events"),
                      Sum("cents", alias_name="sum_cents"))
           .to_pandas().sort_values("p_partkey").reset_index(drop=True))
    for c in ("p_partkey", "n_events", "sum_cents"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["p_partkey", "n_events", "sum_cents"]],
                                preserve_index=False)


def q68_source_cap(sf_dir: str, k: int = 10) -> pa.Table:
    """C4/CommonCrawl-style per-domain document cap: keep at most ``k``
    documents per ``source``, selected by a deterministic content-hash
    order (``md5_number_upper`` — the q35 reproducible-sampling
    convention, so the oracle replays the exact same order) — the
    standard webtext guard against any one domain dominating the
    training mix.  Distributed as ``functions.relational.grouped_topk``:
    per-batch partial top-k (at most k rows per (batch, source) enter
    the shuffle), one hash(source) bucket exchange, vectorized per-key
    head(k) + rank."""
    import hashlib

    from ..functions.relational import grouped_topk

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def hkey(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hk = [int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                             "little") % 2147483647 for i in ids]
        return batch.append_column("hkey", pa.array(hk, pa.int64()))

    out = grouped_topk(
        docs.map_batches(hkey, batch_format="pyarrow"),
        key="source", order_by="hkey", k=k, descending=False,
        tiebreak=["doc_id"]).to_pandas()
    out = out.sort_values(["source", "rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        pd.DataFrame({
            "source": out["source"],
            "rnk": out["rank"].astype("int64"),
            "doc_id": out["doc_id"].astype("int64"),
        }), preserve_index=False)


def q70_bfs_distances(sf_dir: str, max_hops: int = 8) -> pa.Table:
    """Multi-source BFS hop distances (``graph_ops.bfs_distances``) from
    seeds {0, 1, 2} over a scale-adaptive event graph: n_nodes =
    n_events // 10 and every 7th event contributes an edge keep average
    degree ~2.9 at every scale factor — a giant component plus a fringe,
    so the hop frontier stays nontrivial for several rounds.  Oracle:
    the same expansion as a min-plus unroll to ``max_hops`` CTE rounds
    (both sides are round-synchronous, so they agree even short of
    convergence)."""
    from ..pipelines.graph_ops import bfs_distances

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        return pa.table({"src": pa.array(eid[keep] % n_nodes),
                         "dst": pa.array((eid[keep] + 11 * kk[keep])
                                         % n_nodes)})

    dist = bfs_distances(ds.map_batches(edges, batch_format="pyarrow"),
                         seeds=[0, 1, 2], max_hops=max_hops,
                         est_rows=n_events)
    out = dist.to_pandas().sort_values("node").reset_index(drop=True)
    for c in ("node", "dist"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "dist"]],
                                preserve_index=False)


def q71_boilerplate_clean(sf_dir: str) -> pa.Table:
    """CCNet-style boilerplate-line removal
    (``functions.corpus.boilerplate_clean``): lines shared by more than
    n_docs // 10 documents are dropped from every document (vs q38's
    keep-first dedup).  Fixture documents are single-line, so each is
    deterministically augmented with the q38 footer (shared by the
    ``doc_id % 7`` class — ~n/7 docs, above the n/10 threshold, so the
    footers are the boilerplate) and its 40-char prefix, identically in
    both engines."""
    from ..functions.corpus import boilerplate_clean

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        txts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        out = [
            f"{t}\nshared boilerplate footer line number {i % 7} for dedup"
            f"\n{t[:40]}"
            for t, i in zip(txts, ids)
        ]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(out, pa.string())})

    aug = docs.map_batches(augment, batch_format="pyarrow")
    out = (boilerplate_clean(aug, max_docs=n_docs // 10,
                             min_line_chars=30, est_rows=n_docs * 3)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_lines_kept", "n_lines_removed"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "n_lines_kept", "n_lines_removed", "clean_md5"]],
        preserve_index=False)


def q79_bm25_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 retrieval (``functions.corpus.bm25_topk``): top-k documents
    for a fixed query-term set — quantized integer contributions reduce
    associatively per doc; only query-term postings ever shuffle."""
    from ..functions.corpus import bm25_topk

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bm25_topk(docs, ["hash", "join", "window"],
                    n_docs=n_docs, k=k).to_pandas()
    for c in ("doc_id", "score_q", "n_terms"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "score_q", "n_terms"]],
                                preserve_index=False)


def q80_pmi_collocations(sf_dir: str, top_n: int = 50) -> pa.Table:
    """PMI collocations (``functions.corpus.pmi_topk``): top bigrams by
    pointwise mutual information with a min-count floor; combiner'd
    bigram/unigram tables, key-partitioned rehydration joins."""
    from ..functions.corpus import pmi_topk

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = pmi_topk(docs, top_n=top_n, min_count=5,
                   est_rows=n_docs * 30).to_pandas()
    for c in ("c12", "pmi_q"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["w1", "w2", "c12", "pmi_q"]],
                                preserve_index=False)


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q81_event_pivot(sf_dir: str) -> pa.Table:
    """Pivot: per-user event counts widened to one column per event type
    (the relational PIVOT / conditional-aggregate shape).  Map-side: a
    vectorized indicator table + in-batch Arrow group_by, so at most one
    partial row per (batch, user) enters the shuffle; the global reduce
    is an associative integer SUM per column."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        cols = {"user_id": batch.column("user_id")}
        for t in _EVENT_TYPES:
            cols[f"n_{t}"] = pc.cast(pc.equal(et, t), pa.int64())
        cols["n_total"] = pa.array(
            np.ones(batch.num_rows, dtype=np.int64))
        tab = pa.table(cols)
        aggs = [(c, "sum") for c in tab.schema.names if c != "user_id"]
        g = tab.group_by(["user_id"]).aggregate(aggs)
        return g.rename_columns(
            [n.replace("_sum", "") for n in g.schema.names])

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}")
                        for t in _EVENT_TYPES],
                      Sum("n_total", alias_name="n_total"))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    cols = (["user_id"] + [f"n_{t}" for t in _EVENT_TYPES] + ["n_total"])
    return pa.Table.from_pandas(out[cols], preserve_index=False)


def q82_zipf_slope(sf_dir: str, top_n: int = 30) -> pa.Table:
    """Zipf-law slope of the corpus frequency distribution: least-squares
    slope of ln(frequency) on ln(rank) over the top-``top_n`` vocabulary.
    The heavy part (global term counts) is the combiner'd distributed
    groupby of ``vocab_heavy_hitters``; the regression runs driver-side
    over the provably-small top-n rows using EXACT integer sums of
    1e9-quantized log coordinates (the covariance sums overflow int64, so
    Python bigints here and HUGEINT in the oracle — both then round the
    same integer ratio to the nearest double once)."""
    from ..functions.corpus import vocab_heavy_hitters

    docs = _read(sf_dir, "documents", ["text"])
    top = vocab_heavy_hitters(docs, top_n=top_n).to_pandas()
    n = len(top)
    rank = np.arange(1, n + 1, dtype=np.float64)
    freq = top["n_occurrences"].to_numpy().astype(np.float64)
    xq = [int(v) for v in np.floor(np.log(rank) * 1e9 + 0.5)]
    yq = [int(v) for v in np.floor(np.log(freq) * 1e9 + 0.5)]
    sx, sy = sum(xq), sum(yq)
    sxy = sum(a * b for a, b in zip(xq, yq))
    sxx = sum(a * a for a in xq)
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    slope_q = int(np.floor(slope * 1e6 + 0.5))
    return pa.table({"n_terms": pa.array([n], pa.int64()),
                     "slope_q": pa.array([slope_q], pa.int64())})


def q83_rolling_window(sf_dir: str) -> pa.Table:
    """Frame-based window aggregate: per-user rolling sum/count over
    ``ROWS BETWEEN 2 PRECEDING AND CURRENT ROW`` — the frame sibling of
    q34's unbounded running totals.  One hash(user) bucket shuffle (each
    user's timeline lives whole in its bucket), then a vectorized
    segment-aware cumsum-difference; values ride as exact integer cents
    (the q61 policy) so the rolling sums are associative-exact."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "v_q": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def roll(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        v = g["v_q"].to_numpy(np.int64)
        m = len(g)
        cs = np.cumsum(v)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_id = np.repeat(np.arange(len(starts)),
                           np.diff(np.r_[starts, m]))
        pos = np.arange(m) - starts[seg_id]
        lb = np.minimum(pos, 2)
        wstart = np.arange(m) - lb
        prev = np.where(wstart > 0, cs[np.maximum(wstart - 1, 0)], 0)
        g["roll_sum_q"] = cs - prev
        g["n_in_window"] = lb + 1
        return pd_to_arrow(g)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(roll, batch_format="pandas")
           .to_pandas().sort_values(["user_id", "ts_us", "event_id"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["event_id", "user_id", "ts_us", "roll_sum_q",
             "n_in_window"]], preserve_index=False)


def q84_ntile(sf_dir: str, k: int = 4) -> pa.Table:
    """Ranked window: NTILE(4) per user over integer-cent values — the
    rank-bucket primitive (quartile assignment for per-partition score
    normalization).  Same bucketed shape as q83; tiles computed
    vectorized from segment rank and length with exact SQL NTILE
    semantics (first ``n % k`` tiles take the extra row)."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "v_q": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def tiles(g: pd.DataFrame, _k=k):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "v_q", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        m = len(g)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_len = np.diff(np.r_[starts, m])
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        pos = np.arange(m) - starts[seg_id]
        n = seg_len[seg_id]
        base, rem = n // _k, n % _k
        big = rem * (base + 1)
        in_big = pos < big
        tile = np.where(
            in_big,
            pos // np.maximum(base + 1, 1) + 1,
            rem + np.where(base > 0, (pos - big) // np.maximum(base, 1),
                           0) + 1)
        g["tile"] = tile.astype(np.int64)
        return pd_to_arrow(g)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(tiles, batch_format="pandas")
           .to_pandas().sort_values(["user_id", "v_q", "event_id"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["event_id", "user_id", "v_q", "tile"]], preserve_index=False)


def q85_token_entropy(sf_dir: str) -> pa.Table:
    """Per-document token entropy (``functions.corpus.token_entropy``):
    int-quantized -(p ln p) terms, exact integer per-doc sums, zero
    shuffle."""
    from ..functions.corpus import token_entropy

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (token_entropy(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "n_tokens", "n_distinct", "entropy_q"]],
        preserve_index=False)


def q86_ngram_repetition(sf_dir: str) -> pa.Table:
    """Gopher-style duplicate-3-gram fraction per document
    (``functions.corpus.ngram_repetition``): exact integer ppm ratio,
    in-batch distinct counting, zero shuffle."""
    from ..functions.corpus import ngram_repetition

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (ngram_repetition(docs, n=3).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "n_ngrams", "n_distinct", "dup_ppm"]],
        preserve_index=False)


def q87_grouped_hll(sf_dir: str) -> pa.Table:
    """Per-source HLL distinct-token estimates
    (``functions.sketch.hll_grouped_distinct``): sparse MAX-mergeable
    (source, bucket, rho) partials — per-group COUNT(DISTINCT) without a
    per-group distinct shuffle."""
    from ..functions.sketch import hll_grouped_distinct

    docs = _read(sf_dir, "documents", ["source", "text"])
    return hll_grouped_distinct(docs, group_col="source")


def q88_embedding_moments(sf_dir: str) -> pa.Table:
    """Distributed Gram/second-moment matrix of the embedding table
    (``functions.clustering.embedding_moments``): one int-exact combiner
    partial per batch, associative SUM reduce — the PCA/whitening
    building block."""
    from ..functions.clustering import embedding_moments

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = 64
    out = (embedding_moments(emb, dim=dim).to_pandas()
           .sort_values(["i", "j"]).reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["i", "j", "sxy"]],
                                preserve_index=False)


def q89_knn_join(sf_dir: str, k: int = 3) -> pa.Table:
    """Embedding kNN similarity join (``functions.similarity.knn_join``):
    cosine top-k per query vector over the non-query corpus — broadcast
    query matrix, one matmul per batch, k·|queries| partial rows, global
    ``grouped_topk``.  Rank-checked (the q12 float convention)."""
    from ..functions.similarity import knn_join

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = _row_count(sf_dir, "embeddings")
    out = (knn_join(emb, query_ids=list(range(8)), k=k, est_rows=n)
           .to_pandas().rename(columns={"rank": "rnk"})
           .sort_values(["query_id", "rnk"]).reset_index(drop=True))
    for c in ("query_id", "rnk", "vec_id"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["query_id", "rnk", "vec_id"]],
                                preserve_index=False)


def q90_incremental_dedup(sf_dir: str) -> pa.Table:
    """Ingest-time dedup (``functions.dedup.incremental_dedup``): odd-id
    docs are the NEW shard, even-id docs the stored REFERENCE; content
    key = 60-char prefix fingerprint.  Bloom misses keep with zero
    shuffle; only Bloom hits verify through the exact anti join."""
    from ..functions.dedup import incremental_dedup

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def parity(batch: pa.Table, keep_odd: bool) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return batch.filter(pa.array((ids % 2 == 1) == keep_odd))

    new = docs.map_batches(lambda b: parity(b, True),
                           batch_format="pyarrow")
    ref = docs.map_batches(lambda b: parity(b, False),
                           batch_format="pyarrow")
    out = (incremental_dedup(new, ref, prefix=60, est_rows=n_docs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out[["doc_id"]], preserve_index=False)


def q91_fuzzy_name_pairs(sf_dir: str) -> pa.Table:
    """Fuzzy string self-join (``functions.dedup.edit1_pairs``):
    distinct part names at edit distance exactly 1, via
    deletion-neighborhood blocking + exact verify (no false negatives
    at distance 1, so output equals the quadratic levenshtein oracle)."""
    from ..functions.dedup import edit1_pairs

    n = _row_count(sf_dir, "part")
    parts = _read(sf_dir, "part", ["p_name"])
    out = (edit1_pairs(parts, "p_name", est_rows=n * 12)
           .to_pandas().sort_values(["name_a", "name_b"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(out[["name_a", "name_b"]],
                                preserve_index=False)


def q92_time_window_join(sf_dir: str, window_s: int = 1800) -> pa.Table:
    """Interval self-join / co-occurrence: pairs of SAME-USER events at
    most ``window_s`` apart — the stream-join primitive (asof = nearest
    single match; this is ALL matches in the window).  One hash(user)
    bucket shuffle co-locates each user's timeline, then a vectorized
    two-pointer (searchsorted on the sorted timeline) emits exactly the
    output pairs — never the per-user quadratic blow-up."""
    from ..schema import pd_to_arrow

    win_us = window_s * 1_000_000
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def pairs(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        m = len(g)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_end = np.r_[starts[1:], m]
        seg_id = np.repeat(np.arange(len(starts)),
                           np.diff(np.r_[starts, m]))
        # within each user segment: for row i, partners are rows
        # (i, hi) where hi = last index with ts <= ts_i + win.  ts is
        # sorted only WITHIN segments, so search on a segment-offset key
        # that is globally sorted: seg_id·BIG + (ts − min), BIG > any
        # in-bucket span + window (overflow bound: users-per-bucket ×
        # (span + win) < 2^63 — ample for epoch-us data)
        base = ts - (ts.min() if m else 0)
        big = (base.max() if m else 0) + win_us + 1
        skey = seg_id * big + base
        hi = np.searchsorted(skey, skey + win_us, side="right")
        hi = np.minimum(hi, seg_end[seg_id])
        # ties at equal ts: rows j in (i, hi) always satisfy the SQL
        # (ts_j, event_id_j) > (ts_i, event_id_i) order because the
        # frame is sorted by (user, ts, event_id)
        counts = np.maximum(hi - np.arange(m) - 1, 0)
        ia = np.repeat(np.arange(m), counts)
        if len(ia):
            grp_start = np.repeat(np.cumsum(counts) - counts, counts)
            ib = ia + (np.arange(len(ia)) - grp_start) + 1
        else:
            ib = np.array([], np.int64)
        out = pd.DataFrame({
            "user_id": uid[ia] if len(ia) else np.array([], np.int64),
            "event_a": eid[ia] if len(ia) else np.array([], np.int64),
            "event_b": eid[ib] if len(ib) else np.array([], np.int64),
            "dt_us": (ts[ib] - ts[ia]) if len(ia)
            else np.array([], np.int64),
        })
        return pd_to_arrow(out)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(pairs, batch_format="pandas")
           .to_pandas()
           .sort_values(["user_id", "event_a", "event_b"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "event_a", "event_b", "dt_us"]],
        preserve_index=False)


def q93_hdr_quantiles(sf_dir: str) -> pa.Table:
    """Mergeable-histogram quantiles (``functions.sketch.hdr_quantiles``):
    per-returnflag approximate p50/p90/p99 of price cents WITHOUT a
    distributed sort — integer HDR bins, combiner partials, exact
    cross-engine agreement on the sketch result (q39's exact-quantile
    sibling for the 100 TB regime)."""
    from ..functions.sketch import hdr_quantiles

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy().astype(np.float64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    out = hdr_quantiles(ds.map_batches(cents, batch_format="pyarrow"),
                        value_col="cents", group_col="l_returnflag")
    return out


def q94_prefix_jaccard(sf_dir: str) -> pa.Table:
    """Exact prefix-filtered set-similarity join
    (``functions.dedup.prefix_jaccard_pairs``): all doc pairs with
    5-word-shingle Jaccard >= 0.5 — AllPairs/PPJoin blocking, never the
    quadratic join, output identical to the quadratic oracle."""
    from ..functions.dedup import prefix_jaccard_pairs

    n = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (prefix_jaccard_pairs(docs, threshold=0.5, est_rows=n * 12)
           .to_pandas().sort_values(["doc_a", "doc_b"])
           .reset_index(drop=True))
    for c in ("doc_a", "doc_b"):
        out[c] = out[c].astype("int64")
    out["jaccard"] = out["jaccard"].astype("float64")
    return pa.Table.from_pandas(out[["doc_a", "doc_b", "jaccard"]],
                                preserve_index=False)


def q95_decayed_sum(sf_dir: str, half_life_s: int = 86400) -> pa.Table:
    """Exponentially time-decayed engagement per user — the streaming
    feature primitive (recency-weighted counts/values for ranking):
    ``Σ v·2^−(T−t)/τ`` with T = corpus max timestamp, τ = one day.
    Per-event terms are quantized to int64 (half-up) BEFORE the per-user
    reduce, so the sum is associative-exact at any parallelism; one
    combiner'd groupby, no sort, no window."""
    from ray.data.aggregate import Count, Sum

    tau_us = float(half_life_s) * 1e6
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    t_max = int(pd.Timestamp(ds.max("ts")).value // 1000)

    def terms(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        v_q = np.floor(v * 100.0 + 0.5)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        w = np.exp2(-(t_max - us) / tau_us)
        term_q = np.floor(v_q * w + 0.5).astype(np.int64)
        return pa.table({"user_id": batch.column("user_id"),
                         "term_q": pa.array(term_q)})

    out = (ds.map_batches(terms, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Sum("term_q", alias_name="decayed_q"),
                      Count(alias_name="n_events"))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "decayed_q", "n_events"]], preserve_index=False)


def q96_source_overlap(sf_dir: str) -> pa.Table:
    """Pairwise source-vocabulary overlap/containment/Jaccard matrix
    (``functions.mixing.source_overlap_matrix``): DISTINCT (source,
    token) combiner, one self hash_join on token, exact integer ppm
    ratios — the set-theoretic mixing diagnostic beside q77's KL."""
    from ..functions.mixing import source_overlap_matrix

    docs = _read(sf_dir, "documents", ["source", "text"])
    out = (source_overlap_matrix(docs).to_pandas()
           .sort_values(["src_a", "src_b"]).reset_index(drop=True))
    for c in ("n_common", "cont_a_ppm", "cont_b_ppm", "jaccard_ppm"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["src_a", "src_b", "n_common", "cont_a_ppm", "cont_b_ppm",
             "jaccard_ppm"]], preserve_index=False)


def q97_mad_outliers(sf_dir: str) -> pa.Table:
    """Robust outlier statistics per returnflag
    (``functions.quantiles.mad_outliers``): lower median, MAD, and the
    count beyond 3·MAD — two bounded histogram shuffles, all integer
    arithmetic."""
    from ..functions.quantiles import mad_outliers

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    return mad_outliers(ds, key="l_returnflag",
                        value_col="l_extendedprice")


def q98_user_trend(sf_dir: str) -> pa.Table:
    """Per-user least-squares trend of value over time — grouped linear
    regression, the per-entity drift/trend primitive.  Coordinates are
    quantized (seconds since the corpus min timestamp, integer cents) so
    the five regression sums per user are EXACT int64 combiner partials
    (x ≤ ~2.6e6 s, x² ≤ 7e12, well inside int64 at any corpus since
    partials are per-user); one groupby SUM reduce, slopes from one
    double division per user — bit-deterministic, oracle-exact."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    t0 = int(pd.Timestamp(ds.min("ts")).value // 1000)

    def partials(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        x = (us - t0) // 1_000_000           # seconds, int64 exact
        v = batch.column("value").to_numpy().astype(np.float64)
        y = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("sxx", alias_name="sxx"),
                      Count(alias_name="n"))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    n = agg["n"].astype("int64")
    # bigint-exact numerators/denominators, ONE double division
    num = (agg["n"].astype(object) * agg["sxy"].astype(object)
           - agg["sx"].astype(object) * agg["sy"].astype(object))
    den = (agg["n"].astype(object) * agg["sxx"].astype(object)
           - agg["sx"].astype(object) * agg["sx"].astype(object))
    slope = np.array([float(a) / float(b) if b else 0.0
                      for a, b in zip(num, den)], dtype=np.float64)
    slope_q = np.floor(slope * 1e9 + 0.5).astype(np.int64)
    return pa.table({
        "user_id": pa.array(agg["user_id"].astype("int64")),
        "n_events": pa.array(n),
        "slope_q": pa.array(slope_q),
    })


def q99_new_users_daily(sf_dir: str) -> pa.Table:
    """Running COUNT(DISTINCT) over time — daily first-seen users and the
    cumulative user count: the growth-curve primitive.  Distinct-over-
    time reduces to a per-user MIN (one combiner'd groupby over user
    ids), then a days-sized count + cumulative sum (provably tiny,
    driver-side) — never a per-day distinct shuffle."""
    from ray.data.aggregate import Min

    day_us = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "us": pc.cast(batch.column("ts"), pa.int64()),
        })

    first = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("user_id").aggregate(Min("us", alias_name="first_us"))
             .to_pandas())
    day = (first["first_us"].to_numpy(np.int64) // day_us)
    days, counts = np.unique(day, return_counts=True)
    cum = counts.cumsum()
    return pa.table({
        "day": pa.array(days.astype(np.int64)),
        "n_new": pa.array(counts.astype(np.int64)),
        "cum_users": pa.array(cum.astype(np.int64)),
    })


def q100_graph_stats(sf_dir: str) -> pa.Table:
    """Graph structure metrics (``graph_ops.graph_structure_stats``):
    degree assortativity + reciprocity of the deterministic
    event-derived edge list — six exact int64 moment sums, one SEMI
    join against the reversed edges, one sqrt at the end."""
    from ..pipelines.graph_ops import graph_structure_stats

    ds = _read(sf_dir, "events", ["event_id", "props"])
    edge_ds = (ds.map_batches(_event_edge_batch, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: b.drop_columns(["count()"]),
                            batch_format="pyarrow"))
    return graph_structure_stats(edge_ds,
                                 est_rows=_row_count(sf_dir, "events"))


def q101_zscore_normalize(sf_dir: str) -> pa.Table:
    """Per-entity feature normalization: each event's value as a z-score
    against its user's own mean/std — the standard ML-prep transform.
    User statistics reduce from exact int64 cent sums (n, Σv, Σv²) via
    one combiner'd groupby, then rehydrate onto events through the
    key-partitioned ``hash_join`` (the stats table at web scale is
    entity-sized — too big to broadcast); sample variance and the final
    z use one double expression written identically in the oracle,
    quantized half-up to 1e-6.  Single-event users take z = 0."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import hash_join

    n_events = _row_count(sf_dir, "events")
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({"event_id": batch.column("event_id"),
                         "user_id": batch.column("user_id"),
                         "c": pa.array(c),
                         "c2": pa.array(c * c)})

    cents_ds = ds.map_batches(cents,
                              batch_format="pyarrow").materialize()
    stats = (cents_ds.groupby("user_id")
             .aggregate(Sum("c", alias_name="sc"),
                        Sum("c2", alias_name="sc2"),
                        Count(alias_name="n")))
    joined = hash_join(
        cents_ds.map_batches(lambda b: b.drop_columns(["c2"]),
                             batch_format="pyarrow"),
        stats, on="user_id", est_rows=n_events)

    def zscore(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.float64)
        sc = batch.column("sc").to_numpy().astype(np.float64)
        sc2 = batch.column("sc2").to_numpy().astype(np.float64)
        n = batch.column("n").to_numpy().astype(np.float64)
        var = (n * sc2 - sc * sc) / (n * (n - 1.0))
        ok = (n > 1.0) & (var > 0.0)
        z = np.zeros(len(c))
        z[ok] = (c[ok] - sc[ok] / n[ok]) / np.sqrt(var[ok])
        zq = np.floor(z * 1e6 + 0.5).astype(np.int64)
        return pa.table({"event_id": batch.column("event_id"),
                         "user_id": batch.column("user_id"),
                         "z_q": pa.array(zq)})

    out = (joined.map_batches(zscore, batch_format="pyarrow")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["event_id", "user_id", "z_q"]],
                                preserve_index=False)


def q102_dense_daily_counts(sf_dir: str) -> pa.Table:
    """Gap-filled dense time series: events per (day, event_type) with
    ZERO rows for missing combinations — the grid-fill primitive every
    monitoring/training-curve pipeline needs.  Counts reduce via one
    combiner'd groupby; the dense (day x type) grid is generated
    driver-side from the min/max day (provably tiny) and LEFT-joined
    against the counts (``hash_join`` left + fill)."""
    from ray.data.aggregate import Count

    from ..functions.relational import hash_join

    day_us = 86_400_000_000
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({"day": pa.array(us // day_us),
                         "event_type": batch.column("event_type")})

    counts = (ds.map_batches(prep, batch_format="pyarrow")
              .groupby(["day", "event_type"])
              .aggregate(Count(alias_name="n")).to_pandas())
    lo, hi = int(counts["day"].min()), int(counts["day"].max())
    types = sorted(counts["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [range(lo, hi + 1), types], names=["day", "event_type"]
    ).to_frame(index=False)
    out = grid.merge(counts, on=["day", "event_type"], how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    out["day"] = out["day"].astype("int64")
    out = out.sort_values(["day", "event_type"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["day", "event_type", "n"]],
                                preserve_index=False)


def q103_type_drift(sf_dir: str) -> pa.Table:
    """Distribution-shift monitor: chi-square statistic between the
    event-type mix of the first and second half of the stream (split at
    the median event_id) — exact integer contingency counts via one
    combiner'd groupby, one quantized double expression for the
    statistic.  The drift alarm every production data pipeline runs."""
    from ray.data.aggregate import Count

    n_events = _row_count(sf_dir, "events")
    half = n_events // 2
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        return pa.table({
            "event_type": batch.column("event_type"),
            "late": pa.array((eid >= half).astype(np.int64)),
        })

    cont = (ds.map_batches(tag, batch_format="pyarrow")
            .groupby(["event_type", "late"])
            .aggregate(Count(alias_name="n")).to_pandas())
    pivot = (cont.pivot_table(index="event_type", columns="late",
                              values="n", fill_value=0, aggfunc="sum")
             .reindex(columns=[0, 1], fill_value=0))
    o_early = pivot[0].to_numpy(np.float64)
    o_late = pivot[1].to_numpy(np.float64)
    row = o_early + o_late
    n_e, n_l = float(o_early.sum()), float(o_late.sum())
    total = n_e + n_l
    # per-type terms quantized BEFORE the sum (the associative-reduce
    # policy — a float chi2 accumulation would be summation-order
    # dependent across engines)
    ee = row * n_e / total
    el = row * n_l / total
    term = ((o_early - ee) * (o_early - ee) / ee
            + (o_late - el) * (o_late - el) / el)
    term_q = np.floor(term * 1e6 + 0.5).astype(np.int64)
    return pa.table({
        "n_types": pa.array([len(row)], pa.int64()),
        "n_early": pa.array([int(n_e)], pa.int64()),
        "n_late": pa.array([int(n_l)], pa.int64()),
        "chi2_q": pa.array([int(term_q.sum())], pa.int64()),
    })


def q104_event_transitions(sf_dir: str) -> pa.Table:
    """Per-user event-type transition (Markov) matrix: counts of
    consecutive (cur → next) pairs ordered by time, with the quantized
    conditional probability P(next | cur) — the funnel/behavior-model
    primitive.  One hash(user) bucket shuffle co-locates timelines;
    transitions pair adjacent rows vectorized within user segments;
    counts reduce via an associative groupby, the denominator re-derives
    from the transition table itself (the q42 bigram-LM shape over
    events instead of tokens)."""
    from ray.data.aggregate import Sum

    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                      "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_type": batch.column("event_type"),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def transitions(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        same = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            same[1:] = uid[1:] == uid[:-1]
        cur = et[np.flatnonzero(same) - 1]
        nxt = et[same]
        out = (pd.DataFrame({"cur": cur, "nxt": nxt})
               .groupby(["cur", "nxt"], sort=False)
               .size().reset_index(name="n"))
        if out.empty:
            out = pd.DataFrame({"cur": pd.Series([], dtype="object"),
                                "nxt": pd.Series([], dtype="object"),
                                "n": pd.Series([], dtype="int64")})
        return pd_to_arrow(out)

    c = (events.map_batches(prep, batch_format="pyarrow")
         .groupby("__bucket").map_groups(transitions,
                                         batch_format="pandas")
         .groupby(["cur", "nxt"]).aggregate(Sum("n", alias_name="n"))
         .to_pandas())
    tot = c.groupby("cur")["n"].transform("sum").to_numpy(np.float64)
    nn = c["n"].to_numpy(np.float64)
    c["p_q"] = np.floor(nn * 1e6 / tot + 0.5).astype(np.int64)
    c["n"] = c["n"].astype("int64")
    c = c.sort_values(["cur", "nxt"]).reset_index(drop=True)
    return pa.Table.from_pandas(c[["cur", "nxt", "n", "p_q"]],
                                preserve_index=False)


def q105_percent_rank(sf_dir: str) -> pa.Table:
    """Continuous rank normalization: PERCENT_RANK() of each event's
    value within its user — quantized ``(rank−1)/(n−1)`` over the
    (v_q, event_id) total order; the rank sibling of q84's NTILE and
    q101's z-score.  Same one-bucket-shuffle shape; single-row groups
    take 0 (SQL PERCENT_RANK convention)."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "v_q": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def ranks(g: pd.DataFrame):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["user_id", "v_q", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        vq = g["v_q"].to_numpy(np.int64)
        m = len(g)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_len = np.diff(np.r_[starts, m])
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        # tie-aware SQL RANK: rows with equal (user, v_q) share the rank
        # of their run's first row
        change = np.r_[True, (uid[1:] != uid[:-1]) | (vq[1:] != vq[:-1])]
        run_start = np.maximum.accumulate(
            np.where(change, np.arange(m), -1))
        rank0 = (run_start - starts[seg_id]).astype(np.float64)
        n = seg_len[seg_id].astype(np.float64)
        pr = np.where(n > 1, rank0 / np.maximum(n - 1.0, 1.0), 0.0)
        g["pr_q"] = np.floor(pr * 1e6 + 0.5).astype(np.int64)
        return pd_to_arrow(g)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(ranks, batch_format="pandas")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["event_id", "user_id", "v_q", "pr_q"]],
        preserve_index=False)


def q106_retention_cohorts(sf_dir: str) -> pa.Table:
    """Retention cohort matrix: users cohorted by first-seen WEEK, then
    the count of cohort members active in each later week — the
    engagement-analytics staple.  Per-user first week is one combiner'd
    MIN groupby; distinct (user, week) activity is an in-set groupby;
    the cohort⋈activity rehydration is the key-partitioned hash_join
    (user-sized tables never broadcast at scale); output is the tiny
    (cohort, offset) matrix."""
    from ray.data.aggregate import Count, Min

    from ..functions.relational import hash_join

    week_us = 7 * 86_400_000_000
    n_events = _row_count(sf_dir, "events")
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({"user_id": batch.column("user_id"),
                         "week": pa.array(us // week_us)})

    weeks = ds.map_batches(prep, batch_format="pyarrow").materialize()
    cohort = weeks.groupby("user_id").aggregate(
        Min("week", alias_name="cohort_week"))
    active = (weeks.groupby(["user_id", "week"]).count()
              .map_batches(lambda b: b.select(["user_id", "week"]),
                           batch_format="pyarrow"))
    j = hash_join(active, cohort, on="user_id", est_rows=n_events)

    def offset(batch: pa.Table) -> pa.Table:
        w = batch.column("week").to_numpy().astype(np.int64)
        cw = batch.column("cohort_week").to_numpy().astype(np.int64)
        return pa.table({"cohort_week": batch.column("cohort_week"),
                         "week_offset": pa.array(w - cw)})

    out = (j.map_batches(offset, batch_format="pyarrow")
           .groupby(["cohort_week", "week_offset"])
           .aggregate(Count(alias_name="n_active"))
           .to_pandas().sort_values(["cohort_week", "week_offset"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["cohort_week", "week_offset", "n_active"]],
        preserve_index=False)


def q107_shuffled_dedup(sf_dir: str) -> pa.Table:
    """Word-order-invariant dedup (``functions.dedup.shuffled_dup_groups``):
    groups of documents that are token-multiset permutations.  Fixture
    documents are all distinct, so every 50th document is augmented with
    a REVERSED-token twin (id + 100000), identically in both engines —
    plain exact dedup misses these; the sorted-token fingerprint groups
    them."""
    from ..functions.dedup import shuffled_dup_groups

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        sel = ids % 50 == 0
        twin_ids = [int(i) + 100000 for i, s in zip(ids, sel) if s]
        twin_txt = [" ".join(reversed(t.split()))
                    for t, s in zip(texts, sel) if s]
        return pa.table({
            "doc_id": pa.array(list(ids) + twin_ids, pa.int64()),
            "text": pa.array(texts + twin_txt, pa.string()),
        })

    aug = docs.map_batches(augment, batch_format="pyarrow")
    out = (shuffled_dup_groups(aug).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for c in ("doc_id", "n_copies"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "n_copies"]],
                                preserve_index=False)


def q108_curation_v2(sf_dir: str,
                     min_entropy_q: int = 2_800_000_000,
                     max_dup_ppm: int = 20_000) -> pa.Table:
    """Composed curation v2 — the round-4 signals chained end to end:
    token-entropy floor → duplicate-3-gram ceiling → word-order-
    invariant dedup (keep min id per token-multiset) → benchmark
    decontamination (drop eval ids and 4-gram hits).  Every stage is a
    combiner'd operator from this round's family; surviving ids flow
    between stages as key-partitioned SEMI joins (id sets are
    corpus-sized at scale — never broadcast).  One CTE-chained oracle
    value-checks the whole composition, q54-style."""
    from ..functions.corpus import ngram_repetition, token_entropy
    from ..functions.dedup import shuffled_dup_groups
    from ..functions.mixing import decontaminate
    from ..functions.relational import hash_join

    n_docs = _row_count(sf_dir, "documents")
    # every inter-stage relation here is small (id sets / survivor
    # rows); joins and groupbys pay by BLOCK COUNT, so each one is
    # repartitioned to a size-derived handful of blocks before reuse
    # (the CLAUDE.md tiny-block gotcha)
    nb = resolve_n_blocks(n_docs)
    docs = _read(sf_dir, "documents",
                 ["doc_id", "source", "text"]).materialize()

    ent_ids = (token_entropy(docs)
               .map_batches(lambda b, _e=min_entropy_q: b.filter(
                   pc.greater_equal(b.column("entropy_q"), _e))
                   .select(["doc_id"]), batch_format="pyarrow")
               .repartition(nb).materialize())
    rep_ids = (ngram_repetition(docs, n=3)
               .map_batches(lambda b, _d=max_dup_ppm: b.filter(
                   pc.less_equal(b.column("dup_ppm"), _d))
                   .select(["doc_id"]), batch_format="pyarrow")
               .repartition(nb).materialize())
    q1 = (hash_join(hash_join(docs, ent_ids, on="doc_id", how="semi",
                              est_rows=n_docs),
                    rep_ids, on="doc_id", how="semi",
                    est_rows=n_docs)
          .repartition(nb).materialize())

    reps = (shuffled_dup_groups(q1)
            .map_batches(lambda b: b.select(["doc_id"]),
                         batch_format="pyarrow")
            .repartition(nb).materialize())
    q2 = (hash_join(q1, reps, on="doc_id", how="semi",
                    est_rows=n_docs)
          .repartition(nb).materialize())

    cont = (decontaminate(q2).map_batches(
        lambda b: b.select(["doc_id"]), batch_format="pyarrow")
        .repartition(nb).materialize())
    kept = hash_join(q2, cont, on="doc_id", how="anti",
                     est_rows=n_docs)

    def drop_eval(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return batch.filter(pa.array(ids % 97 != 0))

    out = (kept.map_batches(drop_eval, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "source"]],
                                preserve_index=False)


def q110_itemset_pairs(sf_dir: str, top_n: int = 40) -> pa.Table:
    """Market-basket pair mining: distinct part pairs co-occurring in the
    same order, ranked by support — the frequent-itemset primitive
    (Apriori's k=2 pass).  Both high-cardinality aggregations run as
    hash-BUCKET shuffles with vectorized pandas reducers (the repo's
    standard for million-key groupbys — Ray's sort-based aggregate pays
    per distinct key; measured 3x on this query at sf0.1):

    1. bucket by hash(order): per-bucket DISTINCT + self-merge +
       ``a < b`` + local pair counts — an order's lines co-locate, so
       pair generation completes bucket-locally;
    2. bucket by hash(pair): per-bucket exact totals + LOCAL top-N
       under the final (n DESC, a, b) total order — a pair's partials
       co-locate, so only N × buckets rows ever reach the driver.

    Pairs per order are C(|order|, 2) with |order| small and bounded in
    order-shaped data, never quadratic in the table."""
    from ..schema import pd_to_arrow

    n_li = _row_count(sf_dir, "lineitem")
    nb = int(max(16, min(4096, n_li // 100_000 + 1)))

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy().astype(np.uint64)
        b = ((k * np.uint64(2654435761)) >> np.uint64(16)) % np.uint64(nb)
        return batch.append_column("__bucket",
                                   pa.array(b.astype(np.int32)))

    def bucket_pairs(g: pd.DataFrame):
        g = g.drop_duplicates(["l_orderkey", "l_partkey"])
        m = g.merge(g, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        out = (m.groupby(["l_partkey_a", "l_partkey_b"], sort=False)
               .size().reset_index(name="n"))
        out.columns = ["part_a", "part_b", "n"]
        if out.empty:
            out = pd.DataFrame({"part_a": pd.Series([], dtype="int64"),
                                "part_b": pd.Series([], dtype="int64"),
                                "n": pd.Series([], dtype="int64")})
        return pd_to_arrow(out)

    partials = (_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
                .map_batches(add_bucket, batch_format="pyarrow")
                .groupby("__bucket")
                .map_groups(bucket_pairs, batch_format="pandas"))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.uint64)
        b = batch.column("part_b").to_numpy().astype(np.uint64)
        k = a * np.uint64(2654435761) + b * np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            "__b2", pa.array(((k >> np.uint64(16))
                              % np.uint64(nb)).astype(np.int32)))

    def bucket_top(g: pd.DataFrame, _n=top_n):
        tot = (g.groupby(["part_a", "part_b"], sort=False)["n"]
               .sum().reset_index(name="n_orders"))
        tot = tot.sort_values(["n_orders", "part_a", "part_b"],
                              ascending=[False, True, True],
                              kind="mergesort").head(_n)
        tot["n_orders"] = tot["n_orders"].astype("int64")
        if tot.empty:
            tot = pd.DataFrame({"part_a": pd.Series([], dtype="int64"),
                                "part_b": pd.Series([], dtype="int64"),
                                "n_orders": pd.Series([], dtype="int64")})
        return pd_to_arrow(tot[["part_a", "part_b", "n_orders"]])

    out = (partials.map_batches(add_pair_bucket, batch_format="pyarrow")
           .groupby("__b2")
           .map_groups(bucket_top, batch_format="pandas")
           .to_pandas()
           .sort_values(["n_orders", "part_a", "part_b"],
                        ascending=[False, True, True], kind="mergesort")
           .head(top_n).reset_index(drop=True))
    for c in ("part_a", "part_b", "n_orders"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["part_a", "part_b", "n_orders"]],
                                preserve_index=False)

def _skyline_mask(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2-D skyline (minimize price, maximize
    size); dominance requires >= on both dims and strict on one.  One
    lexsort + grouped prefix-max, no pairwise loop."""
    n = len(price)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-size, price))          # price asc, size desc
    p_s, s_s = price[order], size[order]
    cummax = np.maximum.accumulate(s_s)
    new_grp = np.concatenate(([True], p_s[1:] != p_s[:-1]))
    grp_idx = np.cumsum(new_grp) - 1
    grp_start = np.flatnonzero(new_grp)
    # max size among STRICTLY cheaper rows (-inf for the cheapest group)
    prev_end = grp_start[grp_idx] - 1
    prev_max = np.where(prev_end >= 0, cummax[np.maximum(prev_end, 0)],
                        -np.inf)
    grp_max = s_s[grp_start[grp_idx]]           # max size at SAME price
    dominated = (prev_max >= s_s) | (grp_max > s_s)
    keep = np.zeros(n, dtype=bool)
    keep[order] = ~dominated
    return keep


def q111_skyline(sf_dir: str) -> pa.Table:
    """Pareto/skyline query over part (cheapest price vs largest size):
    the multi-objective frontier primitive.  Skyline is algebraic —
    local pruning can only drop globally-dominated rows — so each batch
    emits its own frontier vectorized, and the union of frontiers (tiny
    relative to the input: O(distinct prices on the hull)) takes one
    final exact pass.  No quadratic NOT-EXISTS scan, no global sort of
    the full table."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])

    def local(batch: pa.Table) -> pa.Table:
        keep = _skyline_mask(
            batch.column("p_retailprice").to_numpy().astype(np.float64),
            batch.column("p_size").to_numpy().astype(np.float64))
        return batch.filter(pa.array(keep))

    cand = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    keep = _skyline_mask(cand["p_retailprice"].to_numpy(),
                         cand["p_size"].to_numpy().astype(np.float64))
    out = cand[keep].sort_values("p_partkey").reset_index(drop=True)
    return pa.Table.from_pandas(pd.DataFrame({
        "p_partkey": out["p_partkey"].astype("int64"),
        "p_size": out["p_size"].astype("int64"),
        "price": np.round(out["p_retailprice"], 2),
    }), preserve_index=False)


def q112_profile(sf_dir: str) -> pa.Table:
    """Distributed table profiler over events (delegates to
    ``functions.profiling.profile_table``) — per-column row count, null
    count, EXACT distinct count, numeric min/max (timestamps as
    epoch-µs) and lexicographic string min/max.  Two passes: streaming
    per-(block, column) partials to the driver, plus ONE shared
    (column, value) groupby for every exact distinct count
    (Arrow's injective value→string cast unifies the columns).  At
    100 TB swap pass 2 for the HLL sketch (q49/q87)."""
    from ..functions.profiling import profile_table

    spec = [("event_id", "num"), ("user_id", "num"), ("ts", "ts"),
            ("event_type", "str"), ("value", "num"), ("props", "str")]
    ds = _read(sf_dir, "events",
               [c for c, _ in spec]).materialize()
    return profile_table(ds, spec)

def q113_mode_per_user(sf_dir: str) -> pa.Table:
    """Per-group mode (most frequent event_type per user, ties broken
    lexicographically): one combiner'd (user, type) count groupby, then
    ``grouped_topk`` k=1 — the distributed argmax-by-count, never a
    per-group collect."""
    from ray.data.aggregate import Count

    from ..functions.relational import grouped_topk

    counts = (_read(sf_dir, "events", ["user_id", "event_type"])
              .groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="cnt")))
    out = (grouped_topk(counts, key="user_id", order_by="cnt", k=1,
                        descending=True, tiebreak=["event_type"])
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    return pa.Table.from_pandas(pd.DataFrame({
        "user_id": out["user_id"].astype("int64"),
        "mode_type": out["event_type"],
        "cnt": out["cnt"].astype("int64"),
    }), preserve_index=False)


_CORR_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q114_corr_matrix(sf_dir: str) -> pa.Table:
    """Pearson correlation matrix over lineitem's numeric columns in ONE
    streaming pass: values quantize to integer hundredths (corr is
    scale-invariant), each batch emits exact integer moment sums (n, Σx,
    Σx², Σxy) — accumulated per 4096-row sub-chunk into Python bigints
    so no int64 product can overflow, shipped as decimal strings — and
    the driver folds the O(blocks) partials exactly before one float
    division per pair.  No shuffle at all; the reduction is associative
    by construction (integer adds)."""
    import math
    from itertools import combinations

    ds = _read(sf_dir, "lineitem", _CORR_COLS)
    k = len(_CORR_COLS)
    pairs = list(combinations(range(k), 2))

    def partial(batch: pa.Table) -> pa.Table:
        cols = [np.floor(batch.column(c).to_numpy().astype(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
                for c in _CORR_COLS]
        n = batch.num_rows
        s = [0] * k
        ss = [0] * k
        sxy = [0] * len(pairs)
        for lo in range(0, n, 4096):
            hi = min(lo + 4096, n)
            ch = [c[lo:hi] for c in cols]
            for i in range(k):
                s[i] += int(ch[i].sum())
                ss[i] += int((ch[i] * ch[i]).sum())
            for j, (a, b) in enumerate(pairs):
                sxy[j] += int((ch[a] * ch[b]).sum())
        row = {"n": pa.array([n], pa.int64())}
        for i in range(k):
            row[f"s{i}"] = pa.array([str(s[i])], pa.string())
            row[f"ss{i}"] = pa.array([str(ss[i])], pa.string())
        for j in range(len(pairs)):
            row[f"sxy{j}"] = pa.array([str(sxy[j])], pa.string())
        return pa.table(row)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    S = [sum(int(v) for v in parts[f"s{i}"]) for i in range(k)]
    SS = [sum(int(v) for v in parts[f"ss{i}"]) for i in range(k)]
    SXY = [sum(int(v) for v in parts[f"sxy{j}"])
           for j in range(len(pairs))]

    rows = []
    for j, (a, b) in enumerate(pairs):
        num = n * SXY[j] - S[a] * S[b]
        den_a = n * SS[a] - S[a] * S[a]
        den_b = n * SS[b] - S[b] * S[b]
        corr = float(num) / math.sqrt(float(den_a) * float(den_b))
        rows.append((_CORR_COLS[a], _CORR_COLS[b],
                     float(np.round(corr, 6))))
    out = pd.DataFrame(rows, columns=["col_a", "col_b", "corr"])
    return pa.Table.from_pandas(out.sort_values(["col_a", "col_b"])
                                .reset_index(drop=True),
                                preserve_index=False)


def q115_melt(sf_dir: str) -> pa.Table:
    """UNPIVOT/melt of part's numeric attributes to long form — the
    inverse of q81's pivot.  Pure per-batch restructure: each input row
    emits one (key, attr, val) row per attribute, vectorized with Arrow
    concat; no shuffle, no driver loop."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])
    attrs = [("p_size", "p_size"), ("p_retailprice", "p_retailprice")]

    def melt(batch: pa.Table) -> pa.Table:
        keys, names, vals = [], [], []
        for col, name in attrs:
            k = batch.column("p_partkey").combine_chunks()
            keys.append(k if isinstance(k, pa.Int64Array)
                        else pc.cast(k, pa.int64()))
            names.append(pa.array([name] * batch.num_rows, pa.string()))
            v = pc.cast(batch.column(col), pa.float64()).combine_chunks()
            vals.append(v)
        return pa.table({
            "p_partkey": pa.concat_arrays(keys),
            "attr": pa.concat_arrays(names),
            "val": pc.round(pa.concat_arrays(vals), 2),
        })

    out = (ds.map_batches(melt, batch_format="pyarrow")
           .to_pandas().sort_values(["p_partkey", "attr"])
           .reset_index(drop=True))
    out["p_partkey"] = out["p_partkey"].astype("int64")
    out["val"] = out["val"].astype("float64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q116_sssp(sf_dir: str, max_hops: int = 6) -> pa.Table:
    """Weighted single-source shortest paths
    (``graph_ops.sssp_weighted``) from node 0 over q70's scale-adaptive
    event graph made directed, with deterministic integer weights
    ``w = 1 + (src·31 + dst·17) mod 9``.  Hop-bounded round-synchronous
    Bellman-Ford: the oracle unrolls the same min-plus relaxation to
    the same round count, so both sides agree even short of
    convergence."""
    from ..pipelines.graph_ops import sssp_weighted

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({"src": pa.array(src[ok], pa.int64()),
                         "dst": pa.array(dst[ok], pa.int64())})

    edge_ds = (ds.map_batches(edges, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: pa.table({
                   "src": b.column("src"),
                   "dst": b.column("dst"),
                   "w": pa.array(
                       1 + (b.column("src").to_numpy() * 31
                            + b.column("dst").to_numpy() * 17) % 9,
                       pa.int64()),
               }), batch_format="pyarrow"))

    out = (sssp_weighted(edge_ds, source=0, max_hops=max_hops,
                         est_rows=n_events)
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in ("node", "cost"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "cost"]],
                                preserve_index=False)


def q117_two_hop_reach(sf_dir: str) -> pa.Table:
    """Two-hop reach per node (distinct nodes reachable in ≤ 2 directed
    edges, self excluded) over q70's sparse event graph — the
    friends-of-friends primitive.  One bucketed self ``hash_join`` on
    the middle node produces the 2-hop pairs; a combiner'd DISTINCT
    (node, nb) groupby dedups path multiplicity before the per-node
    count, so multiplicity never inflates the shuffle beyond the
    distinct pair set."""
    from ray.data.aggregate import Count

    from ..functions.relational import hash_join

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({"src": pa.array(src[ok], pa.int64()),
                         "dst": pa.array(dst[ok], pa.int64())})

    nb = resolve_n_blocks(n_events)
    e = (ds.map_batches(edges, batch_format="pyarrow")
         .groupby(["src", "dst"]).count()
         .map_batches(lambda b: b.drop_columns(["count()"]),
                      batch_format="pyarrow")
         .repartition(nb).materialize())

    lhs = e.map_batches(lambda t: pa.table({
        "mid": t.column("dst"), "node": t.column("src")}),
        batch_format="pyarrow")
    rhs = e.map_batches(lambda t: pa.table({
        "mid": t.column("src"), "nb": t.column("dst")}),
        batch_format="pyarrow")
    two = hash_join(lhs, rhs, on="mid",
                    est_rows=n_events).map_batches(
        lambda t: pa.table({
            "node": pc.cast(t.column("node"), pa.int64(), safe=True),
            "nb": pc.cast(t.column("nb"), pa.int64(), safe=True)}),
        batch_format="pyarrow")
    one = e.map_batches(lambda t: pa.table({
        "node": t.column("src"), "nb": t.column("dst")}),
        batch_format="pyarrow")

    out = (one.union(two)
           .map_batches(lambda t: t.filter(
               pc.not_equal(t.column("node"), t.column("nb"))),
               batch_format="pyarrow")
           .groupby(["node", "nb"]).count()
           .groupby("node").aggregate(Count(alias_name="n_reach"))
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in ("node", "n_reach"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "n_reach"]],
                                preserve_index=False)


def q118_latest_snapshot(sf_dir: str) -> pa.Table:
    """Snapshot compaction / upsert-merge primitive: the LATEST event
    per (user, event_type) — ``row_number() OVER (PARTITION BY ...
    ORDER BY ts DESC, event_id) = 1`` as the distributed
    ``grouped_topk`` k=1 (map-side per-key partial keeps one row per
    key per batch, so at most |keys| rows per block enter the
    shuffle)."""
    from ..functions.relational import grouped_topk

    ds = _read(sf_dir, "events",
               ["user_id", "event_type", "ts", "event_id", "value"])
    out = (grouped_topk(ds, key=["user_id", "event_type"],
                        order_by="ts", k=1, descending=True,
                        tiebreak=["event_id"])
           .to_pandas().sort_values(["user_id", "event_type"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(pd.DataFrame({
        "user_id": out["user_id"].astype("int64"),
        "event_type": out["event_type"],
        "ts": out["ts"],
        "event_id": out["event_id"].astype("int64"),
        "value": np.round(out["value"], 2),
    }), preserve_index=False)


_DAY_US = 86_400 * 1_000_000


def q119_sliding_distinct(sf_dir: str) -> pa.Table:
    """Trailing 7-day distinct active users, per day — the sliding
    COUNT(DISTINCT) OVER RANGE window SQL engines refuse.  Bounded-
    window trick: dedup (day, user) first (one combiner'd groupby, so
    the amplification applies to the DISTINCT set, not raw events),
    then each (day, user) emits its 7 contribution days vectorized, and
    a second distinct-then-count groupby folds them — shuffle volume is
    7 × |distinct day-user|, independent of window semantics."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_user(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "day": pa.array(us // _DAY_US, pa.int64()),
            "user_id": batch.column("user_id"),
        })

    du = (ds.map_batches(day_user, batch_format="pyarrow")
          .groupby(["day", "user_id"]).count()
          .map_batches(lambda b: b.drop_columns(["count()"]),
                       batch_format="pyarrow"))

    def expand(batch: pa.Table) -> pa.Table:
        day = batch.column("day").to_numpy()
        usr = batch.column("user_id").to_numpy()
        offs = np.arange(7, dtype=np.int64)
        return pa.table({
            "wday": pa.array((day[:, None] + offs).ravel(), pa.int64()),
            "user_id": pa.array(np.repeat(usr, 7), pa.int64()),
        })

    out = (du.map_batches(expand, batch_format="pyarrow")
           .groupby(["wday", "user_id"]).count()
           .groupby("wday").aggregate(Count(alias_name="n_users"))
           .to_pandas().sort_values("wday").reset_index(drop=True))
    for c in ("wday", "n_users"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["wday", "n_users"]],
                                preserve_index=False)


def q122_user_paths(sf_dir: str) -> pa.Table:
    """Ordered per-user event path (``string_agg(event_type, '>' ORDER
    BY ts, event_id)``) — the sequence-export primitive feeding session
    mining / Markov tooling.  One hash(user) bucket shuffle co-locates
    timelines (q104's shape); the concat is vectorized per bucket and
    the canonical (ts, event_id) sort makes the output a total order."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                      "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_type": batch.column("event_type"),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def paths(g: pd.DataFrame):
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="mergesort")
        out = (g.groupby("user_id", sort=True)["event_type"]
               .agg([("path", ">".join), ("n_steps", "size")])
               .reset_index())
        out["n_steps"] = out["n_steps"].astype("int64")
        return pd_to_arrow(out)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(paths, batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    out["user_id"] = out["user_id"].astype("int64")
    return pa.Table.from_pandas(out[["user_id", "path", "n_steps"]],
                                preserve_index=False)


def q123_histogram(sf_dir: str, n_bins: int = 10) -> pa.Table:
    """Equi-width histogram of price per returnflag: pass 1 reduces
    global integer-cent min/max from per-batch partials (O(blocks) rows
    to the driver); pass 2 bins each row with PURE INTEGER arithmetic —
    ``bin = (c - min) * n_bins // (max - min + 1)`` — so bucket edges
    can't float-drift between engines, then one combiner'd groupby."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice"]).materialize()

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy().astype(np.float64)
        return pa.table({
            "f": batch.column("l_returnflag"),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    cds = ds.map_batches(cents, batch_format="pyarrow")

    def mm(batch: pa.Table) -> pa.Table:
        s = pc.min_max(batch.column("c"))
        return pa.table({"mn": pa.array([s["min"].as_py()], pa.int64()),
                         "mx": pa.array([s["max"].as_py()], pa.int64())})

    mmp = cds.map_batches(mm, batch_format="pyarrow").to_pandas()
    mn, mx = int(mmp["mn"].min()), int(mmp["mx"].max())
    width_den = mx - mn + 1

    def binit(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        return pa.table({
            "l_returnflag": batch.column("f"),
            "bin": pa.array((c - mn) * n_bins // width_den, pa.int64()),
        })

    out = (cds.map_batches(binit, batch_format="pyarrow")
           .groupby(["l_returnflag", "bin"])
           .aggregate(Count(alias_name="n"))
           .to_pandas().sort_values(["l_returnflag", "bin"])
           .reset_index(drop=True))
    for c in ("bin", "n"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["l_returnflag", "bin", "n"]],
                                preserve_index=False)


def q124_fk_audit(sf_dir: str) -> pa.Table:
    """Referential-integrity audit: orphan-row counts for every foreign
    key in the star schema, ALL checks through ONE hash-bucket shuffle.
    Each table is read ONCE and emits every (check, role) key stream it
    participates in from a single map_batches (tagging per stream paid
    640 union blocks at sf0.1 — sort-shuffle cost scales with BLOCK
    COUNT, the CLAUDE.md gotcha); bucketing by (check, key) co-locates
    a key's child rows with its parent row, so a vectorized per-bucket
    anti count emits tiny partials the driver sums.  The degraded
    check (orders minus keys ≡ 0 mod 13) proves the audit detects
    breakage; the standalone anti-join operator remains q08/q20's
    oracle-checked path."""
    from ..schema import pd_to_arrow

    CHECK_NAMES = [
        "lineitem.l_orderkey->orders",
        "lineitem.l_partkey->part",
        "orders.o_custkey->customer",
        "customer.c_nationkey->nation",
        "lineitem.l_orderkey->orders[degraded]",
    ]
    #: table -> [(check id, side, key column, degrade mod)]
    ROLES = {
        "lineitem": [(0, "c", "l_orderkey", None),
                     (1, "c", "l_partkey", None),
                     (4, "c", "l_orderkey", None)],
        "orders":   [(0, "p", "o_orderkey", None),
                     (2, "c", "o_custkey", None),
                     (4, "p", "o_orderkey", 13)],
        "customer": [(2, "p", "c_custkey", None),
                     (3, "c", "c_nationkey", None)],
        "part":     [(1, "p", "p_partkey", None)],
        "nation":   [(3, "p", "n_nationkey", None)],
    }
    CHILD_TABLE = ["lineitem", "lineitem", "orders", "customer",
                   "lineitem"]
    nb = int(max(16, min(4096,
                         _row_count(sf_dir, "lineitem") // 100_000 + 1)))

    def emit(roles):
        def f(batch: pa.Table) -> pa.Table:
            cids, sides, ks = [], [], []
            for cid, side, col, degrade in roles:
                k = batch.column(col).to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                if degrade is not None:
                    k = k[k % degrade != 0]
                cids.append(np.full(len(k), cid, np.int64))
                sides.append(np.full(len(k), side == "c", np.bool_))
                ks.append(k)
            cid = np.concatenate(cids)
            k = np.concatenate(ks)
            b = ((k.astype(np.uint64) * np.uint64(2654435761)
                  + cid.astype(np.uint64)
                  * np.uint64(0x9E3779B97F4A7C15))
                 >> np.uint64(16)) % np.uint64(nb)
            return pa.table({
                "cid": pa.array(cid),
                "is_child": pa.array(np.concatenate(sides)),
                "k": pa.array(k, pa.int64()),
                "__bucket": pa.array(b.astype(np.int32)),
            })
        return f

    streams = [
        _read(sf_dir, t, sorted({c for _, _, c, _ in roles}))
        .map_batches(emit(roles), batch_format="pyarrow")
        for t, roles in ROLES.items()
    ]
    uni = streams[0]
    for s in streams[1:]:
        uni = uni.union(s)

    def bucket_orphans(g: pd.DataFrame):
        rows = []
        for cid, sub in g.groupby("cid", sort=False):
            child = sub.loc[sub["is_child"], "k"]
            parents = sub.loc[~sub["is_child"], "k"]
            rows.append((int(cid),
                         int((~child.isin(parents)).sum())))
        out = pd.DataFrame(rows, columns=["cid", "n_orphans"])
        if out.empty:
            out = pd.DataFrame({"cid": pd.Series([], dtype="int64"),
                                "n_orphans": pd.Series([], dtype="int64")})
        out["cid"] = out["cid"].astype("int64")
        out["n_orphans"] = out["n_orphans"].astype("int64")
        return pd_to_arrow(out)

    parts = (uni.groupby("__bucket")
             .map_groups(bucket_orphans, batch_format="pandas")
             .to_pandas().groupby("cid")["n_orphans"].sum())

    rows = [(CHECK_NAMES[cid], int(parts.get(cid, 0)),
             _row_count(sf_dir, CHILD_TABLE[cid]))
            for cid in range(len(CHECK_NAMES))]
    out = pd.DataFrame(rows, columns=["chk", "n_orphan_rows",
                                      "n_child_rows"])
    out = out.sort_values("chk").reset_index(drop=True)
    for c in ("n_orphan_rows", "n_child_rows"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)

def q125_hot_keys(sf_dir: str, k: int = 10) -> pa.Table:
    """Hot-key skew detector (delegates to
    ``functions.profiling.hot_keys``): the top-k heaviest keys per
    candidate partition column with exact ppm row shares — the audit
    run BEFORE choosing a shuffle key (this repo's hash_join salting
    wants exactly this table; cf. ``relational.detect_hot_keys`` for
    the sampled in-flight variant)."""
    from ..functions.profiling import hot_keys

    n_events = _row_count(sf_dir, "events")
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return hot_keys(ds, ["user_id", "event_type"], n_events, k=k)

def q126_join_size(sf_dir: str) -> pa.Table:
    """Join-size computation WITHOUT materializing the join: both key
    columns ship tagged through ONE hash-bucket shuffle; inside each
    bucket (which holds every row of its keys from both sides) a
    vectorized count-merge yields Σ nₐ·n_b and the matched-key count
    as one partial row per bucket — the driver folds O(buckets) rows.
    The planner's exact cardinality probe for broadcast-vs-shuffle
    decisions (the sketch version at 100 TB is a CMS dot product,
    cf. q47).  No sort-based groupby, no join operator at all."""
    from ..schema import pd_to_arrow

    n_li = _row_count(sf_dir, "lineitem")
    nb = int(max(16, min(4096, n_li // 100_000 + 1)))

    def tag(col, side):
        def f(batch: pa.Table) -> pa.Table:
            k = batch.column(col).to_numpy().astype(np.uint64)
            b = ((k * np.uint64(2654435761)) >> np.uint64(16)) \
                % np.uint64(nb)
            return pa.table({
                "k": pc.cast(batch.column(col), pa.int64()),
                "side": pa.array([side] * batch.num_rows, pa.string()),
                "__bucket": pa.array(b.astype(np.int32)),
            })
        return f

    a = _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
        tag("l_orderkey", "a"), batch_format="pyarrow")
    b = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        tag("o_orderkey", "b"), batch_format="pyarrow")

    def bucket_probe(g: pd.DataFrame):
        va = g[g["side"] == "a"]["k"].value_counts()
        vb = g[g["side"] == "b"]["k"].value_counts()
        common = va.index.intersection(vb.index)
        return pd_to_arrow(pd.DataFrame({
            "n_keys": pd.Series([len(common)], dtype="int64"),
            "join_rows": pd.Series(
                [int((va[common] * vb[common]).sum())], dtype="int64"),
        }))

    parts = (a.union(b).groupby("__bucket")
             .map_groups(bucket_probe, batch_format="pandas")
             .to_pandas())
    return pa.Table.from_pandas(pd.DataFrame({
        "n_keys": [int(parts["n_keys"].sum())],
        "join_rows": [int(parts["join_rows"].sum())],
    }), preserve_index=False)

def q127_regional_revenue(sf_dir: str) -> pa.Table:
    """TPC-H-Q5-shaped 3-hop star join: lineitem ⋈ orders ⋈ customer ⋈
    nation ⋈ region, discounted revenue per region.  The dimension
    chain (region→nation→customer) folds driver-side while it fits
    ``BROADCAST_DIM_LIMIT`` (tiny pandas merges, shipped once via
    ray.put) and falls back to distributed hash joins beyond; the two
    fact hops (orders, then lineitem) are key-partitioned
    ``hash_join``s sized by Parquet-footer row counts.  Revenue
    quantizes to integer cents per row BEFORE the shuffle reduce
    (associative-exact at any parallelism)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import broadcast_join, hash_join

    n_li = _row_count(sf_dir, "lineitem")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    nr = nation.merge(region, left_on="n_regionkey",
                      right_on="r_regionkey")[["n_nationkey", "r_name"]]

    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    if _row_count(sf_dir, "customer") > BROADCAST_DIM_LIMIT:
        dim_ds = broadcast_join(
            cust_ds, nr.rename(columns={"n_nationkey": "c_nationkey"}),
            on="c_nationkey",
        ).map_batches(
            lambda b: pa.table({"o_custkey": b.column("c_custkey"),
                                "r_name": b.column("r_name")}),
            batch_format="pyarrow")
        o_dim = hash_join(orders, dim_ds, on="o_custkey",
                          est_rows=_row_count(sf_dir, "orders"))
    else:
        cust = cust_ds.to_pandas()
        dim = (cust.merge(nr, left_on="c_nationkey",
                          right_on="n_nationkey")
               [["c_custkey", "r_name"]]
               .rename(columns={"c_custkey": "o_custkey"}))
        o_dim = broadcast_join(orders, dim, on="o_custkey")

    o_dim = o_dim.map_batches(
        lambda b: pa.table({
            "l_orderkey": pc.cast(b.column("o_orderkey"), pa.int64(),
                                  safe=True),
            "r_name": b.column("r_name")}),
        batch_format="pyarrow")

    def rev(batch: pa.Table) -> pa.Table:
        p = batch.column("l_extendedprice").to_numpy()
        d = batch.column("l_discount").to_numpy()
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "rev_c": pa.array(np.floor(p * (1 - d) * 100 + 0.5)
                              .astype(np.int64)),
        })

    joined = hash_join(li.map_batches(rev, batch_format="pyarrow"),
                       o_dim, on="l_orderkey", est_rows=n_li)
    out = (joined.groupby("r_name")
           .aggregate(Sum("rev_c", alias_name="rev_c"),
                      Count(alias_name="n_lines"))
           .to_pandas().sort_values("r_name").reset_index(drop=True))
    for c in ("rev_c", "n_lines"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["r_name", "rev_c", "n_lines"]],
                                preserve_index=False)


def q128_cusum(sf_dir: str) -> pa.Table:
    """Per-user CUSUM change-point: the split index maximizing
    ``|cum_i·n − i·total|`` over the (ts, event_id)-ordered value
    series — drift detection for per-entity telemetry.  All integer:
    values quantize to cents and the statistic cross-multiplies instead
    of dividing, so both engines agree bit-for-bit; ties break to the
    earliest index.  One hash(user) bucket shuffle co-locates
    timelines; everything inside is vectorized prefix math."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events",
                   ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        v = batch.column("value").to_numpy().astype(np.float64)
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def cusum(g: pd.DataFrame):
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        starts = np.flatnonzero(np.concatenate(
            ([True], uid[1:] != uid[:-1])))
        ends = np.append(starts[1:], len(uid))
        rows_u, rows_i, rows_s = [], [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            seg = c[s:e]
            cum = np.cumsum(seg)[:-1]           # splits after i=1..n-1
            i = np.arange(1, n, dtype=np.int64)
            stat = np.abs(cum * n - i * int(seg.sum()))
            j = int(np.argmax(stat))            # first max = earliest i
            rows_u.append(int(uid[s]))
            rows_i.append(int(i[j]))
            rows_s.append(int(stat[j]))
        return pd_to_arrow(pd.DataFrame({
            "user_id": pd.Series(rows_u, dtype="int64"),
            "cut_idx": pd.Series(rows_i, dtype="int64"),
            "stat": pd.Series(rows_s, dtype="int64"),
        }))

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket").map_groups(cusum, batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    return pa.Table.from_pandas(out[["user_id", "cut_idx", "stat"]],
                                preserve_index=False)


def q129_containment_pairs(sf_dir: str, threshold_ppm: int = 500_000,
                           max_df: int = 20) -> pa.Table:
    """ASYMMETRIC set-containment join over 3-word shingles:
    ``|A ∩ B| / |A| ≥ 0.5`` — finds documents substantially CONTAINED
    in another (quotes, excerpts, supersets), which symmetric Jaccard
    (q15/q94) misses by construction.

    Scale shape — two hash-bucket shuffles, zero joins, no strings in
    any shuffle key: each doc emits its DISTINCT shingles once as
    128-bit md5 digests (two int64 columns, collision-proof for the
    exact-oracle comparison) with the doc's shingle-set size riding
    per row; bucketing by shingle co-locates every holder of a
    shingle, so df capping (``max_df``, the standard blocking bound on
    per-shingle df² fan-out — the oracle applies the SAME cap) and
    pair generation complete bucket-locally; bucketing by pair makes
    the totals exact.  Containment tests integer-cross-multiplied.
    (First cut used string shuffles + three sort-based groupbys + two
    hash joins: 49 s at sf0.1; this form is ~8x.)"""
    import hashlib

    from ..schema import pd_to_arrow

    n_docs = _row_count(sf_dir, "documents")
    nb = int(max(16, min(4096, n_docs * 200 // 250_000 + 1)))
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def shingles(batch: pa.Table) -> pa.Table:
        import re as _re

        tok_re = _re.compile(r"[0-9A-Za-z_]+")
        ids_out, lo_out, hi_out, sz_out = [], [], [], []
        ids = batch.column("doc_id").to_numpy()
        for did, txt in zip(ids, batch.column("text").to_pylist()):
            ws = tok_re.findall(txt.lower())
            if len(ws) < 3:
                continue
            shs = dict.fromkeys(" ".join(ws[i:i + 3])
                                for i in range(len(ws) - 2))
            sz = len(shs)
            for s in shs:
                d = hashlib.md5(s.encode()).digest()
                lo_out.append(int.from_bytes(d[:8], "little")
                              & 0x7FFFFFFFFFFFFFFF)
                hi_out.append(int.from_bytes(d[8:], "little")
                              & 0x7FFFFFFFFFFFFFFF)
                ids_out.append(int(did))
                sz_out.append(sz)
        return pa.table({"doc_id": pa.array(ids_out, pa.int64()),
                         "lo": pa.array(lo_out, pa.int64()),
                         "hi": pa.array(hi_out, pa.int64()),
                         "sz": pa.array(sz_out, pa.int64()),
                         "__bucket": pa.array(
                             [v % nb for v in lo_out], pa.int32())})

    def bucket_pairs(g: pd.DataFrame):
        df = g.groupby(["lo", "hi"], sort=False)["doc_id"].transform("size")
        g = g[df <= max_df]
        m = g.merge(g, on=["lo", "hi"], suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] != m["doc_id_b"]]
        out = (m.groupby(["doc_id_a", "doc_id_b"], sort=False)
               .agg(n=("sz_a", "size"), sz_a=("sz_a", "first"))
               .reset_index())
        out.columns = ["doc_a", "doc_b", "n", "sz_a"]
        if out.empty:
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in ("doc_a", "doc_b", "n", "sz_a")})
        return pd_to_arrow(out)

    partials = (docs.map_batches(shingles, batch_format="pyarrow")
                .groupby("__bucket")
                .map_groups(bucket_pairs, batch_format="pandas"))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.uint64)
        b = batch.column("doc_b").to_numpy().astype(np.uint64)
        k = a * np.uint64(2654435761) + b * np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            "__b2", pa.array(((k >> np.uint64(16))
                              % np.uint64(nb)).astype(np.int32)))

    def bucket_total(g: pd.DataFrame, _t=threshold_ppm):
        tot = (g.groupby(["doc_a", "doc_b"], sort=False)
               .agg(n_common=("n", "sum"), sz_a=("sz_a", "first"))
               .reset_index())
        keep = tot["n_common"] * 1_000_000 >= _t * tot["sz_a"]
        tot = tot[keep]
        tot["cont_ppm"] = (tot["n_common"] * 1_000_000
                           // tot["sz_a"]).astype("int64")
        tot["n_common"] = tot["n_common"].astype("int64")
        out = tot[["doc_a", "doc_b", "n_common", "cont_ppm"]]
        if out.empty:
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in out.columns})
        return pd_to_arrow(out)

    out = (partials.map_batches(add_pair_bucket, batch_format="pyarrow")
           .groupby("__b2")
           .map_groups(bucket_total, batch_format="pandas")
           .to_pandas().sort_values(["doc_a", "doc_b"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_a", "doc_b", "n_common", "cont_ppm"]],
        preserve_index=False)

def q130_snapshot_diff(sf_dir: str) -> pa.Table:
    """Keyed snapshot diff (change-data-capture counts): FULL OUTER
    ``hash_join`` of the current events table against a deterministic
    prior snapshot (every 5th row absent → ADDED, values bumped on
    multiples of 7 → CHANGED, a shifted clone of multiples of 11
    present only in the old snapshot → REMOVED), classified vectorized
    into added/removed/changed/unchanged counts.  Values compare as
    integer cents; the outer join's null sides are the classification
    signal, so the whole diff is one shuffle + one tiny groupby."""
    from ray.data.aggregate import Count

    from ..functions.relational import hash_join

    n_events = _row_count(sf_dir, "events")
    ds = _read(sf_dir, "events", ["event_id", "value"]).materialize()

    def new_side(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        return pa.table({
            "k": pc.cast(batch.column("event_id"), pa.int64()),
            "v_new": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    def old_side(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy().astype(np.float64)
        c = np.floor(v * 100 + 0.5).astype(np.int64)
        keep = eid % 5 != 0
        k1 = eid[keep]
        c1 = c[keep] + (k1 % 7 == 0)          # bumped → CHANGED in new
        rem = eid % 11 == 0
        k2 = -eid[rem] - 1                    # only-in-old → REMOVED
        c2 = c[rem]
        return pa.table({
            "k": pa.array(np.concatenate([k1, k2]), pa.int64()),
            "v_old": pa.array(np.concatenate([c1, c2]), pa.int64()),
        })

    new = ds.map_batches(new_side, batch_format="pyarrow")
    old = ds.map_batches(old_side, batch_format="pyarrow")
    j = hash_join(new, old, on="k", how="outer", est_rows=n_events,
                  left_schema=pa.schema([("k", pa.int64()),
                                         ("v_new", pa.int64())]),
                  right_schema=pa.schema([("k", pa.int64()),
                                          ("v_old", pa.int64())]))

    def classify(batch: pa.Table) -> pa.Table:
        vn = batch.column("v_new").to_numpy(zero_copy_only=False)
        vo = batch.column("v_old").to_numpy(zero_copy_only=False)
        n_null = pd.isna(vn)
        o_null = pd.isna(vo)
        status = np.where(o_null, "added",
                          np.where(n_null, "removed",
                                   np.where(vn != vo, "changed",
                                            "unchanged")))
        return pa.table({"status": pa.array(status, pa.string())})

    out = (j.map_batches(classify, batch_format="pyarrow")
           .groupby("status").aggregate(Count(alias_name="n"))
           .to_pandas().sort_values("status").reset_index(drop=True))
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out[["status", "n"]],
                                preserve_index=False)


def q132_watermark_late(sf_dir: str, watermark_s: int = 300) -> pa.Table:
    """Streaming watermark semantics over a batch table: each event's
    ARRIVAL time is its timestamp plus a deterministic per-event delay
    (``event_id mod 97`` seconds); an event is LATE for its 1-hour
    tumbling window iff it arrives after window end + watermark.  The
    on-time/late/dropped accounting a streaming ingest pipeline
    reports, expressed as one vectorized map + combiner'd groupby —
    batch and streaming agree because the classification is a pure
    function of (ts, arrival, window).  ``dropped`` uses 2× the
    watermark as the allowed-lateness bound."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def classify(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        arrival = us + (eid % 97) * 1_000_000
        win = us // _HOUR_US
        win_end = (win + 1) * _HOUR_US
        late = arrival > win_end + watermark_s * 1_000_000
        dropped = arrival > win_end + 2 * watermark_s * 1_000_000
        return pa.table({
            "win": pa.array(win, pa.int64()),
            "n_late": pa.array(
                (late & ~dropped).astype(np.int64)),
            "n_dropped": pa.array(dropped.astype(np.int64)),
        })

    out = (ds.map_batches(classify, batch_format="pyarrow")
           .groupby("win")
           .aggregate(Count(alias_name="n_events"),
                      Sum("n_late", alias_name="n_late"),
                      Sum("n_dropped", alias_name="n_dropped"))
           .to_pandas().sort_values("win").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["win", "n_events", "n_late", "n_dropped"]],
        preserve_index=False)


def q133_topk_with_ties(sf_dir: str, k: int = 3) -> pa.Table:
    """Grouped top-k WITH TIES — ``RANK() OVER (PARTITION BY flag ORDER
    BY qty DESC) <= k`` keeps every row tied at the boundary, the
    contract exact-k ``grouped_topk`` (q29) cannot express.  Scale
    shape: the (group, value) DISTINCT+count table is tiny after one
    combiner'd groupby (≤ |groups| × |distinct values|), so the driver
    derives each group's rank function (rank of a value = 1 + rows
    strictly greater) and boundary value, broadcasts the map, and one
    vectorized filter pass emits qualifying rows with their ranks — no
    per-group co-location of the fact table, immune to group skew."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_orderkey", "l_linenumber",
                "l_quantity"]).materialize()

    def q_int(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy().astype(np.float64)
        return pa.table({
            "f": batch.column("l_returnflag"),
            "q": pa.array(np.floor(q + 0.5).astype(np.int64)),
        })

    counts = (ds.map_batches(q_int, batch_format="pyarrow")
              .groupby(["f", "q"]).aggregate(Count(alias_name="n"))
              .to_pandas())
    rank_map: dict[tuple, int] = {}
    thresh: dict[str, int] = {}
    for f, sub in counts.groupby("f"):
        sub = sub.sort_values("q", ascending=False)
        rank, kept = 1, None
        for qv, n in zip(sub["q"], sub["n"]):
            if rank > k:
                break
            rank_map[(f, int(qv))] = rank
            kept = int(qv)
            rank += int(n)
        thresh[f] = kept
    t_ref = ray.put((rank_map, thresh))

    def pick(batch: pa.Table, _ref=t_ref) -> pa.Table:
        from ..state.broadcast import fetch

        rmap, th = fetch(_ref)
        f = batch.column("l_returnflag").to_pylist()
        q = np.floor(batch.column("l_quantity").to_numpy()
                     .astype(np.float64) + 0.5).astype(np.int64)
        keep = np.array([qq >= th.get(ff, np.iinfo(np.int64).max)
                         for ff, qq in zip(f, q)])
        sel = batch.filter(pa.array(keep))
        fs = sel.column("l_returnflag").to_pylist()
        qs = np.floor(sel.column("l_quantity").to_numpy()
                      .astype(np.float64) + 0.5).astype(np.int64)
        rnk = pa.array([rmap[(ff, int(qq))]
                        for ff, qq in zip(fs, qs)], pa.int64())
        return pa.table({
            "l_returnflag": sel.column("l_returnflag"),
            "l_orderkey": sel.column("l_orderkey"),
            "l_linenumber": pc.cast(sel.column("l_linenumber"),
                                    pa.int64()),
            "qty": pa.array(qs),
            "rnk": rnk,
        })

    out = (ds.map_batches(pick, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["l_returnflag", "rnk", "l_orderkey",
                         "l_linenumber"])
           .reset_index(drop=True))
    for c in ("l_orderkey", "l_linenumber", "qty", "rnk"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["l_returnflag", "l_orderkey", "l_linenumber", "qty",
             "rnk"]], preserve_index=False)


def q134_exact_n_sample(sf_dir: str, n: int = 20) -> pa.Table:
    """EXACT-n-per-stratum deterministic sample: the smallest-md5-rank n
    documents per language — eval-set construction wants exact counts
    and run-to-run stability, which q45's Bernoulli hash sampling (size
    only in expectation) can't give.  Content-hash rank makes the
    choice a pure function of the data; the two-stage ``grouped_topk``
    keeps at most n rows per (block, stratum) in the shuffle.  The
    oracle ranks by the same md5 text, so the comparison is exact."""
    import hashlib

    from ..functions.relational import grouped_topk

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def rank_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        hx = [hashlib.md5(str(int(i)).encode()).hexdigest()
              for i in ids]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "hkey": pa.array(hx, pa.string()),
        })

    out = (grouped_topk(docs.map_batches(rank_key,
                                         batch_format="pyarrow"),
                        key="lang", order_by="hkey", k=n,
                        descending=False, tiebreak=["doc_id"])
           .to_pandas().sort_values(["lang", "rank"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(pd.DataFrame({
        "lang": out["lang"],
        "rnk": out["rank"].astype("int64"),
        "doc_id": out["doc_id"].astype("int64"),
    }), preserve_index=False)


_VQ_OFFSET = 2_000_000


def q136_vector_quantiles(sf_dir: str) -> pa.Table:
    """Per-DIMENSION embedding quantiles (p50/p90/p99 for each of the 64
    vector components) — the vector-column profiling step before
    choosing PQ/IVF quantization ranges.  Components explode to (dim,
    value) rows vectorized; values shift to positive ints (±2.0 range →
    +2e6 at 1e-6 quantization) and flow through the mergeable HDR
    sketch (q93's machinery): one combiner'd (dim, bin) groupby, no
    sort, exact cross-engine agreement on the sketch result."""
    from ..functions.sketch import hdr_quantiles

    emb = _read(sf_dir, "embeddings", ["embedding"])

    def explode(batch: pa.Table) -> pa.Table:
        rows = batch.column("embedding").to_pylist()
        if not rows:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "vq": pa.array([], pa.int64())})
        M = np.asarray(rows, dtype=np.float64)
        n, d = M.shape
        vq = np.floor(M * 1e6 + 0.5).astype(np.int64) + _VQ_OFFSET
        dims = np.tile(np.arange(1, d + 1, dtype=np.int64), n)
        return pa.table({"dim": pa.array(dims),
                         "vq": pa.array(vq.ravel())})

    out = hdr_quantiles(emb.map_batches(explode, batch_format="pyarrow"),
                        value_col="vq", group_col="dim").to_pandas()
    out["approx_q"] = out["approx_q"].astype("int64") - _VQ_OFFSET
    out = out.sort_values(["dim", "q_ppt"]).reset_index(drop=True)
    for c in ("dim", "q_ppt", "n_rows"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["dim", "q_ppt", "approx_q",
                                     "n_rows"]], preserve_index=False)


def q137_pair_lift(sf_dir: str, min_support: int = 2,
                   top_n: int = 40) -> pa.Table:
    """Association LIFT for co-occurring part pairs —
    ``P(a,b) / (P(a)·P(b))`` in exact integer ppm — the statistical
    layer over q110's raw supports that separates popular-with-
    everything items from genuinely associated ones.  Same bucketed
    shape as q110 (order-hash buckets make DISTINCT + pair generation
    bucket-local; pair-hash buckets make totals exact); item supports
    and the distinct-order total reduce through one combiner'd groupby
    whose output is dimension-sized, so the lift join is a broadcast
    dict, and the final top-N never sorts globally."""
    from ..schema import pd_to_arrow

    n_li = _row_count(sf_dir, "lineitem")
    nb = int(max(16, min(4096, n_li // 100_000 + 1)))

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy().astype(np.uint64)
        b = ((k * np.uint64(2654435761)) >> np.uint64(16)) % np.uint64(nb)
        return batch.append_column("__bucket",
                                   pa.array(b.astype(np.int32)))

    base = (_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
            .map_batches(add_bucket, batch_format="pyarrow"))

    def bucket_pairs(g: pd.DataFrame):
        g = g.drop_duplicates(["l_orderkey", "l_partkey"])
        m = g.merge(g, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        out = (m.groupby(["l_partkey_a", "l_partkey_b"], sort=False)
               .size().reset_index(name="n"))
        out.columns = ["part_a", "part_b", "n"]
        if out.empty:
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in ("part_a", "part_b", "n")})
        return pd_to_arrow(out)

    def bucket_supports(g: pd.DataFrame):
        g = g.drop_duplicates(["l_orderkey", "l_partkey"])
        out = (g.groupby("l_partkey", sort=False)
               .size().reset_index(name="n"))
        out.columns = ["part", "n"]
        # sentinel row: this bucket's distinct-order count (orders are
        # bucket-exclusive, so the global N is the plain sum)
        out = pd.concat([out, pd.DataFrame(
            {"part": [-1], "n": [g["l_orderkey"].nunique()]})],
            ignore_index=True)
        out["part"] = out["part"].astype("int64")
        out["n"] = out["n"].astype("int64")
        return pd_to_arrow(out)

    from ray.data.aggregate import Sum

    supports = (base.groupby("__bucket")
                .map_groups(bucket_supports, batch_format="pandas")
                .groupby("part").aggregate(Sum("n", alias_name="n"))
                .to_pandas())
    sup = dict(zip(supports["part"].astype(int),
                   supports["n"].astype(int)))
    n_orders = sup.pop(-1)
    s_ref = ray.put((sup, n_orders))

    partials = (base.groupby("__bucket")
                .map_groups(bucket_pairs, batch_format="pandas"))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.uint64)
        b = batch.column("part_b").to_numpy().astype(np.uint64)
        k = a * np.uint64(2654435761) + b * np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            "__b2", pa.array(((k >> np.uint64(16))
                              % np.uint64(nb)).astype(np.int32)))

    def bucket_lift(g: pd.DataFrame, _ref=s_ref, _ms=min_support,
                    _n=top_n):
        from ..state.broadcast import fetch

        supd, N = fetch(_ref)
        tot = (g.groupby(["part_a", "part_b"], sort=False)["n"]
               .sum().reset_index(name="n_ab"))
        tot = tot[tot["n_ab"] >= _ms]
        if tot.empty:
            return pd_to_arrow(pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("part_a", "part_b", "n_ab", "lift_ppm")}))
        na = tot["part_a"].map(supd).astype("int64")
        nbb = tot["part_b"].map(supd).astype("int64")
        tot["lift_ppm"] = (tot["n_ab"].astype("int64") * N * 1_000_000
                           // (na * nbb))
        tot = tot.sort_values(["lift_ppm", "part_a", "part_b"],
                              ascending=[False, True, True],
                              kind="mergesort").head(_n)
        for c in tot.columns:
            tot[c] = tot[c].astype("int64")
        return pd_to_arrow(tot[["part_a", "part_b", "n_ab",
                                "lift_ppm"]])

    out = (partials.map_batches(add_pair_bucket, batch_format="pyarrow")
           .groupby("__b2")
           .map_groups(bucket_lift, batch_format="pandas")
           .to_pandas()
           .sort_values(["lift_ppm", "part_a", "part_b"],
                        ascending=[False, True, True], kind="mergesort")
           .head(top_n).reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["part_a", "part_b", "n_ab",
                                     "lift_ppm"]], preserve_index=False)


def q138_longest_streak(sf_dir: str) -> pa.Table:
    """Gaps-and-islands: each user's LONGEST run of consecutive active
    days plus their total active days — the retention/engagement streak
    metric, SQL's ``day − ROW_NUMBER()`` island trick as vectorized
    per-timeline numpy.  One combiner'd DISTINCT (user, day) groupby
    shrinks events to at most |users|×|days| rows, then one hash(user)
    bucket shuffle co-locates timelines; runs split on day-diff > 1."""
    from ..schema import pd_to_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_user(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "user_id": batch.column("user_id"),
            "day": pa.array(us // _DAY_US, pa.int64()),
        })

    du = (ds.map_batches(day_user, batch_format="pyarrow")
          .groupby(["user_id", "day"]).count()
          .map_batches(lambda b: pa.table({
              "user_id": b.column("user_id"),
              "day": b.column("day"),
              "__bucket": pa.array(
                  (b.column("user_id").to_numpy() % 64)
                  .astype(np.int32)),
          }), batch_format="pyarrow"))

    def streaks(g: pd.DataFrame):
        g = g.sort_values(["user_id", "day"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        new_run = np.concatenate(([True],
                                  (uid[1:] != uid[:-1])
                                  | (day[1:] != day[:-1] + 1)))
        run_id = np.cumsum(new_run)
        runs = (pd.DataFrame({"user_id": uid, "run": run_id})
                .groupby(["user_id", "run"], sort=False)
                .size().reset_index(name="len"))
        out = (runs.groupby("user_id", sort=True)
               .agg(longest_streak=("len", "max"),
                    n_active_days=("len", "sum"))
               .reset_index())
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return pd_to_arrow(out)

    out = (du.groupby("__bucket")
           .map_groups(streaks, batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "longest_streak", "n_active_days"]],
        preserve_index=False)


def q139_revenue_share(sf_dir: str) -> pa.Table:
    """Ratio-to-report: each nation's share of its REGION's revenue in
    exact ppm — ``SUM() OVER (PARTITION BY region)`` without a window:
    the (nation, region) revenue table is one combiner'd groupby
    (integer cents), region totals fold from that SAME small table
    driver-side, and the share is an integer division — no second pass
    over the fact table, no window shuffle.  The customer dimension
    broadcasts under ``BROADCAST_DIM_LIMIT`` and falls back to the
    key-partitioned ``hash_join`` beyond (q02/q127's gate)."""
    from ray.data.aggregate import Sum

    from ..functions.relational import broadcast_join, hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    nr = (nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")
          [["n_nationkey", "n_name", "r_name"]])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy().astype(np.float64)
        return pa.table({
            "o_custkey": batch.column("o_custkey"),
            "c": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    fact = orders.map_batches(cents, batch_format="pyarrow")
    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    if _row_count(sf_dir, "customer") > BROADCAST_DIM_LIMIT:
        dim_ds = broadcast_join(
            cust_ds, nr.rename(columns={"n_nationkey": "c_nationkey"}),
            on="c_nationkey",
        ).map_batches(
            lambda b: pa.table({"o_custkey": b.column("c_custkey"),
                                "n_name": b.column("n_name"),
                                "r_name": b.column("r_name")}),
            batch_format="pyarrow")
        joined = hash_join(fact, dim_ds, on="o_custkey",
                           est_rows=_row_count(sf_dir, "orders"))
    else:
        dim = (cust_ds.to_pandas()
               .merge(nr, left_on="c_nationkey",
                      right_on="n_nationkey")
               [["c_custkey", "n_name", "r_name"]]
               .rename(columns={"c_custkey": "o_custkey"}))
        joined = broadcast_join(fact, dim, on="o_custkey")

    out = (joined
           .groupby(["r_name", "n_name"])
           .aggregate(Sum("c", alias_name="rev_c"))
           .to_pandas())
    out["rev_c"] = out["rev_c"].astype("int64")
    tot = out.groupby("r_name")["rev_c"].transform("sum")
    out["share_ppm"] = (out["rev_c"] * 1_000_000
                        // tot).astype("int64")
    out = out.sort_values(["r_name", "n_name"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["r_name", "n_name", "rev_c", "share_ppm"]],
        preserve_index=False)


def q140_debounce(sf_dir: str, window_s: int = 3600) -> pa.Table:
    """Debounce / dedup-by-recency: drop any event repeating the same
    (user, event_type) within ``window_s`` of its PREVIOUS occurrence —
    the streaming noise-suppression filter (double-fires, retry storms).
    LAG semantics over hash(user)-bucket co-located timelines (q74's
    machinery): one shuffle, vectorized gap computation on the
    (user, type, ts, event_id) total order, emits surviving event ids."""
    from ..schema import pd_to_arrow

    events = _read(sf_dir, "events",
                   ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_type": batch.column("event_type"),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    win_us = window_s * 1_000_000

    def debounce(g: pd.DataFrame):
        g = g.sort_values(["user_id", "event_type", "ts_us",
                           "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy(np.int64)
        same = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            same[1:] = (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])
        gap = np.empty(len(g), np.int64)
        gap[0] = 0
        if len(g) > 1:
            gap[1:] = ts[1:] - ts[:-1]
        keep = ~same | (gap > win_us)
        out = pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(np.int64)[keep]})
        if out.empty:
            out = pd.DataFrame({"event_id": pd.Series([],
                                                      dtype="int64")})
        return pd_to_arrow(out)

    out = (events.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(debounce, batch_format="pandas")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    out["event_id"] = out["event_id"].astype("int64")
    return pa.Table.from_pandas(out[["event_id"]],
                                preserve_index=False)


def q141_dup_size_histogram(sf_dir: str) -> pa.Table:
    """Duplicate-cluster size distribution: how many exact-dup groups
    have 1, 2, 3… members — the dedup health report run BEFORE deciding
    aggressiveness (a fat tail means boilerplate mills, all-singletons
    means dedup is wasted work).  The synthetic corpus is all-unique,
    so the q71/q107 augmentation convention applies: every 10th doc
    gains one shifted-id copy and every 50th two (both engines build
    the same corpus).  Rides q09's exact_dedup (hash-partitioned group
    reps with ``n_copies``) plus one tiny combiner'd histogram groupby
    over group REPRESENTATIVES — cluster count, not corpus size."""
    from ray.data.aggregate import Count

    from ..functions.dedup import exact_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        parts = [batch]
        for mod, shift in ((10, 10_000_000), (50, 20_000_000)):
            keep = ids % mod == 0
            if keep.any():
                sel = batch.filter(pa.array(keep))
                parts.append(pa.table({
                    "doc_id": pa.array(
                        sel.column("doc_id").to_numpy()
                        .astype(np.int64) + shift),
                    "text": sel.column("text"),
                }))
        return pa.concat_tables(parts)

    out = (exact_dedup(docs.map_batches(augment,
                                        batch_format="pyarrow"))
           .map_batches(lambda b: pa.table({
               "group_size": pc.cast(b.column("n_copies"), pa.int64())}),
               batch_format="pyarrow")
           .groupby("group_size")
           .aggregate(Count(alias_name="n_groups"))
           .to_pandas().sort_values("group_size")
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["group_size", "n_groups"]],
                                preserve_index=False)


def q143_clustering_coefficient(sf_dir: str) -> pa.Table:
    """Local clustering coefficient per node
    (``graph_ops.clustering_coefficients``) over the shared q51/q65
    event-derived edge list: deg from one map-side-combined count over
    the distinct undirected edges, T from the wedge-join triangle count,
    cc quantized to integer ppm so the SQL twin (triangle CTE + degree
    CTE + the same floor arithmetic) matches bit-for-bit."""
    from ..pipelines.graph_ops import clustering_coefficients

    ds = _read(sf_dir, "events", ["event_id", "props"])
    edge_ds = ds.map_batches(_event_edge_batch, batch_format="pyarrow")
    out = (clustering_coefficients(
        edge_ds, est_rows=_row_count(sf_dir, "events"))
        .to_pandas().sort_values("node").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["node", "deg", "n_triangles", "cc_ppm"]],
        preserve_index=False)


def q146_grouping_sets(sf_dir: str) -> pa.Table:
    """Arbitrary GROUPING SETS (``relational.grouping_sets_sum``): order
    totals at (status, priority), (status), and grand-total levels —
    deliberately NOT a rollup prefix chain or a full cube (the
    (priority) set is skipped), exercising the general engine.  Cents
    are quantized integers so the shuffle Sum is associative and the
    oracle exact."""
    from ..functions.relational import grouping_sets_sum

    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    out = (grouping_sets_sum(
        orders, ["o_orderstatus", "o_orderpriority"], "o_totalprice",
        sets=[("o_orderstatus", "o_orderpriority"),
              ("o_orderstatus",), ()],
        scale=100)
        .to_pandas()
        .sort_values(["o_orderstatus", "o_orderpriority"])
        .reset_index(drop=True))
    out["sum_value"] = out["sum_value"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return pa.Table.from_pandas(
        out[["o_orderstatus", "o_orderpriority", "sum_value", "n_rows"]],
        preserve_index=False)


def q147_interval_coverage(sf_dir: str) -> pa.Table:
    """Per-user interval-union coverage: each event opens an interval
    [ts, ts + (event_id mod 7 + 1) minutes); overlapping intervals merge
    into islands and the covered time sums — the classic
    merge-overlapping-intervals operator (session stitching, on-call
    coverage, GPU-occupancy accounting).  One hash(user) bucket shuffle
    co-locates timelines; islands split where an interval starts after
    the running max end (vectorized per-bucket cummax, ties resolved by
    the (a, b) sort both engines share).  All-integer microseconds."""
    from ..schema import pd_to_arrow

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def iv(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "a": pa.array(us, pa.int64()),
            "b": pa.array(us + (eid % 7 + 1) * 60_000_000, pa.int64()),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def cover(g: pd.DataFrame):
        g = (g.sort_values(["user_id", "a", "b"], kind="mergesort")
             .reset_index(drop=True))
        prev_max = g.groupby("user_id", sort=False)["b"].cummax() \
            .groupby(g["user_id"], sort=False).shift(1)
        new_island = prev_max.isna() | (g["a"] > prev_max)
        g = g.assign(island=np.cumsum(new_island.to_numpy()))
        isl = (g.groupby(["user_id", "island"], sort=False)
               .agg(a_min=("a", "min"), b_max=("b", "max"))
               .reset_index())
        isl["len"] = isl["b_max"] - isl["a_min"]
        out = (isl.groupby("user_id", sort=True)
               .agg(n_islands=("island", "size"),
                    covered_us=("len", "sum"))
               .reset_index())
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return pd_to_arrow(out[["user_id", "n_islands", "covered_us"]])

    out = (ds.map_batches(iv, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: cover(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "n_islands", "covered_us"]],
        preserve_index=False)


def q148_fuzzy_edit2_pairs(sf_dir: str) -> pa.Table:
    """Bounded edit-distance similarity join
    (``dedup.edit_pairs_qgram``): all distinct part-name pairs within
    Levenshtein distance 2, with the exact distance — q-gram PREFIX
    filtering (global-rarity gram order, k·q+1 grams per value) plus the
    dedicated short-string block (part names span 7-12 chars, so BOTH
    sides of the q·(k+1) = 9 length threshold are exercised).  Oracle:
    DuckDB's levenshtein over the quadratic distinct self-join."""
    from ..functions.dedup import edit_pairs_qgram

    part = _read(sf_dir, "part", ["p_name"])
    out = (edit_pairs_qgram(part, "p_name", max_dist=2, q=3)
           .to_pandas().sort_values(["name_a", "name_b"])
           .reset_index(drop=True))
    out["dist"] = out["dist"].astype("int64")
    return pa.Table.from_pandas(out[["name_a", "name_b", "dist"]],
                                preserve_index=False)


def q149_sorted_neighborhood(sf_dir: str) -> pa.Table:
    """Sorted-neighborhood blocking (``dedup.sorted_neighborhood_pairs``)
    over customer names with window 3: pairs within 2 positions of each
    other in name order — the global-sort ER blocking that catches what
    hash/q-gram blocks miss.  c_custkey's range buckets preserve
    c_name's zero-padded lexicographic order (the operator's documented
    partitioning assumption); boundary pairs ride the carry copies.
    Oracle: ROW_NUMBER self-join."""
    from ..functions.dedup import sorted_neighborhood_pairs

    cust = _read(sf_dir, "customer", ["c_name", "c_custkey"])
    out = (sorted_neighborhood_pairs(cust, "c_name", "c_custkey",
                                     window=3)
           .to_pandas().sort_values(["name_a", "gap"])
           .reset_index(drop=True))
    out["gap"] = out["gap"].astype("int64")
    return pa.Table.from_pandas(out[["name_a", "name_b", "gap"]],
                                preserve_index=False)


def q150_temporal_reach(sf_dir: str, rounds: int = 4) -> pa.Table:
    """Time-respecting earliest arrival (``graph_ops.
    temporal_reachability``) from node 0 over the event-derived graph
    with each edge stamped by its event's epoch-microsecond timestamp —
    cascade reachability where paths cannot ride an edge into the past.
    Round-synchronous, so the SQL twin unrolls the identical ``rounds``
    relaxations and matches exactly even short of fixpoint."""
    from ..pipelines.graph_ops import temporal_reachability

    ds = _read(sf_dir, "events", ["event_id", "props", "ts"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        src = eid % 100
        dst = (eid + k) % 100
        keep = src != dst
        return pa.table({"src": pa.array(src[keep]),
                         "dst": pa.array(dst[keep]),
                         "ts": pa.array(us[keep], pa.int64())})

    out = (temporal_reachability(
        ds.map_batches(edges, batch_format="pyarrow"), seed=0, start=0,
        max_rounds=rounds, est_rows=_row_count(sf_dir, "events"))
        .to_pandas().sort_values("node").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "arrival"]],
                                preserve_index=False)


def q151_luby_mis(sf_dir: str, rounds: int = 3) -> pa.Table:
    """Luby maximal-independent-set rounds (``graph_ops.luby_mis``) over
    the shared event-derived graph: content-hash per-round priorities
    (bit-equal to DuckDB ``md5_number_upper >> 11``), winners beat every
    active neighbor strictly, winners+neighbors deactivate.
    Round-synchronous, so the SQL twin unrolls the identical rounds."""
    from ..pipelines.graph_ops import luby_mis

    ds = _read(sf_dir, "events", ["event_id", "props"])
    edge_ds = ds.map_batches(_event_edge_batch, batch_format="pyarrow")
    out = (luby_mis(edge_ds, max_rounds=rounds,
                    est_rows=_row_count(sf_dir, "events"))
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "round"]],
                                preserve_index=False)


def q152_rendezvous_reshard(sf_dir: str) -> pa.Table:
    """Consistent-placement reshard audit
    (``hashing.rendezvous_assign``): every doc's rendezvous shard at
    N = 8 and N = 9, rolled up per old shard with its mover count —
    the elastic-scaling property (only ≈ 1/9 of keys move, all onto the
    new shard) that makes HRW the placement scheme for partitioned
    caches/indexes; one stateless map + a combiner'd groupby.  Hashes
    are md5-derived, so the SQL twin replays them exactly."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import rendezvous_assign

    docs = _read(sf_dir, "documents", ["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        s8 = rendezvous_assign(ids, 8)
        s9 = rendezvous_assign(ids, 9)
        moved = (s8 != s9).astype(np.int64)
        # map-side combine: ≤ 8 partial rows per batch
        uniq, inv = np.unique(s8, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        m = np.zeros(len(uniq), np.int64)
        np.add.at(m, inv, moved)
        return pa.table({"shard8": pa.array(uniq, pa.int64()),
                         "__n": pa.array(n),
                         "__m": pa.array(m)})

    out = (docs.map_batches(assign, batch_format="pyarrow")
           .groupby("shard8")
           .aggregate(Sum("__n", alias_name="n_docs"),
                      Sum("__m", alias_name="n_moved"))
           .to_pandas().sort_values("shard8").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["shard8", "n_docs", "n_moved"]],
                                preserve_index=False)


def q153_weighted_median(sf_dir: str) -> pa.Table:
    """Per-flag WEIGHTED median price (weights = quantities): the robust
    location estimator behind fair-price/consensus aggregation — the
    smallest value whose cumulative weight reaches half the total.
    Defined over DISTINCT (flag, value) weight sums, so row order never
    matters; weights quantized to int64 (quantities are integer-valued)
    make every cumulative comparison exact.  A map-side combiner
    shrinks each batch to its distinct (flag, value) rows, ONE groupby
    sums them, and a per-flag bucket map_groups runs the tiny
    sort+cumsum."""
    from ray.data.aggregate import Sum

    from ..schema import pd_to_arrow

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["w"] = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        g = (df.groupby(["l_returnflag", "l_extendedprice"],
                        sort=False)["w"].sum().reset_index())
        g["w"] = g["w"].astype("int64")
        return pd_to_arrow(g)

    summed = (li.map_batches(partial, batch_format="pyarrow")
              .groupby(["l_returnflag", "l_extendedprice"])
              .aggregate(Sum("w", alias_name="w")))

    def median(g: pd.DataFrame):
        g = g.sort_values(["l_returnflag", "l_extendedprice"],
                          kind="mergesort")
        rows = []
        for f, sub in g.groupby("l_returnflag", sort=True):
            w = sub["w"].to_numpy(np.int64)
            cw = np.cumsum(w)
            tot = int(cw[-1])
            idx = int(np.searchsorted(2 * cw, tot))
            rows.append((f, float(sub["l_extendedprice"].iloc[idx])))
        return pd_to_arrow(pd.DataFrame(
            rows, columns=["l_returnflag", "w_median"]))

    out = (summed.map_batches(lambda t: t.append_column(
               "__bucket", pa.array(
                   [zlib.crc32(s.encode()) % 16
                    for s in t.column("l_returnflag").to_pylist()],
                   pa.int32())), batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: median(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .to_pandas().sort_values("l_returnflag")
           .reset_index(drop=True))
    out["w_median"] = out["w_median"].astype("float64")
    return pa.Table.from_pandas(out[["l_returnflag", "w_median"]],
                                preserve_index=False)


def q154_hits(sf_dir: str, rounds: int = 2) -> pa.Table:
    """HITS hubs/authorities (``pipelines.graph_ops.hits``) over the
    shared deterministic event graph: integer fixed-point with per-half-
    step MAX-normalization — every sum/max/floor-division replayed
    verbatim by the unrolled SQL twin, so the scores are bit-exact."""
    from ..pipelines.graph_ops import hits

    ds = _read(sf_dir, "events", ["event_id", "props"])
    edge_ds = ds.map_batches(_event_edge_batch, batch_format="pyarrow")
    out = (hits(edge_ds, n_iter=rounds,
                est_rows=_row_count(sf_dir, "events"))
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "auth_q", "hub_q"]],
                                preserve_index=False)


def q155_link_prediction(sf_dir: str, k: int = 20) -> pa.Table:
    """Common-neighbor / Jaccard link prediction
    (``pipelines.graph_ops.link_prediction_topk``) over the shared
    deterministic event graph: top-k non-adjacent pairs by integer-ppm
    neighborhood Jaccard — the missing-edge candidate generator."""
    from ..pipelines.graph_ops import link_prediction_topk

    ds = _read(sf_dir, "events", ["event_id", "props"])
    edge_ds = ds.map_batches(_event_edge_batch, batch_format="pyarrow")
    out = (link_prediction_topk(
               edge_ds, k=k, est_rows=_row_count(sf_dir, "events"))
           .to_pandas().reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["a", "b", "cn", "jacc_ppm"]],
                                preserve_index=False)


def q156_rrf_hybrid(sf_dir: str, k: int = 20, list_k: int = 50) -> pa.Table:
    """Hybrid-retrieval rank fusion: BM25 (``corpus.bm25_topk``) and
    vector-space TF-IDF (``corpus.tfidf_query_topk``) top-50 lists for
    the same query, fused by reciprocal-rank fusion
    (``corpus.rrf_fuse``: integer ``1e9 // (60 + rank)`` per list) —
    the standard lexical+second-signal search combiner.  Both input
    scores are quantized int64, so ranks and the fused score are exact
    cross-engine."""
    from ..functions.corpus import bm25_topk, rrf_fuse, tfidf_query_topk

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = ["hash", "join", "window"]
    bm = bm25_topk(docs, terms, n_docs=n_docs, k=list_k)
    tf = tfidf_query_topk(docs, terms, n_docs=n_docs, k=list_k)
    return rrf_fuse([bm, tf], ["bm25", "tfidf"], k=k)


def q157_scd2_intervals(sf_dir: str) -> pa.Table:
    """SCD type-2 dimension history (``relational.scd2_intervals``):
    each user's event_type stream becomes validity intervals
    [valid_from, valid_to) in epoch micros — consecutive same-state
    events collapse, the open current version ends at the 9999-12-31
    sentinel; (ts, event_id) ordering makes ties deterministic."""
    from ..functions.relational import scd2_intervals

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "state": batch.column("event_type"),
        })

    out = (scd2_intervals(ds.map_batches(prep, batch_format="pyarrow"),
                          key_col="user_id", ts_col="us",
                          state_col="state", tiebreak_col="event_id")
           .to_pandas()
           .sort_values(["user_id", "valid_from", "state"])
           .reset_index(drop=True))
    for c in ("user_id", "valid_from", "valid_to"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "state", "valid_from", "valid_to"]],
        preserve_index=False)


def q158_locf_daily(sf_dir: str) -> pa.Table:
    """Dense per-user daily balance panel with forward fill
    (``relational.forward_fill_daily``): each user's latest observed
    value (integer cents, q61 policy) carried forward from first
    observation through the global max day — the sparse-stream →
    rectangular-panel gap-fill."""
    from ..functions.relational import forward_fill_daily

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    out = (forward_fill_daily(
               ds.map_batches(prep, batch_format="pyarrow"),
               key_col="user_id", us_col="us", value_col="cents",
               tiebreak_col="event_id")
           .to_pandas().sort_values(["user_id", "day"])
           .reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["user_id", "day", "cents"]],
                                preserve_index=False)


def q159_snake_shards(sf_dir: str, n_shards: int = 8) -> pa.Table:
    """Token-balanced shard planning (``relational.snake_pack``):
    documents snake-packed into 8 shards by (n_chars DESC, doc_id)
    rank, rolled up to per-shard doc counts and char totals — the
    equal-work partitioner audit (per-shard totals should sit within
    one max-doc of each other)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import snake_pack

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = (snake_pack(docs, weight_col="n_chars", id_col="doc_id",
                      n_shards=n_shards,
                      est_rows=_row_count(sf_dir, "documents"))
           .groupby("shard")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_chars", alias_name="total_chars"))
           .to_pandas().sort_values("shard").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["shard", "n_docs", "total_chars"]],
                                preserve_index=False)


def q160_winsorized_stats(sf_dir: str) -> pa.Table:
    """Per-flag winsorized robust statistics: clip prices to the exact
    per-group [p5, p95] and report the clipped sum — outlier-robust
    aggregation for noisy pipelines.  Quantile cuts are defined by PURE
    INTEGER cumulative comparisons over distinct (flag, cents) weight
    sums (p5 = first value with 20·cum ≥ n; p95 = first with
    20·cum ≥ 19·n), so both engines agree without any float quantile
    semantics; the winsorized sum comes from the SAME (value, count)
    group scan — no second data pass."""
    from ray.data.aggregate import Sum

    from ..schema import pd_to_arrow

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["c"] = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        g = (df.groupby(["l_returnflag", "c"], sort=False)
             .size().reset_index(name="cnt"))
        g["cnt"] = g["cnt"].astype("int64")
        return pd_to_arrow(g[["l_returnflag", "c", "cnt"]])

    summed = (li.map_batches(partial, batch_format="pyarrow")
              .groupby(["l_returnflag", "c"])
              .aggregate(Sum("cnt", alias_name="cnt")))

    def winsor(g: pd.DataFrame):
        g = g.sort_values(["l_returnflag", "c"], kind="mergesort")
        rows = []
        for f, sub in g.groupby("l_returnflag", sort=True):
            c = sub["c"].to_numpy(np.int64)
            w = sub["cnt"].to_numpy(np.int64)
            cum = np.cumsum(w)
            n = int(cum[-1])
            p5 = int(c[np.searchsorted(20 * cum, n)])
            p95 = int(c[np.searchsorted(20 * cum, 19 * n)])
            wsum = int(np.sum(np.clip(c, p5, p95) * w))
            rows.append((f, p5, p95, n, wsum))
        return pd_to_arrow(pd.DataFrame(
            rows, columns=["l_returnflag", "p5_cents", "p95_cents",
                           "n_rows", "wsum_cents"]))

    out = (summed.map_batches(lambda t: t.append_column(
               "__bucket", pa.array(
                   [zlib.crc32(s.encode()) % 16
                    for s in t.column("l_returnflag").to_pylist()],
                   pa.int32())), batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: winsor(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .to_pandas().sort_values("l_returnflag")
           .reset_index(drop=True))
    for c in ("p5_cents", "p95_cents", "n_rows", "wsum_cents"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["l_returnflag", "p5_cents", "p95_cents", "n_rows",
             "wsum_cents"]], preserve_index=False)


def q161_gini_skew(sf_dir: str) -> pa.Table:
    """Key-distribution Gini coefficient over l_partkey frequencies —
    the skew audit that tells a planner whether a join/groupby key
    needs salting (0 = uniform, →1 = one hot key).  Exact-integer
    shape: per-key counts via a hash-bucket pandas reducer (q110
    idiom), folded to a tiny (count → n_keys) histogram (distinct
    count values, not keys, reach the driver); equal-count keys occupy
    consecutive ranks, so Σ rank·count per run is a closed form and
    the Gini numerator ``2·Σ i·xᵢ − (n+1)·Σ xᵢ`` (x ascending) is
    computed in exact big-int arithmetic, quantized to ppm by one
    floor division that the ROW_NUMBER oracle replays."""
    from ..schema import pd_to_arrow

    n_li = _row_count(sf_dir, "lineitem")
    nb = int(max(16, min(4096, n_li // 100_000 + 1)))

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column("l_partkey").to_numpy().astype(np.uint64)
        b = ((k * np.uint64(2654435761)) >> np.uint64(16)) % np.uint64(nb)
        return batch.append_column("__bucket",
                                   pa.array(b.astype(np.int32)))

    def key_count_hist(g: pd.DataFrame):
        per_key = g.groupby("l_partkey", sort=False).size()
        hist = per_key.value_counts().reset_index()
        hist.columns = ["c", "m"]
        for col in ("c", "m"):
            hist[col] = hist[col].astype("int64")
        return pd_to_arrow(hist)

    from ray.data.aggregate import Sum

    hist = (_read(sf_dir, "lineitem", ["l_partkey"])
            .map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(lambda g: key_count_hist(
                g.drop(columns="__bucket")), batch_format="pandas")
            .groupby("c").aggregate(Sum("m", alias_name="m"))
            .take_all())
    pairs = sorted((int(r["c"]), int(r["m"])) for r in hist)
    n = sum(m for _, m in pairs)
    total = sum(c * m for c, m in pairs)
    sum_ix = 0
    start = 1
    for c, m in pairs:
        sum_ix += c * (m * start + m * (m - 1) // 2)
        start += m
    num = 2 * sum_ix - (n + 1) * total
    gini_ppm = 1_000_000 * num // (n * total)
    return pa.table({
        "n_keys": pa.array([n], pa.int64()),
        "total_rows": pa.array([total], pa.int64()),
        "gini_ppm": pa.array([gini_ppm], pa.int64())})


def q162_vocab_churn(sf_dir: str, k: int = 20) -> pa.Table:
    """Cross-snapshot vocabulary drift (``corpus.vocab_churn_topk``):
    even-doc_id documents stand in for the "old" crawl, odd for the
    "new"; top-k tokens by symmetric smoothed integer-ppm frequency
    ratio among tokens with ≥ 30 combined occurrences."""
    from ..functions.corpus import vocab_churn_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def half(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy()
            return batch.filter(pa.array(ids % 2 == parity))
        return f

    old = docs.map_batches(half(0), batch_format="pyarrow")
    new = docs.map_batches(half(1), batch_format="pyarrow")
    out = (vocab_churn_topk(old, new, k=k).to_pandas()
           .reset_index(drop=True))
    for c in ("n_old", "n_new", "churn_ppm"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["token", "n_old", "n_new", "churn_ppm"]],
        preserve_index=False)


def q163_equi_depth_histogram(sf_dir: str, n_bins: int = 10) -> pa.Table:
    """Equi-depth price histogram (``quantiles.equi_depth_histogram``):
    10 equal-frequency bins over integer cents with exact NTILE bin
    sizes and value ranges — the range-partition planning statistic
    equi-width q123 can't give under skew."""
    from ..functions.quantiles import equi_depth_histogram

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy().astype(np.float64)
        return pa.table({"c": pa.array(
            np.floor(v * 100.0 + 0.5).astype(np.int64))})

    out = equi_depth_histogram(
        li.map_batches(cents, batch_format="pyarrow"), "c",
        n_bins=n_bins)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["bin", "n_rows", "min_val", "max_val"]],
        preserve_index=False)


def q164_boilerplate_attribution(sf_dir: str) -> pa.Table:
    """Boilerplate attribution by crawl source
    (``corpus.boilerplate_attribution``): duplicated-line occurrences
    (q38's augmented corpus — unique body + class-shared footer +
    40-char prefix) charged to their document's source — the "which
    source ships redundant bytes" curation report."""
    from ..functions.corpus import boilerplate_attribution

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def augment(batch: pa.Table) -> pa.Table:
        txts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        out = [
            f"{t}\nshared boilerplate footer line number {i % 7} for dedup"
            f"\n{t[:40]}"
            for t, i in zip(txts, ids)
        ]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(out, pa.string()),
                         "source": batch.column("source")})

    aug = docs.map_batches(augment, batch_format="pyarrow")
    out = (boilerplate_attribution(aug, est_rows=n_docs * 3)
           .to_pandas().sort_values("source").reset_index(drop=True))
    for c in ("n_dup_lines", "dup_chars"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["source", "n_dup_lines",
                                     "dup_chars"]], preserve_index=False)


def q165_topn_other(sf_dir: str, n: int = 5) -> pa.Table:
    """Top-N-plus-remainder report: the 5 users with the highest total
    spend (integer cents) as labeled rows plus ONE 'other' row holding
    everything else — the dashboard rollup that never ships the full
    key table to the driver.  Per-user totals reduce in a combiner'd
    groupby; a per-block partial top-N bounds the global sort to
    N×blocks rows; the remainder comes from corpus totals (a one-row
    combiner pass) minus the top-N — no second per-user pass."""
    from ray.data.aggregate import Count, Sum

    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    prepped = ev.map_batches(prep, batch_format="pyarrow")
    per = (prepped.groupby("user_id")
           .aggregate(Count(alias_name="n_events"),
                      Sum("cents", alias_name="total_cents"))
           .materialize())

    def local_top(batch: pa.Table, _n=n) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["total_cents", "user_id"],
                            ascending=[False, True],
                            kind="mergesort").head(_n)
        for c in df.columns:
            df[c] = df[c].astype("int64")
        return pd_to_arrow(df)

    top = (per.map_batches(local_top, batch_format="pyarrow")
           .sort(["total_cents", "user_id"], descending=[True, False])
           .limit(n).to_pandas())

    def totals(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "n": pa.array([int(df["n_events"].sum())], pa.int64()),
            "c": pa.array([int(df["total_cents"].sum())], pa.int64())})

    parts = per.map_batches(totals, batch_format="pyarrow").take_all()
    tot_n = sum(r["n"] for r in parts)
    tot_c = sum(r["c"] for r in parts)
    rows = [(str(int(u)), int(ne), int(tc)) for u, ne, tc in
            zip(top["user_id"], top["n_events"], top["total_cents"])]
    rows.append(("other", tot_n - int(top["n_events"].sum()),
                 tot_c - int(top["total_cents"].sum())))
    out = pd.DataFrame(rows, columns=["who", "n_events", "total_cents"])
    for c in ("n_events", "total_cents"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q166_boolean_and(sf_dir: str) -> pa.Table:
    """Boolean conjunctive retrieval: documents containing ALL of the
    query terms, with per-term frequencies pivoted wide — the inverted-
    index AND query (the unranked sibling of BM25/TF-IDF retrieval).
    Postings are bounded to |terms| × n_docs rows (the bm25 contract);
    the AND is one combiner'd per-doc groupby with conditional int
    sums, matching docs filter on term-count == |terms|."""
    from ray.data.aggregate import Count, Sum

    from ..functions.corpus import _tokenize_column

    terms = ["hash", "join", "window"]
    terms_arr = pa.array(terms, pa.string())
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def postings(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "tf_hash": pa.array([], pa.int64()),
                          "tf_join": pa.array([], pa.int64()),
                          "tf_window": pa.array([], pa.int64()),
                          "n_terms": pa.array([], pa.int64())})
        if len(flat) == 0:
            return empty
        p = np.asarray(parent, dtype=np.int64)
        keep = pc.is_in(flat, value_set=terms_arr)
        fp = pa.array(p, pa.int64()).filter(keep)
        ft = flat.filter(keep)
        if len(ft) == 0:
            return empty
        g = (pa.table({"pid": fp, "token": ft})
             .group_by(["pid", "token"]).aggregate([([], "count_all")]))
        tok = g.column("token").to_pylist()
        tf = g.column(g.schema.names[-1]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        cols = {t: np.where(np.array(tok) == t, tf, 0)
                for t in terms}
        return pa.table({
            "doc_id": batch.column("doc_id").take(g.column("pid")),
            "tf_hash": pa.array(cols["hash"]),
            "tf_join": pa.array(cols["join"]),
            "tf_window": pa.array(cols["window"]),
            "n_terms": pa.array(np.ones(len(tok), np.int64))})

    out = (docs.map_batches(postings, batch_format="pyarrow")
           .groupby("doc_id")
           .aggregate(Sum("tf_hash", alias_name="tf_hash"),
                      Sum("tf_join", alias_name="tf_join"),
                      Sum("tf_window", alias_name="tf_window"),
                      Count(alias_name="n_terms"))
           .to_pandas())
    out = out[out["n_terms"] == len(terms)]
    out = out.sort_values("doc_id").reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["doc_id", "tf_hash", "tf_join", "tf_window"]],
        preserve_index=False)


def q167_max_rate_60s(sf_dir: str, window_us: int = 60_000_000) -> pa.Table:
    """Rate-limiter audit: each user's maximum event count inside ANY
    sliding 60-second window — the burst detector behind throttling /
    abuse review.  One hash(user) bucket shuffle co-locates timelines;
    per user the window count is two searchsorteds over the sorted
    timestamps (``right(t) − left(t − (w−1))``), which counts all
    timestamp PEERS exactly like SQL's RANGE frame, so duplicate
    timestamps can't diverge the engines."""
    from ..schema import pd_to_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def max_rate(g: pd.DataFrame, _w=window_us):
        g = g.sort_values(["user_id", "us"], kind="mergesort")
        rows = []
        for uid, sub in g.groupby("user_id", sort=True):
            us = sub["us"].to_numpy(np.int64)
            hi = np.searchsorted(us, us, side="right")
            lo = np.searchsorted(us, us - (_w - 1), side="left")
            rows.append((int(uid), int((hi - lo).max())))
        return pd_to_arrow(pd.DataFrame(
            rows, columns=["user_id", "max_in_60s"]))

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: max_rate(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["user_id", "max_in_60s"]],
                                preserve_index=False)


def q168_peak_concurrency(sf_dir: str) -> pa.Table:
    """Global peak concurrency (``relational.peak_concurrency``): the
    maximum number of simultaneously-open event intervals (q147's
    [ts, ts + (event_id mod 7 + 1) min) convention) — capacity planning
    over the whole corpus via the range-bucketed distributed +1/−1
    sweep."""
    from ..functions.relational import peak_concurrency

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def iv(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        return pa.table({
            "a": pa.array(us, pa.int64()),
            "b": pa.array(us + (eid % 7 + 1) * 60_000_000, pa.int64())})

    peak = peak_concurrency(ds.map_batches(iv, batch_format="pyarrow"))
    n_iv = _row_count(sf_dir, "events")
    return pa.table({"n_intervals": pa.array([n_iv], pa.int64()),
                     "peak": pa.array([peak], pa.int64())})


def q169_hhi_concentration(sf_dir: str) -> pa.Table:
    """Market-concentration audit: per-nation Herfindahl–Hirschman index
    over customer shares of order revenue — ``HHI = Σ shareᵢ²`` in ppm,
    computed as ``10⁶·Σcᵢ² // T²`` with per-customer cent totals cᵢ so
    the only division is one exact big-int floor at the 25-row driver
    result.  Dimension chain folds driver-side under BROADCAST_DIM_LIMIT
    (q127 pattern); both aggregations are combiner'd groupbys.  Σcᵢ²
    rides int64 (bound documented: quantize to coarser units past
    ~10⁹-cent customers)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import broadcast_join, hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name"]).to_pandas()
    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    if _row_count(sf_dir, "customer") > BROADCAST_DIM_LIMIT:
        dim_ds = broadcast_join(
            cust_ds, nation.rename(columns={"n_nationkey":
                                            "c_nationkey"}),
            on="c_nationkey",
        ).map_batches(
            lambda b: pa.table({"o_custkey": b.column("c_custkey"),
                                "n_name": b.column("n_name")}),
            batch_format="pyarrow")
        od = hash_join(orders, dim_ds, on="o_custkey",
                       est_rows=_row_count(sf_dir, "orders"))
    else:
        cust = cust_ds.to_pandas()
        dim = (cust.merge(nation, left_on="c_nationkey",
                          right_on="n_nationkey")
               [["c_custkey", "n_name"]]
               .rename(columns={"c_custkey": "o_custkey"}))
        od = broadcast_join(orders, dim, on="o_custkey")

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy(
            zero_copy_only=False).astype(np.float64)
        return pa.table({
            "n_name": batch.column("n_name"),
            "o_custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
            "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    per_cust = (od.map_batches(cents, batch_format="pyarrow")
                .groupby(["n_name", "o_custkey"])
                .aggregate(Sum("cents", alias_name="c")))

    def square(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"n_name": batch.column("n_name"),
                         "c": pa.array(c),
                         "c2": pa.array(c * c)})

    agg = (per_cust.map_batches(square, batch_format="pyarrow")
           .groupby("n_name")
           .aggregate(Count(alias_name="n_customers"),
                      Sum("c", alias_name="total_cents"),
                      Sum("c2", alias_name="sumsq"))
           .to_pandas().sort_values("n_name").reset_index(drop=True))
    hhi = [int(1_000_000 * int(s) // (int(t) * int(t)))
           for s, t in zip(agg["sumsq"], agg["total_cents"])]
    out = pd.DataFrame({
        "n_name": agg["n_name"],
        "n_customers": agg["n_customers"].astype("int64"),
        "total_cents": agg["total_cents"].astype("int64"),
        "hhi_ppm": pd.Series(hhi, dtype="int64")})
    return pa.Table.from_pandas(out, preserve_index=False)


def q170_loo_mean(sf_dir: str) -> pa.Table:
    """Leave-one-out group mean (target-encoding primitive): for every
    event, the integer-cents mean of the OTHER events of the same user
    — ``(T − x) // (n − 1)`` — the leakage-free per-row encoding used
    for categorical features; single-event users drop (undefined).
    One hash(user) bucket shuffle, vectorized pandas transform inside."""
    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy().astype(np.float64)
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "user_id": pa.array(uid),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def loo(g: pd.DataFrame):
        grp = g.groupby("user_id", sort=False)["c"]
        t = grp.transform("sum").to_numpy(np.int64)
        n = grp.transform("size").to_numpy(np.int64)
        keep = n > 1
        out = pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64)[keep],
            "loo_cents": ((t - g["c"].to_numpy(np.int64))[keep]
                          // (n[keep] - 1)),
        })
        return pd_to_arrow(out)

    out = (ev.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: loo(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["event_id", "loo_cents"]],
                                preserve_index=False)


def q171_table_checksum(sf_dir: str) -> pa.Table:
    """Order-independent table fingerprint (anti-entropy / replica-sync
    verification): per-row 53-bit content hashes
    (``stable_u64('chk\\0id\\0text') >> 11`` — the luby/md5 identity, so
    the SQL twin replays them bit-for-bit) summed modulo the Mersenne
    prime 2⁶¹−1.  The mod-sum is associative, so per-batch big-int
    partials reduce exactly at any parallelism; only (count, partial)
    int pairs reach the driver."""
    from ..functions.hashing import stable_u64

    M = (1 << 61) - 1
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        txts = batch.column("text").to_pylist()
        s = 0
        for i, t in zip(ids, txts):
            s += stable_u64(f"chk\x00{i}\x00{t}") >> 11
        return pa.table({"n": pa.array([len(ids)], pa.int64()),
                         "s": pa.array([s % M], pa.int64())})

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    s = sum(r["s"] for r in parts) % M
    return pa.table({"n_rows": pa.array([n], pa.int64()),
                     "checksum": pa.array([s], pa.int64())})


def q172_auc_rank_sum(sf_dir: str) -> pa.Table:
    """Exact distributed AUC (Mann-Whitney rank-sum) of ``value`` as a
    classifier score for purchase events — the model-eval primitive a
    training pipeline runs over billions of scored rows.  AUC =
    (Σ_s pos_s·neg_below(s) + ½·Σ_s pos_s·neg_s) / (n_pos·n_neg), all
    integer: scores quantize to cents, the ×2 trick keeps the tie term
    integral, and the one division is a final exact big-int floor at the
    driver (ppm).  neg_below needs a global prefix sum over sorted
    scores — the two-pass range-bucket scan (``mixing.sequence_packing``
    pattern): per-batch combiner → per-cents totals bucketed by value
    range → pass 1 reduces each bucket to two ints for the driver's
    offset table → pass 2 resolves each bucket independently to ONE
    partial row.  No driver materialization beyond B-row tables."""
    from ray.data.aggregate import Max, Min, Sum

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        p = pc.equal(batch.column("event_type"), "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"c": c, "pos": p, "neg": 1 - p}) \
            .groupby("c", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    per_score = ev.map_batches(partials,
                               batch_format="pyarrow").materialize()
    bounds = per_score.aggregate(Min("c"), Max("c"))
    mn, mx = int(bounds["min(c)"]), int(bounds["max(c)"])
    n_buckets = 64
    span = max(1, (mx - mn) // n_buckets + 1)

    bucketed = per_score.map_batches(
        lambda b: b.append_column(
            "__bucket",
            pc.cast(pc.divide(pc.subtract(b.column("c"), mn), span),
                    pa.int32())),
        batch_format="pyarrow").materialize()

    # pass 1: per-bucket neg totals -> exclusive-scan offsets (<=64 ints)
    tot = {int(r["__bucket"]): (int(r["sum(pos)"]), int(r["sum(neg)"]))
           for r in bucketed.groupby("__bucket")
           .aggregate(Sum("pos"), Sum("neg")).take_all()}
    neg_off, acc = {}, 0
    for b in sorted(tot):
        neg_off[b] = acc
        acc += tot[b][1]
    n_pos = sum(p for p, _ in tot.values())
    n_neg = acc

    # pass 2: each bucket resolves to one (2*pos*neg_below + pos*neg_same)
    # partial; cross-bucket coupling is ONLY the broadcast offset scalar
    def bucket_num(g: pd.DataFrame, _off=neg_off) -> pa.Table:
        if not len(g):
            return pa.table({"num": pa.array([], pa.int64())})
        nb = _off[int(g["__bucket_val"].iloc[0])]
        g = (g.groupby("c", sort=True, as_index=False)[["pos", "neg"]]
             .sum())
        neg_below = nb + g["neg"].cumsum().shift(fill_value=0)
        num = int((2 * g["pos"] * neg_below + g["pos"] * g["neg"]).sum())
        return pa.table({"num": pa.array([num], pa.int64())})

    parts = (bucketed.map_batches(
        lambda b: b.append_column(
            "__bucket_val", pc.cast(b.column("__bucket"), pa.int64())),
        batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(lambda g: bucket_num(g.drop(columns="__bucket")),
                    batch_format="pandas"))
    num = sum(r["num"] for r in parts.take_all())
    auc = (1_000_000 * num) // (2 * n_pos * n_neg) \
        if n_pos and n_neg else None
    return pa.table({"n_pos": pa.array([n_pos], pa.int64()),
                     "n_neg": pa.array([n_neg], pa.int64()),
                     "auc_ppm": pa.array([auc], pa.int64())})


def q173_last_touch_attribution(sf_dir: str) -> pa.Table:
    """Marketing-style last-touch attribution: every purchase credits the
    most recent NON-purchase event of the same user strictly before it
    and at most 7 days old (no touch -> '(none)').  Same partitioning
    assumption as ``relational.asof_join`` — one hash(user) shuffle
    co-locates each user's full timeline — but dedup (one touch per
    (user, ts), max event_id wins, matching the SQL's
    ``ORDER BY ts DESC, event_id DESC`` pick) happens inside the
    co-located group, so the whole operator is ONE shuffle.  Within a
    bucket the credit assignment is a vectorized ``pd.merge_asof``
    (backward, strict, 7-day tolerance).  Output is the per-touch-type
    conversion count and revenue, a 5-row driver result."""
    from ray.data.aggregate import Sum

    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type", "value"])
    horizon_us = 7 * 24 * 3600 * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "user_id": pa.array(uid),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_type": batch.column("event_type"),
            "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32)),
        })

    def attribute(g: pd.DataFrame, _h=horizon_us):
        conv = g[g["event_type"] == "purchase"]
        tch = g[g["event_type"] != "purchase"]
        # one touch per (user, ts): max event_id wins (deterministic,
        # mirrors the oracle's ts DESC, event_id DESC rank)
        tch = (tch.sort_values(["user_id", "us", "event_id"],
                               kind="mergesort")
               .drop_duplicates(["user_id", "us"], keep="last")
               [["user_id", "us", "event_type"]]
               .rename(columns={"event_type": "touch_type"}))
        conv = conv[["user_id", "us", "cents"]].assign(
            us_k=lambda d: d["us"] - 1)  # strict <: integer-us shift
        conv = conv.sort_values(["us_k", "user_id"],
                                kind="mergesort").reset_index(drop=True)
        tch = tch.sort_values(["us", "user_id"],
                              kind="mergesort").reset_index(drop=True)
        tch["us_k"] = tch["us"]
        if len(conv) and len(tch):
            m = pd.merge_asof(conv, tch[["user_id", "us_k", "touch_type"]],
                              on="us_k", by="user_id",
                              direction="backward",
                              tolerance=_h - 1)  # t >= conv - 7d, via us-1
        else:
            m = conv.assign(touch_type=pd.Series([], dtype=object))
        m["touch_type"] = m["touch_type"].fillna("(none)")
        out = (m.groupby("touch_type", as_index=False)
               .agg(n_conv=("cents", "size"), revenue_cents=("cents",
                                                             "sum")))
        # pin dtypes so conv-less buckets emit the same Arrow schema
        out["touch_type"] = out["touch_type"].astype(str)
        out["n_conv"] = out["n_conv"].astype("int64")
        out["revenue_cents"] = out["revenue_cents"].astype("int64")
        return pd_to_arrow(out)

    agg = (ev.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: attribute(g.drop(columns="__bucket")),
                       batch_format="pandas")
           .groupby("touch_type")
           .aggregate(Sum("n_conv", alias_name="n_conv"),
                      Sum("revenue_cents", alias_name="revenue_cents"))
           .to_pandas().sort_values("touch_type").reset_index(drop=True))
    agg["n_conv"] = agg["n_conv"].astype("int64")
    agg["revenue_cents"] = agg["revenue_cents"].astype("int64")
    return pa.Table.from_pandas(
        agg[["touch_type", "n_conv", "revenue_cents"]],
        preserve_index=False)


def q174_chi2_keywords(sf_dir: str) -> pa.Table:
    """Distinctive vocabulary per crawl source: top-10 over-represented
    terms by a quantized integer chi-square.  With the 2x2 margins
    (a = term-in-source, g = term total, S = source total, T = corpus
    total) the numerator collapses to ``d1 = a*T - g*S``, and the score
    is the staged big-int expression
    ``(10^6*d1^2) // (g*S) * T // (T-g) // (T-S)`` — every stage exact
    in both engines (HUGEINT / Python int), overflow-free for
    T <= ~3e8 tokens (quantize to coarser ppm past that).  Token
    counting is the q36 map-side combiner (distinct terms per batch,
    never occurrences); the million-key (source, term) reduction is a
    hash(term)-bucket map_groups (CLAUDE.md rule — sort-based groupby
    pays per distinct key), and since buckets are keyed on term, each
    bucket sees every source row AND the term's global total, so scoring
    is bucket-local.  Per-bucket top-10-per-source partials bound the
    driver merge to B*sources*10 rows."""
    from ..functions.corpus import _tokenize_column

    docs = _read(sf_dir, "documents", ["source", "text"])
    n_buckets = 64

    def counts(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        if len(flat) == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "term": pa.array([], pa.string()),
                             "a": pa.array([], pa.int64()),
                             "__bucket": pa.array([], pa.int32())})
        src = batch.column("source").to_pandas()
        df = (pd.DataFrame({"source": src.iloc[
                               parent.to_numpy(zero_copy_only=False)
                           ].to_numpy(),
                            "term": flat.to_pandas().to_numpy()})
              .groupby(["source", "term"], sort=False, as_index=False)
              .size().rename(columns={"size": "a"}))
        bkt = np.fromiter(
            (zlib.crc32(t.encode("utf-8", "surrogatepass")) % n_buckets
             for t in df["term"]), dtype=np.int32, count=len(df))
        df["__bucket"] = bkt
        df["a"] = df["a"].astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    partial = docs.map_batches(counts,
                               batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    s_tot = {r["source"]: int(r["s"]) for r in
             partial.groupby("source")
             .aggregate(Sum("a", alias_name="s")).take_all()}
    t_tot = sum(s_tot.values())

    def score_bucket(g: pd.DataFrame, _s=s_tot, _t=t_tot) -> pa.Table:
        from ..schema import pd_to_arrow

        g = (g.groupby(["source", "term"], sort=False, as_index=False)
             ["a"].sum())
        g_tok = g.groupby("term")["a"].transform("sum")
        keep = (g["a"] >= 5).to_numpy()  # Zipf tail drops vectorized
        g, g_tok = g[keep], g_tok[keep]
        rows = []
        for src, term, a, gt in zip(g["source"], g["term"], g["a"],
                                    g_tok):
            a, gt = int(a), int(gt)
            S = _s[src]
            if a < 5 or gt >= _t or S >= _t:
                continue
            d1 = a * _t - gt * S
            if d1 <= 0:
                continue
            chi2 = ((1_000_000 * d1 * d1) // (gt * S) * _t
                    // (_t - gt) // (_t - S))
            rows.append((src, term, a, chi2))
        df = pd.DataFrame(rows, columns=["source", "term",
                                         "n_in_source", "chi2_ppm"])
        df = (df.sort_values(["source", "chi2_ppm", "term"],
                             ascending=[True, False, True],
                             kind="mergesort")
              .groupby("source", sort=False).head(10))
        for c in ("n_in_source", "chi2_ppm"):
            df[c] = df[c].astype("int64")
        return pd_to_arrow(df.reset_index(drop=True))

    cand = (partial.groupby("__bucket")
            .map_groups(lambda g: score_bucket(g.drop(columns="__bucket")),
                        batch_format="pandas")
            .to_pandas())
    out = (cand.sort_values(["source", "chi2_ppm", "term"],
                            ascending=[True, False, True],
                            kind="mergesort")
           .groupby("source", sort=False).head(10)
           .sort_values(["source", "chi2_ppm", "term"],
                        ascending=[True, False, True], kind="mergesort")
           .reset_index(drop=True))
    for c in ("n_in_source", "chi2_ppm"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["source", "term", "n_in_source", "chi2_ppm"]],
        preserve_index=False)


def q175_class_scatter(sf_dir: str) -> pa.Table:
    """Between-class scatter (LDA building block): exact inner products
    of per-label CLASS-SUM embedding vectors.  Values quantize to 1e-4
    units (``floor(x*1e4 + 0.5)`` — FLOOR agrees across engines for
    negatives; integer DIVISION would not, DuckDB truncates where Python
    floors, so this operator emits products of sums and never divides).
    One map emits (label, dim, partial-sum) combiner rows (+ a dim=-1
    count row); the reduce is a 640-key associative int SUM; the
    10x10x64 pairwise dot is driver arithmetic.  Overflow: |class sum|
    <= 1e4*n_label, dot <= dim*(1e4*n_label)^2 — int64-safe to ~35k rows
    per label at dim 64; pass a coarser quantum at corpus scale (the
    ``embedding_moments`` dial, clustering.py:238)."""
    from ray.data.aggregate import Sum

    from ..functions.clustering import _to_matrix

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])
    dim = 64

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        m = _to_matrix(batch.column("embedding"))
        q = np.floor(m * 1e4 + 0.5).astype(np.int64)
        lab = batch.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        labs = np.unique(lab)
        idx = np.searchsorted(labs, lab)
        sums = np.zeros((len(labs), dim), dtype=np.int64)
        np.add.at(sums, idx, q)
        cnt = np.bincount(idx, minlength=len(labs)).astype(np.int64)
        lcol = np.concatenate([np.repeat(labs, dim), labs])
        dcol = np.concatenate([np.tile(np.arange(dim, dtype=np.int64),
                                       len(labs)),
                               np.full(len(labs), -1, dtype=np.int64)])
        scol = np.concatenate([sums.ravel(), cnt])
        return pa.table({"label": pa.array(lcol), "dim": pa.array(dcol),
                         "s": pa.array(scol)})

    rows = (emb.map_batches(partial, batch_format="pyarrow")
            .groupby(["label", "dim"])
            .aggregate(Sum("s", alias_name="s")).take_all())
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for r in rows:
        lb = int(r["label"])
        if int(r["dim"]) < 0:
            counts[lb] = int(r["s"])
        else:
            sums.setdefault(lb, np.zeros(dim, dtype=object))[
                int(r["dim"])] = int(r["s"])
    labs = sorted(counts)
    out = {"label_a": [], "label_b": [], "n_a": [], "n_b": [],
           "dot_q8": []}
    for a in labs:
        for b in labs:
            if a > b:
                continue
            out["label_a"].append(a)
            out["label_b"].append(b)
            out["n_a"].append(counts[a])
            out["n_b"].append(counts[b])
            out["dot_q8"].append(int(np.dot(sums[a], sums[b])))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def q176_calibration_deciles(sf_dir: str) -> pa.Table:
    """Reliability diagram (model-calibration primitive): events ranked
    by the total order (score cents, event_id), cut into ten
    equal-rank-width bins ``decile = rank0*10 // n``, each reporting its
    purchase rate in ppm and integer mean score.  Global ranking is the
    same two-pass range-bucket prefix scan as q172: pass 1 reduces each
    score-range bucket to one row count, pass 2 resolves in-bucket ranks
    from the broadcast offsets — a decile can straddle buckets, so
    per-bucket per-decile partials meet in a 10-key combiner'd
    groupby."""
    from ray.data.aggregate import Max, Min, Sum

    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        p = pc.equal(batch.column("event_type"), "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "p": pa.array(p)})

    scored = ev.map_batches(prep, batch_format="pyarrow").materialize()
    n_total = scored.count()
    bounds = scored.aggregate(Min("c"), Max("c"))
    mn, mx = int(bounds["min(c)"]), int(bounds["max(c)"])
    span = max(1, (mx - mn) // 64 + 1)

    bucketed = scored.map_batches(
        lambda b: b.append_column(
            "__bucket",
            pc.cast(pc.divide(pc.subtract(b.column("c"), mn), span),
                    pa.int32())),
        batch_format="pyarrow").materialize()
    cnts = {int(r["__bucket"]): int(r["count()"])
            for r in bucketed.groupby("__bucket").count().take_all()}
    off, acc = {}, 0
    for b in sorted(cnts):
        off[b] = acc
        acc += cnts[b]

    def resolve(g: pd.DataFrame, _off=off, _n=n_total) -> pa.Table:
        if not len(g):
            return pa.table({"decile": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "n_pos": pa.array([], pa.int64()),
                             "sum_c": pa.array([], pa.int64())})
        base = _off[int(g["__bucket_val"].iloc[0])]
        g = g.sort_values(["c", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        rank0 = base + np.arange(len(g), dtype=np.int64)
        dec = rank0 * 10 // _n
        df = pd.DataFrame({"decile": dec, "p": g["p"].to_numpy(np.int64),
                           "c": g["c"].to_numpy(np.int64)})
        agg = df.groupby("decile", as_index=False).agg(
            n_events=("p", "size"), n_pos=("p", "sum"), sum_c=("c", "sum"))
        for col in agg.columns:
            agg[col] = agg[col].astype("int64")
        return pd_to_arrow(agg)

    from ray.data.aggregate import Sum as _Sum

    agg = (bucketed.map_batches(
        lambda b: b.append_column(
            "__bucket_val", pc.cast(b.column("__bucket"), pa.int64())),
        batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(lambda g: resolve(g.drop(columns="__bucket")),
                    batch_format="pandas")
        .groupby("decile")
        .aggregate(_Sum("n_events", alias_name="n_events"),
                   _Sum("n_pos", alias_name="n_pos"),
                   _Sum("sum_c", alias_name="sum_c"))
        .to_pandas().sort_values("decile").reset_index(drop=True))
    out = pd.DataFrame({
        "decile": agg["decile"].astype("int64"),
        "n_events": agg["n_events"].astype("int64"),
        "n_pos": agg["n_pos"].astype("int64"),
        "pos_rate_ppm": (1_000_000 * agg["n_pos"].astype("int64")
                         // agg["n_events"].astype("int64")),
        "mean_cents": (agg["sum_c"].astype("int64")
                       // agg["n_events"].astype("int64")),
    })
    return pa.Table.from_pandas(out, preserve_index=False)


def q177_split_assignment(sf_dir: str) -> pa.Table:
    """Deterministic train/valid/test split (90/5/5) by content hash —
    the split must be a pure function of the stable doc id so re-runs,
    incremental ingests and other teams' jobs agree forever
    (``stable_u64('split\\0id') % 1000``, replayed bit-for-bit by the
    oracle's md5_number_upper).  Per-batch combiner emits one row per
    split; the reduce is a 3-key int SUM."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_u64

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        nch = batch.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = np.fromiter((stable_u64(f"split\x00{i}") % 1000
                         for i in ids), dtype=np.int64, count=len(ids))
        split = np.where(h < 900, "train",
                         np.where(h < 950, "valid", "test"))
        df = (pd.DataFrame({"split": split, "n_docs": 1, "n_chars": nch})
              .groupby("split", as_index=False).sum())
        df["n_docs"] = df["n_docs"].astype("int64")
        df["n_chars"] = df["n_chars"].astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("split")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_chars", alias_name="n_chars_total"))
           .to_pandas().sort_values("split").reset_index(drop=True))
    for c in ("n_docs", "n_chars_total"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["split", "n_docs",
                                     "n_chars_total"]],
                                preserve_index=False)


def q178_er_clusters(sf_dir: str) -> pa.Table:
    """End-to-end entity resolution: deletion-neighborhood blocking +
    edit-distance-1 verify (``dedup.edit1_pairs``, exact at distance 1)
    -> exact connected components (``dedup.connected_components``) over
    int64 ids hashed from the names.  Output: every resolved entity
    cluster of >= 2 names with its canonical representative, the MIN
    member name.  Oracle: quadratic levenshtein pairs + a recursive
    transitive-closure CTE — exact because blocking has no false
    negatives at distance 1 and CC runs to fixpoint."""
    from ..functions.dedup import connected_components, edit1_pairs
    from ..functions.hashing import stable_u64
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def _nid(name: str) -> int:
        return stable_u64(f"er\x00{name}") & 0x7FFFFFFFFFFFFFFF

    n = _row_count(sf_dir, "part")
    parts = _read(sf_dir, "part", ["p_name"])
    pairs = edit1_pairs(parts, "p_name", est_rows=n * 12)

    # CC works over int64 node ids; the id is a PURE hash of the name,
    # so both edge endpoints and the name table derive it locally —
    # no assignment join anywhere
    def to_ids(batch: pa.Table) -> pa.Table:
        a = [_nid(s) for s in batch.column("name_a").to_pylist()]
        b = [_nid(s) for s in batch.column("name_b").to_pylist()]
        return pa.table({"nid_a": pa.array(a, pa.int64()),
                         "nid_b": pa.array(b, pa.int64())})

    comp = connected_components(
        pairs.map_batches(to_ids, batch_format="pyarrow"),
        "nid_a", "nid_b", max_rounds=32)

    def name_tbl(batch: pa.Table) -> pa.Table:
        names = list(dict.fromkeys(batch.column("p_name").to_pylist()))
        return pa.table({
            "doc_id": pa.array([_nid(s) for s in names], pa.int64()),
            "name": pa.array(names, pa.string())})

    named = hash_join(comp,
                      parts.map_batches(name_tbl,
                                        batch_format="pyarrow"),
                      on="doc_id", est_rows=n)

    def summarize(g: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame({"cluster": [g["name"].min()],
                            "n_members": [np.int64(g["name"].nunique())]})
        return pd_to_arrow(out)

    out = (named.groupby("component")
           .map_groups(lambda g: summarize(g), batch_format="pandas")
           .to_pandas())
    out = out[out["n_members"] >= 2].sort_values("cluster") \
        .reset_index(drop=True)
    out["n_members"] = out["n_members"].astype("int64")
    return pa.Table.from_pandas(out[["cluster", "n_members"]],
                                preserve_index=False)


def q179_zorder_layout(sf_dir: str) -> pa.Table:
    """Z-order (Morton) layout audit — the Delta/Iceberg multi-column
    clustering primitive: interleave the low 16 bits of (user_id, value
    cents), bucket rows by the leading 6 Morton bits (64 would-be
    files), and report each bucket's per-dimension min/max prune window.
    A linear sort on either key alone leaves the OTHER key's window
    full-range in every file; Z-ordering bounds both — this audit is how
    a table-format optimizer proves the layout prunes.  Bit interleave
    is 16 vectorized numpy ops per batch; min/max/count reduce via the
    native combiner'd groupby."""
    from ray.data.aggregate import Count, Max, Min

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def morton(batch: pa.Table) -> pa.Table:
        x = batch.column("user_id").to_numpy().astype(np.int64) & 0xFFFF
        v = batch.column("value").to_numpy(zero_copy_only=False)
        y = np.floor(v * 100.0 + 0.5).astype(np.int64) & 0xFFFF
        z = np.zeros(len(x), dtype=np.int64)
        for i in range(16):
            z |= (((x >> i) & 1) << (2 * i + 1)) | (((y >> i) & 1)
                                                    << (2 * i))
        return pa.table({"zbucket": pa.array(z >> 26),
                         "x": pa.array(x), "y": pa.array(y)})

    out = (ev.map_batches(morton, batch_format="pyarrow")
           .groupby("zbucket")
           .aggregate(Count(alias_name="n_events"),
                      Min("x", alias_name="x_min"),
                      Max("x", alias_name="x_max"),
                      Min("y", alias_name="y_min"),
                      Max("y", alias_name="y_max"))
           .to_pandas().sort_values("zbucket").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["zbucket", "n_events", "x_min", "x_max", "y_min", "y_max"]],
        preserve_index=False)


def q180_scc(sf_dir: str) -> pa.Table:
    """Strongly connected components (``graph_ops.scc`` — trim +
    forward-coloring + backward-collect peeling, the distributed
    alternative to Tarjan) over the event-derived directed graph (q150's
    edge rule: ``eid%100 -> (eid+k)%100``).  Output: each SCC's minimum
    member id and size.  Oracle: recursive transitive closure + mutual
    reachability — exact because scc() runs every fixpoint to
    convergence."""
    from ..pipelines.graph_ops import scc

    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        src = eid % 100
        dst = (eid + k) % 100
        keep = src != dst
        return pa.table({"src": pa.array(src[keep]),
                         "dst": pa.array(dst[keep])})

    labels = scc(ds.map_batches(edges, batch_format="pyarrow"),
                 est_rows=_row_count(sf_dir, "events"))
    out = (labels.groupby("scc_id").count().to_pandas()
           .rename(columns={"count()": "n_members"})
           .sort_values("scc_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["scc_id", "n_members"]],
                                preserve_index=False)


def q181_merge_upsert(sf_dir: str) -> pa.Table:
    """Lakehouse MERGE (CDC apply): a change stream derived from events
    (key = ``event_id % 10000``; 'error' rows are DELETEs, everything
    else UPSERTs the cent value) applies onto the orders base table with
    last-writer-wins per key (ts DESC, event_id DESC).  One hash(key)
    bucket shuffle compacts the stream to its final change per key; one
    outer ``hash_join`` against the base resolves insert/update/delete.
    The merged table is value-checked without shipping it: the output is
    its row count, cent total and q171-style order-independent mod-prime
    content checksum (associative per-batch partials)."""
    from ..functions.hashing import stable_u64
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    M = (1 << 61) - 1
    base = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(
            lambda b: pa.table({
                "ckey": pc.cast(b.column("o_orderkey"), pa.int64()),
                "base_cents": pa.array(np.floor(
                    b.column("o_totalprice").to_numpy(
                        zero_copy_only=False) * 100.0 + 0.5)
                    .astype(np.int64)),
            }), batch_format="pyarrow")

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "ckey": pa.array(eid % 10000),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pa.array(eid),
            "is_del": pc.equal(batch.column("event_type"), "error"),
            "cents": pa.array(np.floor(v * 100.0 + 0.5)
                              .astype(np.int64)),
            "__bucket": pa.array((eid % 10000 % 64).astype(np.int32)),
        })

    def last_per_key(g: pd.DataFrame):
        g = (g.sort_values(["ckey", "us", "event_id"], kind="mergesort")
             .drop_duplicates("ckey", keep="last"))
        out = g[["ckey", "is_del", "cents"]].copy()
        out["is_del"] = out["is_del"].astype(bool)
        out["cents"] = out["cents"].astype("int64")
        return pd_to_arrow(out.rename(columns={"cents": "new_cents"}))

    changes = (ev.map_batches(prep, batch_format="pyarrow")
               .groupby("__bucket")
               .map_groups(lambda g: last_per_key(
                   g.drop(columns="__bucket")), batch_format="pandas"))

    merged = hash_join(base, changes, on="ckey", how="outer",
                       est_rows=_row_count(sf_dir, "orders"))

    def partial(batch: pa.Table, _m=M) -> pa.Table:
        # a change row wins over the base row; a deleting change drops it
        is_del = pc.cast(batch.column("is_del"), pa.bool_())
        has_ch = pc.is_valid(is_del)
        keep = pc.if_else(has_ch, pc.invert(is_del),
                          pc.is_valid(batch.column("base_cents")))
        cents = pc.fill_null(pc.cast(pc.if_else(
            has_ch, batch.column("new_cents"), batch.column("base_cents")),
            pa.int64()), 0).filter(keep).to_numpy()
        keys = pc.cast(batch.column("ckey"), pa.int64()).filter(keep) \
            .to_numpy()
        s = 0
        for k, c in zip(keys.tolist(), cents.tolist()):
            s += stable_u64(f"m\x00{k}\x00{c}") >> 11
        return pa.table({"n": pa.array([len(keys)], pa.int64()),
                         "c": pa.array([int(cents.sum())], pa.int64()),
                         "s": pa.array([s % _m], pa.int64())})

    parts = merged.map_batches(partial,
                               batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    c = sum(r["c"] for r in parts)
    s = sum(r["s"] for r in parts) % M
    return pa.table({"n_rows": pa.array([n], pa.int64()),
                     "total_cents": pa.array([c], pa.int64()),
                     "checksum": pa.array([s], pa.int64())})


def q182_ks_drift(sf_dir: str) -> pa.Table:
    """Exact two-sample Kolmogorov-Smirnov distance between the value
    distributions of 'view' and 'click' events — the drift monitor a
    feature pipeline runs between snapshots.  Integer-exact: KS =
    max|n_b*cumA - n_a*cumB| / (n_a*n_b) over the pooled cent support,
    so the max rides the same two-pass range-bucket prefix scan as q172
    (per-bucket offsets for BOTH cumulative counts; each bucket reduces
    to one local-max row; ppm floor at the driver)."""
    from ray.data.aggregate import Max, Min, Sum

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pc.is_in(et, value_set=pa.array(["view", "click"]))
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return pa.table({"c": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64())})
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        a = pc.equal(batch.column("event_type"), "view") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        df = (pd.DataFrame({"c": cents, "na": a, "nb": 1 - a})
              .groupby("c", sort=False, as_index=False).sum())
        return pa.Table.from_pandas(df, preserve_index=False)

    per_score = ev.map_batches(partials,
                               batch_format="pyarrow").materialize()
    bounds = per_score.aggregate(Min("c"), Max("c"))
    mn, mx = int(bounds["min(c)"]), int(bounds["max(c)"])
    span = max(1, (mx - mn) // 64 + 1)
    bucketed = per_score.map_batches(
        lambda b: b.append_column(
            "__bucket",
            pc.cast(pc.divide(pc.subtract(b.column("c"), mn), span),
                    pa.int32())),
        batch_format="pyarrow").materialize()
    tot = {int(r["__bucket"]): (int(r["sum(na)"]), int(r["sum(nb)"]))
           for r in bucketed.groupby("__bucket")
           .aggregate(Sum("na"), Sum("nb")).take_all()}
    offs, ca, cb = {}, 0, 0
    for b in sorted(tot):
        offs[b] = (ca, cb)
        ca += tot[b][0]
        cb += tot[b][1]
    n_a, n_b = ca, cb

    def bucket_max(g: pd.DataFrame, _offs=offs, _na=n_a, _nb=n_b) \
            -> pa.Table:
        if not len(g):
            return pa.table({"m": pa.array([], pa.int64())})
        oa, ob = _offs[int(g["__bucket_val"].iloc[0])]
        g = (g.groupby("c", sort=True, as_index=False)[["na", "nb"]]
             .sum())
        cna = oa + g["na"].cumsum().to_numpy(np.int64)
        cnb = ob + g["nb"].cumsum().to_numpy(np.int64)
        m = int(np.abs(_nb * cna - _na * cnb).max())
        return pa.table({"m": pa.array([m], pa.int64())})

    parts = (bucketed.map_batches(
        lambda b: b.append_column(
            "__bucket_val", pc.cast(b.column("__bucket"), pa.int64())),
        batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(lambda g: bucket_max(g.drop(columns="__bucket")),
                    batch_format="pandas"))
    ks_num = max(r["m"] for r in parts.take_all())
    return pa.table({
        "n_a": pa.array([n_a], pa.int64()),
        "n_b": pa.array([n_b], pa.int64()),
        "ks_num": pa.array([ks_num], pa.int64()),
        "ks_ppm": pa.array([(1_000_000 * ks_num) // (n_a * n_b)],
                           pa.int64())})


def q183_ohlc_bars(sf_dir: str) -> pa.Table:
    """Time-series resample to 6-hour OHLC bars: per window, the
    opening/closing cent value (first/last by the total order
    (ts, event_id) — an ASSOCIATIVE tuple-min/max reduce, the
    CLAUDE.md provenance pattern, so partials combine exactly at any
    parallelism) plus min/max/count.  Per-batch combiner emits ONE row
    per window it sees; the global reduce is a small groupby whose
    map_groups re-applies the same tuple rules."""
    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])
    win_us = 6 * 3600 * 1_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"w": us // win_us, "us": us, "eid": eid,
                           "c": cents})
        df = df.sort_values(["w", "us", "eid"], kind="mergesort")
        g = df.groupby("w", sort=True)
        out = pd.DataFrame({
            "w": g.size().index.to_numpy(np.int64),
            "o_us": g["us"].first().to_numpy(np.int64),
            "o_eid": g["eid"].first().to_numpy(np.int64),
            "open": g["c"].first().to_numpy(np.int64),
            "c_us": g["us"].last().to_numpy(np.int64),
            "c_eid": g["eid"].last().to_numpy(np.int64),
            "close": g["c"].last().to_numpy(np.int64),
            "lo": g["c"].min().to_numpy(np.int64),
            "hi": g["c"].max().to_numpy(np.int64),
            "n": g.size().to_numpy(np.int64),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    def combine(g: pd.DataFrame):
        g = g.sort_values(["o_us", "o_eid"], kind="mergesort")
        first = g.iloc[0]
        gc = g.sort_values(["c_us", "c_eid"], kind="mergesort")
        last = gc.iloc[-1]
        out = pd.DataFrame({
            "window": [np.int64(g["w"].iloc[0])],
            "open_cents": [np.int64(first["open"])],
            "close_cents": [np.int64(last["close"])],
            "low_cents": [np.int64(g["lo"].min())],
            "high_cents": [np.int64(g["hi"].max())],
            "n_events": [np.int64(g["n"].sum())],
        })
        return pd_to_arrow(out)

    out = (ev.map_batches(partial, batch_format="pyarrow")
           .groupby("w")
           .map_groups(combine, batch_format="pandas")
           .to_pandas().sort_values("window").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q184_k_anonymity(sf_dir: str, k: int = 5) -> pa.Table:
    """k-anonymity audit over the documents quasi-identifier tuple
    (lang, source, length band of 1000 chars): how many equivalence
    classes fall below k members and how many rows they expose — the
    privacy gate a release pipeline runs before publishing.  Per-batch
    combiner'd groupby (the QI key space is tiny relative to rows);
    only class counts shuffle."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def qi(batch: pa.Table) -> pa.Table:
        band = pc.cast(pc.divide(batch.column("n_chars"), 1000),
                       pa.int64())
        return pa.table({"lang": batch.column("lang"),
                         "source": batch.column("source"),
                         "band": band})

    classes = (docs.map_batches(qi, batch_format="pyarrow")
               .groupby(["lang", "source", "band"])
               .aggregate(Count(alias_name="n")))

    def flag(batch: pa.Table, _k=k) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        risky = n < _k
        return pa.table({
            "n_classes": pa.array([len(n)], pa.int64()),
            "n_risky_classes": pa.array([int(risky.sum())], pa.int64()),
            "n_risky_rows": pa.array([int(n[risky].sum())], pa.int64()),
            "n_rows": pa.array([int(n.sum())], pa.int64())})

    parts = classes.map_batches(flag, batch_format="pyarrow").take_all()
    return pa.table({
        "n_classes": pa.array([sum(r["n_classes"] for r in parts)],
                              pa.int64()),
        "n_risky_classes": pa.array(
            [sum(r["n_risky_classes"] for r in parts)], pa.int64()),
        "n_risky_rows": pa.array([sum(r["n_risky_rows"] for r in parts)],
                                 pa.int64()),
        "n_rows": pa.array([sum(r["n_rows"] for r in parts)],
                           pa.int64())})


def q185_group_split_audit(sf_dir: str) -> pa.Table:
    """Group-aware split (GroupKFold semantics): the split is a pure
    hash of the doc's SOURCE, so an entity's documents can never
    straddle train/valid/test — the leakage a row-level split (q177)
    permits.  Output: per split, document count plus the number of
    whole sources it holds; the audit invariant (each source in exactly
    one split) is checked by n_sources summing to the distinct-source
    count.  Per-batch combiner over (split, source) partials; the
    reduce key space is |sources|."""
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import stable_u64

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        h = np.fromiter((stable_u64(f"gsplit\x00{s}") % 1000
                         for s in src), dtype=np.int64, count=len(src))
        split = np.where(h < 800, "train",
                         np.where(h < 900, "valid", "test"))
        df = (pd.DataFrame({"split": split, "source": src, "n_docs": 1})
              .groupby(["split", "source"], as_index=False).sum())
        df["n_docs"] = df["n_docs"].astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    per_source = (docs.map_batches(partial, batch_format="pyarrow")
                  .groupby(["split", "source"])
                  .aggregate(Sum("n_docs", alias_name="n_docs")))
    out = (per_source.groupby("split")
           .aggregate(Count(alias_name="n_sources"),
                      Sum("n_docs", alias_name="n_docs"))
           .to_pandas().sort_values("split").reset_index(drop=True))
    for c in ("n_sources", "n_docs"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["split", "n_sources", "n_docs"]],
                                preserve_index=False)


def q186_lorenz_deciles(sf_dir: str) -> pa.Table:
    """Whale-curve / Lorenz deciles: customers ranked by total spend
    (cents, custkey total order), cut into ten equal-rank bins, each
    reporting its share of total revenue in ppm — the concentration
    curve behind q161's Gini scalar.  Per-customer totals via one
    combiner'd groupby; global ranking of the TOTALS rides the q176
    two-pass range-bucket prefix scan (per-bucket counts -> driver
    offsets -> in-bucket ranks), so no per-customer row ever reaches
    the driver."""
    from ray.data.aggregate import Max, Min, Sum

    from ..schema import pd_to_arrow

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pc.cast(batch.column("o_custkey"), pa.int64()),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))})

    per_cust = (orders.map_batches(cents, batch_format="pyarrow")
                .groupby("k").aggregate(Sum("c", alias_name="c"))
                .materialize())
    n_cust = per_cust.count()
    bounds = per_cust.aggregate(Min("c"), Max("c"))
    mn = int(bounds["min(c)"])
    span = max(1, (int(bounds["max(c)"]) - mn) // 64 + 1)
    bucketed = per_cust.map_batches(
        lambda b: b.append_column(
            "__bucket",
            pc.cast(pc.divide(pc.subtract(b.column("c"), mn), span),
                    pa.int32())),
        batch_format="pyarrow").materialize()
    cnts = {int(r["__bucket"]): int(r["count()"])
            for r in bucketed.groupby("__bucket").count().take_all()}
    off, acc = {}, 0
    for b in sorted(cnts):
        off[b] = acc
        acc += cnts[b]

    def resolve(g: pd.DataFrame, _off=off, _n=n_cust) -> pa.Table:
        if not len(g):
            return pa.table({"decile": pa.array([], pa.int64()),
                             "n_customers": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        base = _off[int(g["__bucket_val"].iloc[0])]
        g = g.sort_values(["c", "k"], kind="mergesort")
        rank0 = base + np.arange(len(g), dtype=np.int64)
        df = pd.DataFrame({"decile": rank0 * 10 // _n,
                           "c": g["c"].to_numpy(np.int64)})
        agg = df.groupby("decile", as_index=False).agg(
            n_customers=("c", "size"), cents=("c", "sum"))
        for col in agg.columns:
            agg[col] = agg[col].astype("int64")
        return pd_to_arrow(agg)

    from ray.data.aggregate import Sum as _Sum

    agg = (bucketed.map_batches(
        lambda b: b.append_column(
            "__bucket_val", pc.cast(b.column("__bucket"), pa.int64())),
        batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(lambda g: resolve(g.drop(columns="__bucket")),
                    batch_format="pandas")
        .groupby("decile")
        .aggregate(_Sum("n_customers", alias_name="n_customers"),
                   _Sum("cents", alias_name="cents"))
        .to_pandas().sort_values("decile").reset_index(drop=True))
    total = int(agg["cents"].sum())
    out = pd.DataFrame({
        "decile": agg["decile"].astype("int64"),
        "n_customers": agg["n_customers"].astype("int64"),
        "cents": agg["cents"].astype("int64"),
        "share_ppm": (1_000_000 * agg["cents"].astype("int64")
                      // total).astype("int64")})
    return pa.Table.from_pandas(out, preserve_index=False)


def q187_widest_path(sf_dir: str, max_hops: int = 4) -> pa.Table:
    """Widest (maximum-bottleneck) paths from node 0 over q116's
    weighted event graph — the routing/percolation primitive.  Runs the
    SAME distributed relaxation loop as shortest paths with the
    semiring swapped (``sssp_weighted(combine='max')`` on NEGATED
    weights, min-max instead of min-plus); round r is exact over paths
    of <= r edges, so the oracle unrolls to the same depth."""
    from ..pipelines.graph_ops import sssp_weighted

    BIG = 1 << 60
    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({"src": pa.array(src[ok], pa.int64()),
                         "dst": pa.array(dst[ok], pa.int64())})

    edge_ds = (ds.map_batches(edges, batch_format="pyarrow")
               .groupby(["src", "dst"]).count()
               .map_batches(lambda b: pa.table({
                   "src": b.column("src"),
                   "dst": b.column("dst"),
                   "w": pa.array(
                       -(1 + (b.column("src").to_numpy() * 31
                              + b.column("dst").to_numpy() * 17) % 9),
                       pa.int64()),
               }), batch_format="pyarrow"))
    res = sssp_weighted(edge_ds, source=0, max_hops=max_hops,
                        est_rows=n_events // 7, combine="max",
                        source_cost=-BIG)
    out = (res.to_pandas())
    out = out[out["node"] != 0].copy()
    out["width"] = (-out["cost"]).astype("int64")
    out["node"] = out["node"].astype("int64")
    out = out.sort_values("node").reset_index(drop=True)
    return pa.Table.from_pandas(out[["node", "width"]],
                                preserve_index=False)


def q188_recall_at_k(sf_dir: str, k: int = 10) -> pa.Table:
    """ANN quality eval: recall@10 of the pruned IVF probe (q19's
    configuration) against exact brute-force cosine (q12) for the
    vec_id-0 query — the measurement that decides n_probe at corpus
    scale.  Both rankings come from the library operators themselves;
    only two k-row id lists reach the driver.  Oracle composes the q19
    and q12 SQL twins verbatim and intersects."""
    from ..functions.similarity import brute_force_topk, ivf_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qv = _query_vector(sf_dir)
    brute = set(brute_force_topk(emb, qv, k=k).column("vec_id")
                .to_pylist())
    ivf = set(ivf_topk(emb, qv, k=k).column("vec_id").to_pylist())
    n = len(brute & ivf)
    return pa.table({"k": pa.array([k], pa.int64()),
                     "n_overlap": pa.array([n], pa.int64()),
                     "recall_ppm": pa.array([(1_000_000 * n) // k],
                                            pa.int64())})


def q189_mixture_allocation(sf_dir: str, total: int = 100_000) -> pa.Table:
    """Training-mixture planner: allocate a ``total``-sample epoch
    budget across crawl sources proportionally to their document counts
    with LARGEST-REMAINDER rounding (Hamilton's method) — allocations
    are exact integers that sum to the budget, ties broken (remainder
    DESC, source ASC) so the plan is deterministic.  Source counts come
    from one combiner'd groupby; the apportionment itself is
    |sources|-row driver arithmetic, as any planner's should be."""
    from ray.data.aggregate import Count

    docs = _read(sf_dir, "documents", ["source"])
    cnt = (docs.groupby("source").aggregate(Count(alias_name="n"))
           .to_pandas().sort_values("source").reset_index(drop=True))
    n_total = int(cnt["n"].sum())
    quota_num = cnt["n"].astype("int64") * total           # / n_total
    base = (quota_num // n_total).astype("int64")
    rem = (quota_num % n_total).astype("int64")
    leftover = total - int(base.sum())
    order = (pd.DataFrame({"rem": rem, "source": cnt["source"]})
             .sort_values(["rem", "source"], ascending=[False, True],
                          kind="mergesort").index.to_numpy())
    alloc = base.to_numpy().copy()
    alloc[order[:leftover]] += 1
    out = pd.DataFrame({"source": cnt["source"],
                        "n_docs": cnt["n"].astype("int64"),
                        "n_alloc": pd.Series(alloc, dtype="int64")})
    return pa.Table.from_pandas(out, preserve_index=False)


def q190_curation_attrition(sf_dir: str) -> pa.Table:
    """Curation funnel report: how many documents each stage of the q54
    chain drops — raw → Gopher/C4 quality → exact dedup → benchmark
    decontamination (eval rows + contaminated docs) — the attrition
    dashboard every data-curation run publishes.  Reuses the SAME
    oracled operators (q28/q09/q43 shapes); only per-stage COUNTS reach
    the driver."""
    from ..functions.dedup import exact_dedup
    from ..functions.mixing import decontaminate
    from ..functions.textstats import gopher_quality_batch

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    n_raw = _row_count(sf_dir, "documents")

    def quality_keep(batch: pa.Table) -> pa.Table:
        sig = gopher_quality_batch(batch)
        return batch.filter(sig.column("keep"))

    q = docs.map_batches(quality_keep,
                         batch_format="pyarrow").materialize()
    n_quality = q.count()
    from ..functions.relational import semi_anti_filter

    winners = exact_dedup(q, col="text").materialize()
    n_dedup = winners.count()
    # winners carry ids only — rejoin the surviving full rows (the
    # curate_corpus shape; broadcast set below its documented limit)
    kept = semi_anti_filter(q, set(winners.unique("doc_id")), "doc_id",
                            keep_matching=True).materialize()
    dirty = decontaminate(kept, n=4, eval_mod=97)
    dirty_ids = set(dirty.unique("doc_id"))

    def clean_count(batch: pa.Table,
                    _ref=ray.put(dirty_ids)) -> pa.Table:
        from ..state.broadcast import fetch

        bad = fetch(_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ok = sum(1 for i in ids if (i % 97 != 0) and (int(i) not in bad))
        return pa.table({"n": pa.array([ok], pa.int64())})

    n_clean = sum(r["n"] for r in kept.map_batches(
        clean_count, batch_format="pyarrow").take_all())
    return pa.table({
        "n_raw": pa.array([n_raw], pa.int64()),
        "n_quality": pa.array([int(n_quality)], pa.int64()),
        "n_dedup": pa.array([int(n_dedup)], pa.int64()),
        "n_clean": pa.array([int(n_clean)], pa.int64())})


def q191_hierarchical_shares(sf_dir: str) -> pa.Table:
    """Hierarchical percent-of-parent rollup: every nation's revenue as
    ppm of its REGION and every region's ppm of the corpus total, in
    one result — the drill-down invariant (children sum to ~1e6 of
    their parent) BI layers check.  Two broadcast dimension hops
    (nation+region are bounded dimensions by definition), one
    combiner'd groupby, ratios as exact big-int floors at the 25-row
    driver result."""
    from ray.data.aggregate import Sum

    from ..functions.relational import broadcast_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    dim = (cust.merge(nation, left_on="c_nationkey",
                      right_on="n_nationkey")
           .merge(region, left_on="n_regionkey",
                  right_on="r_regionkey")
           [["c_custkey", "n_name", "r_name"]]
           .rename(columns={"c_custkey": "o_custkey"}))

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "n_name": batch.column("n_name"),
            "r_name": batch.column("r_name"),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))})

    agg = (broadcast_join(orders, dim, on="o_custkey")
           .map_batches(cents, batch_format="pyarrow")
           .groupby(["r_name", "n_name"])
           .aggregate(Sum("c", alias_name="cents"))
           .to_pandas())
    agg["cents"] = agg["cents"].astype("int64")
    reg_tot = agg.groupby("r_name")["cents"].transform("sum")
    total = int(agg["cents"].sum())
    out = pd.DataFrame({
        "r_name": agg["r_name"], "n_name": agg["n_name"],
        "cents": agg["cents"],
        "share_of_region_ppm": pd.Series(
            [int(1_000_000 * c) // int(t)
             for c, t in zip(agg["cents"], reg_tot)], dtype="int64"),
        "region_share_ppm": pd.Series(
            [int(1_000_000 * t) // total for t in reg_tot],
            dtype="int64"),
    }).sort_values(["r_name", "n_name"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q192_sequence_compressibility(sf_dir: str) -> pa.Table:
    """Per-user event-type run-length compressibility: how many RUNS
    (maximal same-type stretches in (ts, event_id) order) each user's
    timeline compresses to, aggregated corpus-wide — the repetitiveness
    audit behind session/bot heuristics and RLE layout decisions.  One
    hash(user) bucket shuffle; runs are one vectorized shift-compare
    per bucket."""
    from ..schema import pd_to_arrow

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "event_type": batch.column("event_type"),
            "__bucket": pa.array((uid % 64).astype(np.int32))})

    def runs(g: pd.DataFrame):
        g = g.sort_values(["user_id", "us", "event_id"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        new_run = new_user | np.r_[True, et[1:] != et[:-1]]
        df = pd.DataFrame({
            "n_users": [int(new_user.sum())],
            "n_events": [len(g)],
            "n_runs": [int(new_run.sum())]})
        for c in df.columns:
            df[c] = df[c].astype("int64")
        return pd_to_arrow(df)

    parts = (ev.map_batches(prep, batch_format="pyarrow")
             .groupby("__bucket")
             .map_groups(lambda g: runs(g.drop(columns="__bucket")),
                         batch_format="pandas").take_all())
    n_users = sum(r["n_users"] for r in parts)
    n_events = sum(r["n_events"] for r in parts)
    n_runs = sum(r["n_runs"] for r in parts)
    return pa.table({
        "n_users": pa.array([n_users], pa.int64()),
        "n_events": pa.array([n_events], pa.int64()),
        "n_runs": pa.array([n_runs], pa.int64()),
        "compress_ppm": pa.array([(1_000_000 * n_runs) // n_events],
                                 pa.int64())})


def q193_msf(sf_dir: str) -> pa.Table:
    """Minimum spanning forest (``graph_ops.msf_boruvka`` — log-round
    distributed Borůvka, unique forest under the (w, a, b) total order)
    over q116's weighted event graph made undirected.  Output: forest
    edge count, total weight, and component count (nodes − edges).
    Rows-only by nature (Kruskal is not SQL-expressible); the operator
    itself is hypothesis-pinned against serial Kruskal."""
    from ray.data.aggregate import Count, Sum

    from ..pipelines.graph_ops import msf_boruvka

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({
            "src": pa.array(src[ok], pa.int64()),
            "dst": pa.array(dst[ok], pa.int64()),
            "w": pa.array(1 + (src[ok] * 31 + dst[ok] * 17) % 9,
                          pa.int64())})

    forest = msf_boruvka(ds.map_batches(edges, batch_format="pyarrow"),
                         est_rows=n_events // 7)
    agg = forest.aggregate(Count(), Sum("w"))
    n_edges = int(agg["count()"] or 0)
    total_w = int(agg["sum(w)"] or 0)
    # distinct nodes incident to any edge (singletons never join a tree)
    n_graph_nodes = (ds.map_batches(edges, batch_format="pyarrow")
                     .map_batches(lambda t: pa.table({
                         "node": pa.concat_arrays([
                             t.column("src").combine_chunks(),
                             t.column("dst").combine_chunks()])}),
                         batch_format="pyarrow")
                     .unique("node"))
    n_comp = len(n_graph_nodes) - n_edges
    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "total_w": pa.array([total_w], pa.int64()),
        "n_components": pa.array([n_comp], pa.int64())})


def q194_time_travel(sf_dir: str,
                     as_of_us: int = 1_705_276_800_000_000) -> pa.Table:
    """Time travel (AS OF 2024-01-15T00:00:00Z): reconstruct every
    user's state at a past instant from the SCD2 validity intervals
    (q157's operator) and report the state census — the lakehouse
    point-in-time read.  Interval build is one hash(user) shuffle;
    the AS-OF filter and census are a stateless map + tiny groupby."""
    from ray.data.aggregate import Count

    from ..functions.relational import scd2_intervals

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "state": batch.column("event_type"),
        })

    ivl = scd2_intervals(ds.map_batches(prep, batch_format="pyarrow"),
                         key_col="user_id", ts_col="us",
                         state_col="state", tiebreak_col="event_id")
    asof = ivl.map_batches(
        lambda t, _a=as_of_us: t.filter(pc.and_(
            pc.less_equal(t.column("valid_from"), _a),
            pc.greater(t.column("valid_to"), _a))),
        batch_format="pyarrow")
    out = (asof.groupby("state").aggregate(Count(alias_name="n_users"))
           .to_pandas().sort_values("state").reset_index(drop=True))
    out["n_users"] = out["n_users"].astype("int64")
    return pa.Table.from_pandas(out[["state", "n_users"]],
                                preserve_index=False)


def q195_fd_violations(sf_dir: str) -> pa.Table:
    """Functional-dependency audit for the candidate FD
    ``source → lang`` over documents: how many LHS groups violate it
    (more than one distinct lang) and how many rows sit in violating
    groups — the schema-inference / data-contract check.  One
    combiner'd (source, lang) groupby; the verdict folds over
    |sources| rows."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["source", "lang"])
    per = (docs.groupby(["source", "lang"])
           .aggregate(Count(alias_name="n"))
           .groupby("source")
           .aggregate(Count(alias_name="n_langs"),
                      Sum("n", alias_name="n_rows"))
           .to_pandas())
    viol = per["n_langs"].astype("int64") > 1
    return pa.table({
        "n_lhs": pa.array([len(per)], pa.int64()),
        "n_violating_lhs": pa.array([int(viol.sum())], pa.int64()),
        "n_rows_in_violating": pa.array(
            [int(per.loc[viol, "n_rows"].astype("int64").sum())],
            pa.int64())})


def q196_benford_audit(sf_dir: str) -> pa.Table:
    """Benford first-significant-digit audit over order totals: the
    fraud / synthetic-data smell test a curation pipeline runs over any
    monetary or count column.  Digit extraction is a pure per-batch map
    (integer halving loop, no float log10 whose boundary rounding could
    disagree with the oracle's string slice); only 9 count rows shuffle."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def first_digit(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy().astype(np.float64)
        d = np.maximum(np.floor(v).astype(np.int64), 1)
        while (d >= 10).any():
            big = d >= 10
            d[big] //= 10
        return pa.table({"digit": pa.array(d)})

    per = (ds.map_batches(first_digit, batch_format="pyarrow")
           .groupby("digit").aggregate(Count(alias_name="n")).to_pandas())
    per["digit"] = per["digit"].astype("int64")
    per["n"] = per["n"].astype("int64")
    total = int(per["n"].sum())
    per["ppm"] = (1_000_000 * per["n"]) // total
    per = per.sort_values("digit").reset_index(drop=True)
    return pa.Table.from_pandas(per[["digit", "n", "ppm"]],
                                preserve_index=False)


def q197_l_diversity(sf_dir: str) -> pa.Table:
    """l-diversity audit (the step past q184's k-anonymity): for each
    quasi-identifier class (source, 1000-char band), l = number of
    DISTINCT sensitive values (lang); report the class/row census per l.
    A class with l = 1 leaks its members' sensitive attribute even when
    k-anonymous.  Three chained combiner'd groupbys over strictly
    shrinking key spaces — rows never shuffle, only class partials."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["source", "n_chars", "lang"])

    def qi(batch: pa.Table) -> pa.Table:
        band = pc.cast(pc.divide(batch.column("n_chars"), 1000),
                       pa.int64())
        return pa.table({"source": batch.column("source"),
                         "band": band,
                         "lang": batch.column("lang")})

    out = (docs.map_batches(qi, batch_format="pyarrow")
           .groupby(["source", "band", "lang"])
           .aggregate(Count(alias_name="n"))
           .groupby(["source", "band"])
           .aggregate(Count(alias_name="l"), Sum("n", alias_name="nr"))
           .groupby("l")
           .aggregate(Count(alias_name="n_classes"),
                      Sum("nr", alias_name="n_rows"))
           .to_pandas())
    for c in ("l", "n_classes", "n_rows"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("l").reset_index(drop=True)
    return pa.Table.from_pandas(out[["l", "n_classes", "n_rows"]],
                                preserve_index=False)


def q198_cascade_delete(sf_dir: str) -> pa.Table:
    """GDPR-style erasure-cascade audit: customers selected for deletion
    (c_custkey % 10 == 3, i.e. the selection is defined on the key
    itself) with FK cascades customer → orders → lineitem.  The
    customer→orders hop needs NO join — the foreign key IS the selection
    predicate; the orders→lineitem hop is a distributed SEMI hash_join
    with ``bloom_prune=True`` (lineitem rows that cannot match are
    dropped before the shuffle — the standard semi-join reduction, and
    at 100 TB the lineitem fact table is the one you must not reshuffle
    in full)."""
    from ..functions.relational import hash_join

    n_li = _row_count(sf_dir, "lineitem")

    cust = _read(sf_dir, "customer", ["c_custkey"])

    def dead_cust(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({"k": pa.array(ck[(ck % 10) == 3])})

    n_cust = cust.map_batches(dead_cust, batch_format="pyarrow").count()

    ords = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"])

    def dead_orders_fn(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        ok = batch.column("o_orderkey").to_numpy().astype(np.int64)
        keep = (ck % 10) == 3
        return pa.table({"o_orderkey": pa.array(ok[keep])})

    dead_orders = ords.map_batches(dead_orders_fn,
                                   batch_format="pyarrow").materialize()
    n_orders = dead_orders.count()

    li = _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
        lambda b: pa.table({"o_orderkey": pc.cast(
            b.column("l_orderkey"), pa.int64())}),
        batch_format="pyarrow")
    n_lineitem = hash_join(li, dead_orders, on="o_orderkey", how="semi",
                           est_rows=n_li, bloom_prune=True).count()

    return pa.table({
        "n_customers_deleted": pa.array([int(n_cust)], pa.int64()),
        "n_orders_deleted": pa.array([int(n_orders)], pa.int64()),
        "n_lineitems_deleted": pa.array([int(n_lineitem)], pa.int64())})


def q199_embedding_decontaminate(sf_dir: str,
                                 threshold: float = 0.4) -> pa.Table:
    """Eval-set decontamination in embedding space: flag every TRAIN
    vector whose cosine against ANY eval vector (the held-out split
    vec_id % 20 == 7) reaches the threshold — the embedding-space
    analogue of q43's n-gram decontamination.  The eval split is small
    by construction (it is the benchmark suite, not the corpus), so it
    is normalized once and ``ray.put`` once; each train batch is one
    float64 matmul against the broadcast matrix.  No shuffle at all."""
    from ..state.broadcast import fetch, put

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def eval_split(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        return batch.filter(pa.array((vid % 20) == 7))

    ev = emb.map_batches(eval_split, batch_format="pyarrow").to_pandas()
    E = np.stack(ev["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    ref = put(np.ascontiguousarray((E / norms).T))

    def flag(batch: pa.Table, _thr=threshold, _ref=ref) -> pa.Table:
        ET = fetch(_ref)
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        train = (vid % 20) != 7
        vecs = np.stack(
            batch.column("embedding").to_numpy(zero_copy_only=False)
        ).astype(np.float64)[train]
        vid = vid[train]
        if not len(vid):
            return pa.table({"vec_id": pa.array([], pa.int64())})
        n = np.linalg.norm(vecs, axis=1, keepdims=True)
        n[n == 0] = 1.0
        mx = ((vecs / n) @ ET).max(axis=1)
        return pa.table({"vec_id": pa.array(vid[mx >= _thr])})

    out = emb.map_batches(flag, batch_format="pyarrow").to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out = out.sort_values("vec_id").reset_index(drop=True)
    return pa.Table.from_pandas(out[["vec_id"]], preserve_index=False)


def q200_smb_join_revenue(sf_dir: str, n_buckets: int = 16) -> pa.Table:
    """Sort-merge-bucket (bucketed-layout) join: pay one hash-bucketed
    Parquet write per table, then join lineitem ⋈ orders with ZERO
    shuffle — each task reads one (left, right) bucket-directory pair
    straight from storage (``functions.relational.smb_write/smb_join``).
    The lakehouse pattern that turns every repeated equi-join on the
    bucket key into an embarrassingly-parallel map at 100 TB.  The
    layout is built once per (version, sf_dir) under /tmp with an
    atomic rename (a crashed build can never half-poison it) and reused
    across calls — exactly how a real table layout amortizes.
    Revenue is exact integer cents; distinct-order counts are exact."""
    import hashlib
    import os

    from ray.data.aggregate import Count, Sum

    from ..functions.relational import (SMB_LAYOUT_VERSION, smb_join,
                                        smb_write)

    tag = hashlib.sha1(
        f"smb|v{SMB_LAYOUT_VERSION}|{n_buckets}|{sf_dir}".encode()
    ).hexdigest()[:12]
    base = f"/tmp/stanford_re_ray_smb_{tag}"

    if not os.path.isdir(base):
        tmp = f"{base}.build{os.getpid()}"
        ords = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
        smb_write(ords.map_batches(
            lambda b: pa.table({
                "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
                "o_orderpriority": b.column("o_orderpriority")}),
            batch_format="pyarrow"), f"{tmp}/orders", "o_orderkey",
            n_buckets)

        def li_prep(batch: pa.Table) -> pa.Table:
            ep = batch.column("l_extendedprice").to_numpy()
            disc = batch.column("l_discount").to_numpy()
            cents = np.floor(ep * (1.0 - disc) * 100.0 + 0.5) \
                .astype(np.int64)
            return pa.table({
                "o_orderkey": pc.cast(batch.column("l_orderkey"),
                                      pa.int64()),
                "cents": pa.array(cents)})

        li = _read(sf_dir, "lineitem",
                   ["l_orderkey", "l_extendedprice", "l_discount"])
        smb_write(li.map_batches(li_prep, batch_format="pyarrow"),
                  f"{tmp}/lineitem", "o_orderkey", n_buckets)
        try:
            os.rename(tmp, base)
        except OSError:
            pass  # a concurrent builder won; its layout is identical

    joined = smb_join(f"{base}/lineitem", f"{base}/orders",
                      on="o_orderkey", n_buckets=n_buckets)
    out = (joined.groupby(["o_orderpriority", "o_orderkey"])
           .aggregate(Count(alias_name="n_items"),
                      Sum("cents", alias_name="cents"))
           .groupby("o_orderpriority")
           .aggregate(Count(alias_name="n_orders"),
                      Sum("n_items", alias_name="n_items"),
                      Sum("cents", alias_name="revenue_cents"))
           .to_pandas())
    for c in ("n_orders", "n_items", "revenue_cents"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("o_orderpriority").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["o_orderpriority", "n_orders", "n_items", "revenue_cents"]],
        preserve_index=False)


def q201_unigram_lm(sf_dir: str) -> pa.Table:
    """Unigram-LM (SentencePiece-style) tokenizer training over the
    documents corpus (``functions.corpus.unigram_lm_train``): hard-EM
    Viterbi counts over the word-frequency table with broadcast piece
    scores — integer-associative shuffles throughout, pinned against a
    serial reference in pytest (iterative EM is not SQL-expressible,
    rows-only like q53 BPE)."""
    from ..functions.corpus import unigram_lm_train

    docs = _read(sf_dir, "documents", ["text"])
    return unigram_lm_train(docs, vocab_size=96, n_em=2,
                            max_piece_len=3)


def q203_cluster_pair_eval(sf_dir: str) -> pa.Table:
    """Pairwise clustering evaluation — the ER/dedup scoreboard: treat
    ``source`` as the PREDICTED clustering of documents and ``lang`` as
    GOLD, and compute exact pair-level TP/FP/FN plus integer-ppm
    precision/recall/F1 from the (source, lang) contingency table.  One
    combiner'd groupby; the C(n,2) folds happen over |sources × langs|
    cells on the driver — pair counts are computed from counts, never by
    materializing pairs (the pair space is quadratic in corpus size;
    the contingency table is not)."""
    from ray.data.aggregate import Count

    docs = _read(sf_dir, "documents", ["source", "lang"])
    cells = (docs.groupby(["source", "lang"])
             .aggregate(Count(alias_name="n")).to_pandas())
    cells["n"] = cells["n"].astype("int64")

    def c2(s) -> int:
        v = s.astype("int64")
        return int((v * (v - 1) // 2).sum())

    tp = c2(cells["n"])
    same_pred = c2(cells.groupby("source")["n"].sum())
    same_gold = c2(cells.groupby("lang")["n"].sum())
    fp, fn = same_pred - tp, same_gold - tp
    return pa.table({
        "tp_pairs": pa.array([tp], pa.int64()),
        "fp_pairs": pa.array([fp], pa.int64()),
        "fn_pairs": pa.array([fn], pa.int64()),
        "precision_ppm": pa.array([(1_000_000 * tp) // same_pred],
                                  pa.int64()),
        "recall_ppm": pa.array([(1_000_000 * tp) // same_gold],
                               pa.int64()),
        "f1_ppm": pa.array([(2_000_000 * tp) // (same_pred + same_gold)],
                           pa.int64())})


def q204_missing_partitions(sf_dir: str) -> pa.Table:
    """Backfill planner: per event_type, how many daily partitions are
    missing against the corpus-wide day span — the gap detection a
    scheduler runs before launching catch-up jobs.  One distinct
    (event_type, day) groupby (map-side combined); the span fold is
    |types| rows on the driver."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({"event_type": batch.column("event_type"),
                         "day": pa.array(us // 86_400_000_000)})

    days = (ev.map_batches(prep, batch_format="pyarrow")
            .groupby(["event_type", "day"])
            .aggregate(Count(alias_name="n")).to_pandas())
    days["day"] = days["day"].astype("int64")
    lo, hi = int(days["day"].min()), int(days["day"].max())
    span = hi - lo + 1
    per = (days.groupby("event_type", as_index=False)
           .agg(n_present=("day", "nunique")))
    per["n_present"] = per["n_present"].astype("int64")
    per["n_expected"] = np.int64(span)
    per["n_missing"] = per["n_expected"] - per["n_present"]
    per = per.sort_values("event_type").reset_index(drop=True)
    return pa.Table.from_pandas(
        per[["event_type", "n_expected", "n_present", "n_missing"]],
        preserve_index=False)


def q205_incremental_view_merge(sf_dir: str) -> pa.Table:
    """Incremental materialized-view maintenance: the stored aggregate
    view (per-event_type count + exact cent sum over the BASE snapshot,
    event_id % 4 != 3) is merged with the DELTA batch's partials
    (event_id % 4 == 3) by a union + one groupby over view-sized rows —
    the base EVENTS are never rescanned, which is the entire point at
    100 TB: maintenance cost scales with |delta| + |view|, not |base|.
    The oracle recomputes the view from scratch over all events; the
    merged result must match it exactly (count/cent sums are integer,
    so the merge reduction is associative)."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def partials(batch: pa.Table, want_delta: bool) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        sel = (eid % 4) == 3 if want_delta else (eid % 4) != 3
        t = batch.filter(pa.array(sel))
        v = t.column("value").to_numpy().astype(np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({"event_type": t.column("event_type"),
                         "n": pa.array(np.ones(len(t), np.int64)),
                         "cents": pa.array(cents)})

    def agg(ds: ray.data.Dataset) -> ray.data.Dataset:
        return (ds.groupby("event_type")
                .aggregate(Sum("n", alias_name="n"),
                           Sum("cents", alias_name="cents")))

    # the stored view: built once from the base snapshot (in production
    # this is a Parquet table read back, not a recompute)
    base_view = agg(ev.map_batches(
        lambda b: partials(b, False), batch_format="pyarrow"))
    delta = agg(ev.map_batches(
        lambda b: partials(b, True), batch_format="pyarrow"))
    merged = agg(base_view.union(delta)).to_pandas()
    merged["n"] = merged["n"].astype("int64")
    merged["cents"] = merged["cents"].astype("int64")
    merged = merged.sort_values("event_type").reset_index(drop=True)
    return pa.Table.from_pandas(merged[["event_type", "n", "cents"]],
                                preserve_index=False)


def q206_rag_chunks(sf_dir: str, size: int = 64,
                    stride: int = 48) -> pa.Table:
    """RAG / pretraining chunking plan: split every document into
    ``size``-token windows advancing by ``stride`` (overlap = size −
    stride) and emit the (doc_id, chunk_idx, tok_start, tok_end) plan —
    the chunk table an embedding/indexing pipeline feeds to its encoder
    actor pool.  Pure per-batch map: token counts come from the Arrow
    tokenizer kernel, the chunk explosion is vectorized repeat/arange —
    no Python loop, no shuffle (the plan is emitted in corpus order)."""
    from ..functions.corpus import _tokenize_column

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def chunks(batch: pa.Table, _s=size, _t=stride) -> pa.Table:
        parent, _flat = _tokenize_column(batch.column("text"))
        ntok = np.bincount(parent.to_numpy(zero_copy_only=False),
                           minlength=batch.num_rows).astype(np.int64)
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        nch = np.where(ntok == 0, 0,
                       np.where(ntok <= _s, 1,
                                1 + (ntok - _s + _t - 1) // _t)) \
            .astype(np.int64)
        rep_doc = np.repeat(did, nch)
        rep_ntok = np.repeat(ntok, nch)
        total = int(nch.sum())
        starts = np.cumsum(nch) - nch
        idx = np.arange(total, dtype=np.int64) - np.repeat(starts, nch)
        ts = idx * _t
        te = np.minimum(ts + _s, rep_ntok)
        return pa.table({"doc_id": pa.array(rep_doc),
                         "chunk_idx": pa.array(idx),
                         "tok_start": pa.array(ts),
                         "tok_end": pa.array(te)})

    out = docs.map_batches(chunks, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q207_mixture_interleave(sf_dir: str, limit: int = 200) -> pa.Table:
    """Deterministic mixture-interleaved epoch order: the k-th document
    of a source with n_s documents takes the global sort key
    (2k−1)/(2·n_s), so every prefix of the epoch carries each source in
    its corpus proportion — the RNG-free batch scheduler for mixture
    training.  Keys compare in exact integers ((2k−1)·10¹² // 2n_s;
    fits int64 below ~4.6M docs/source — drop to 10⁹ beyond).
    Per-source ranks come from one hash(source) map_groups (at 100 TB:
    the two-pass distributed prefix sum q46 packing uses); only the
    top-``limit`` head of the global order is returned."""
    from ray.data.aggregate import Count

    from ..functions.hashing import stable_u32
    from ..schema import pd_to_arrow

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    counts = (docs.groupby("source").aggregate(Count(alias_name="n"))
              .to_pandas())
    n_by_source = {s: int(n) for s, n in zip(counts["source"],
                                             counts["n"])}

    def prep(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        b = np.array([stable_u32(s) % 16 for s in src], np.int32)
        return pa.table({"doc_id": pc.cast(batch.column("doc_id"),
                                           pa.int64()),
                         "source": batch.column("source"),
                         "__bucket": pa.array(b)})

    def rank(g: pd.DataFrame, _ns=n_by_source):
        g = g.drop(columns=["__bucket"]).sort_values(
            ["source", "doc_id"], kind="mergesort")
        src = g["source"].to_numpy()
        m = len(g)
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        seg_len = np.diff(np.r_[starts, m])
        rn = (np.arange(m) - np.repeat(starts, seg_len) + 1) \
            .astype(np.int64)
        ns = np.array([_ns[s] for s in src], np.int64)
        ikey = (2 * rn - 1) * 1_000_000_000_000 // (2 * ns)
        out = pd.DataFrame({"source": g["source"].to_numpy(),
                            "rn": rn, "ikey": ikey})
        return pd_to_arrow(out)

    head = (docs.map_batches(prep, batch_format="pyarrow")
            .groupby("__bucket").map_groups(rank, batch_format="pandas")
            .sort(["ikey", "source", "rn"]).limit(limit).to_pandas())
    head["pos"] = np.arange(1, len(head) + 1, dtype=np.int64)
    for c in ("rn", "ikey"):
        head[c] = head[c].astype("int64")
    return pa.Table.from_pandas(head[["pos", "source", "rn", "ikey"]],
                                preserve_index=False)


def q208_maximal_matching(sf_dir: str) -> pa.Table:
    """Greedy maximum-weight maximal matching
    (``graph_ops.maximal_matching`` — distributed local-dominant rounds,
    equal to serial greedy under the (w DESC, a, b) total order;
    hypothesis-pinned) over q193's weighted event graph.  The matching
    primitive backs one-to-one record linkage and dedup-pair collapse.
    Output: matched-edge count, total weight, matched-vertex count.
    Rows-only by nature (iterative greedy is not SQL-expressible)."""
    from ray.data.aggregate import Count, Sum

    from ..pipelines.graph_ops import maximal_matching

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({
            "src": pa.array(src[ok], pa.int64()),
            "dst": pa.array(dst[ok], pa.int64()),
            "w": pa.array(1 + (src[ok] * 31 + dst[ok] * 17) % 9,
                          pa.int64())})

    m = maximal_matching(ds.map_batches(edges, batch_format="pyarrow"),
                         est_rows=n_events // 7)
    agg = m.aggregate(Count(), Sum("w"))
    n_m = int(agg["count()"] or 0)
    return pa.table({
        "n_matched": pa.array([n_m], pa.int64()),
        "total_w": pa.array([int(agg["sum(w)"] or 0)], pa.int64()),
        "n_matched_nodes": pa.array([2 * n_m], pa.int64())})


def q209_contract_violations(sf_dir: str) -> pa.Table:
    """Data-contract audit: declared CHECK rules evaluated per batch
    with integer violation partials — the pre-publish gate a curation
    pipeline runs alongside the FD (q195) and FK (q124) audits.  Rules:
    documents.lang ∈ {en,de,fr}; documents.n_chars ≤ 2000;
    events.value ≤ 100; events.ts < 2024-02-01.  Each table scans once
    and emits |rules| partial rows per batch; the groupby reduces
    |rules| keys."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    ev = _read(sf_dir, "events", ["value", "ts"])

    def doc_rules(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang").to_pylist()
        nc = batch.column("n_chars").to_numpy().astype(np.int64)
        n = len(nc)
        allowed = {"en", "de", "fr"}
        v1 = sum(1 for x in lang if x not in allowed)
        v2 = int((nc > 2000).sum())
        return pa.table({
            "rule": pa.array(["doc_lang_allowed", "doc_len_max_2000"],
                             pa.string()),
            "n_rows": pa.array([n, n], pa.int64()),
            "n_violations": pa.array([v1, v2], pa.int64())})

    def ev_rules(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy().astype(np.float64)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        n = len(v)
        cutoff = 1_706_745_600_000_000  # 2024-02-01T00:00:00Z in µs
        v3 = int((v > 100.0).sum())
        v4 = int((us >= cutoff).sum())
        return pa.table({
            "rule": pa.array(["event_value_max_100",
                              "event_ts_before_feb"], pa.string()),
            "n_rows": pa.array([n, n], pa.int64()),
            "n_violations": pa.array([v3, v4], pa.int64())})

    parts = docs.map_batches(doc_rules, batch_format="pyarrow").union(
        ev.map_batches(ev_rules, batch_format="pyarrow"))
    out = (parts.groupby("rule")
           .aggregate(Sum("n_rows", alias_name="n_rows"),
                      Sum("n_violations", alias_name="n_violations"))
           .to_pandas())
    for c in ("n_rows", "n_violations"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("rule").reset_index(drop=True)
    return pa.Table.from_pandas(out[["rule", "n_rows", "n_violations"]],
                                preserve_index=False)


def q210_partitioned_sink_audit(sf_dir: str) -> pa.Table:
    """Resumable partitioned sink + footer-only audit: write documents
    as Parquet partitioned by lang under /tmp (hive layout, atomic
    rename, reused across calls — the resumable-output contract: a
    rerun skips finished partitions), then audit the layout by reading
    ONLY Parquet footers (no data pass) and report rows per partition.
    The value check is end-to-end sink integrity: a lost or duplicated
    block fails the per-lang row hash against the groupby oracle."""
    import glob
    import hashlib
    import os

    import pyarrow.parquet as pq

    tag = hashlib.sha1(f"sink|v1|{sf_dir}".encode()).hexdigest()[:12]
    base = f"/tmp/stanford_re_ray_sink_{tag}"
    if not os.path.isdir(base):
        tmp = f"{base}.build{os.getpid()}"
        _read(sf_dir, "documents", ["doc_id", "lang", "source"]) \
            .write_parquet(tmp, partition_cols=["lang"])
        try:
            os.rename(tmp, base)
        except OSError:
            pass  # concurrent builder won; layouts are identical
    rows = []
    for d in sorted(os.listdir(base)):
        if not d.startswith("lang="):
            continue
        n = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted(glob.glob(f"{base}/{d}/*.parquet")))
        rows.append((d.split("=", 1)[1], n))
    return pa.table({
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64())})


def q211_semantic_boundaries(sf_dir: str, bucket_rows: int = 512
                             ) -> pa.Table:
    """Adjacent-pair cosine over the id-ordered embedding stream — the
    semantic-segmentation / drift-boundary primitive (cosine between
    consecutive chunks marks topic breaks).  NO global sort: each
    vector lands in bucket vec_id // B, plus a HALO copy to the
    previous bucket when it is that bucket's first id, so every
    consecutive pair meets in exactly one task — the halo-exchange
    pattern for windowed ops over an id-partitioned stream.  Cosine is
    float64 rounded half-even to 6 dp (same expression as the oracle's
    round())."""
    from ..schema import pd_to_arrow

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def halo(batch: pa.Table, _b=bucket_rows) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        own = vid // _b
        is_first = (vid % _b) == 0
        out_vid = np.concatenate([vid, vid[is_first]])
        out_bkt = np.concatenate([own, own[is_first] - 1])
        idx = np.concatenate([np.arange(len(vid)),
                              np.flatnonzero(is_first)])
        keep = out_bkt >= 0
        t = batch.take(pa.array(idx[keep]))
        return pa.table({"vec_id": pa.array(out_vid[keep]),
                         "embedding": t.column("embedding"),
                         "__bucket": pa.array(out_bkt[keep])})

    def pairs(g: pd.DataFrame, _b=bucket_rows):
        bkt = int(g["__bucket"].iloc[0])
        g = g.sort_values("vec_id", kind="mergesort")
        vid = g["vec_id"].to_numpy(np.int64)
        vecs = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        n = np.linalg.norm(vecs, axis=1)
        n[n == 0] = 1.0
        adj = vid[1:] == vid[:-1] + 1
        own = (vid[:-1] // _b) == bkt   # halo rows pair, never anchor
        cos = (vecs[:-1] * vecs[1:]).sum(axis=1) / (n[:-1] * n[1:])
        keep = adj & own
        out = pd.DataFrame({
            "vec_id": vid[:-1][keep],
            "cosine": np.round(cos[keep], 6)})
        if not len(out):
            out = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                "cosine": pd.Series([],
                                                    dtype="float64")})
        out["is_boundary"] = (out["cosine"] < 0.0).astype("int64")
        return pd_to_arrow(out)

    out = (emb.map_batches(halo, batch_format="pyarrow")
           .groupby("__bucket").map_groups(pairs, batch_format="pandas")
           .to_pandas())
    out["vec_id"] = out["vec_id"].astype("int64")
    out = out.sort_values("vec_id").reset_index(drop=True)
    return pa.Table.from_pandas(out[["vec_id", "cosine", "is_boundary"]],
                                preserve_index=False)


def q212_token_budget_plan(sf_dir: str, cap: int = 128) -> pa.Table:
    """Token-budget accounting: per source, how many tokens survive a
    per-document ``cap``-token truncation and how many drop — the cost
    table a pretraining run consults before fixing sequence length.
    One Arrow-tokenizer pass, per-batch integer partials, |sources|-key
    groupby."""
    from ray.data.aggregate import Count, Sum

    from ..functions.corpus import _tokenize_column

    docs = _read(sf_dir, "documents", ["source", "text"])

    def plan(batch: pa.Table, _c=cap) -> pa.Table:
        parent, _flat = _tokenize_column(batch.column("text"))
        ntok = np.bincount(parent.to_numpy(zero_copy_only=False),
                           minlength=batch.num_rows).astype(np.int64)
        kept = np.minimum(ntok, _c)
        return pa.table({"source": batch.column("source"),
                         "n_tokens": pa.array(ntok),
                         "kept_tokens": pa.array(kept),
                         "dropped_tokens": pa.array(ntok - kept)})

    out = (docs.map_batches(plan, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_tokens", alias_name="total_tokens"),
                      Sum("kept_tokens", alias_name="kept_tokens"),
                      Sum("dropped_tokens", alias_name="dropped_tokens"))
           .to_pandas())
    for c in ("n_docs", "total_tokens", "kept_tokens", "dropped_tokens"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("source").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["source", "n_docs", "total_tokens", "kept_tokens",
             "dropped_tokens"]], preserve_index=False)
def q213_global_row_number(sf_dir: str, width: int = 256) -> pa.Table:
    """Global row numbering in (n_chars, doc_id) order WITHOUT a global
    sort — the distributed zipWithIndex: (1) one combiner'd groupby
    counts rows per range bucket (n_chars // width); (2) the driver
    prefix-sums the |buckets| counts into exact offsets; (3) rows route
    to their bucket (hash-free RANGE partitioning, so bucket order IS
    key order), sort locally, and take index = offset + local rank.
    Index assignment is exact and deterministic regardless of bucket
    balance; balance only affects task skew (at 100 TB derive ``width``
    from the q163 equi-depth histogram instead of a constant)."""
    from ray.data.aggregate import Count

    from ..schema import pd_to_arrow

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def tag(batch: pa.Table, _w=width) -> pa.Table:
        nc = batch.column("n_chars").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_chars": pa.array(nc),
            "__bucket": pa.array((nc // _w).astype(np.int32))})

    tagged = tag_ds = docs.map_batches(tag, batch_format="pyarrow") \
        .materialize()
    counts = (tagged.groupby("__bucket")
              .aggregate(Count(alias_name="n")).to_pandas()
              .sort_values("__bucket").reset_index(drop=True))
    offs = dict(zip(
        counts["__bucket"].astype(int),
        np.concatenate([[0], np.cumsum(
            counts["n"].to_numpy(np.int64))[:-1]])))

    def index(g: pd.DataFrame, _o=offs):
        b = int(g["__bucket"].iloc[0])
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        out = pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "global_idx": _o[b] + np.arange(1, len(g) + 1,
                                            dtype=np.int64)})
        return pd_to_arrow(out)

    out = (tag_ds.groupby("__bucket")
           .map_groups(index, batch_format="pandas").to_pandas())
    out = out.sort_values("doc_id").reset_index(drop=True)
    for c in ("doc_id", "global_idx"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "global_idx"]],
                                preserve_index=False)


def q214_ivfpq_topk(sf_dir: str) -> pa.Table:
    """IVF-PQ approximate nearest neighbors
    (``similarity.ivfpq_topk`` — the Faiss-standard composition):
    one pass IVF-assigns and PQ-encodes the corpus, each query prunes
    to its 4 nearest of 16 lists and ADC-ranks only those codes.
    Queries are vec_ids 0–2's own vectors (q121's query set).
    Rows-only (trained-codebook dependence, like q120/q121); the
    composition is pinned in pytest: probing ALL lists must equal a
    plain pq_topk over every code."""
    from ..functions.similarity import ivfpq_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = np.asarray(
        emb.map_batches(
            lambda b: b.filter(pc.less(b.column("vec_id"), 3)),
            batch_format="pyarrow").to_pandas()
        .sort_values("vec_id")["embedding"].tolist(), dtype=np.float64)
    return ivfpq_topk(emb, q, k=5, n_lists=16, n_probe=4, m=4,
                      k_cent=16)


def q215_drop_reasons(sf_dir: str, eval_mod: int = 97,
                      quantum: int = 1_000_000) -> pa.Table:
    """Per-document drop lineage for the q54 curation chain — for every
    document, the FIRST stage that removed it ('quality', 'duplicate',
    'eval_split', 'contaminated', 'balance') or 'kept'.  The audit a
    governance review asks for ("why is doc X not in the training
    set?"), composed from the SAME oracled operators as q54 so the
    lineage is value-checked cross-engine end to end.  Stage shapes are
    unchanged (stateless quality map; sha1-only dedup shuffle;
    broadcast eval n-grams; broadcast per-stratum thresholds) — the
    only addition is that each stage's DROPS are labeled instead of
    discarded."""
    from ..functions.dedup import exact_dedup
    from ..functions.hashing import stable_u64
    from ..functions.mixing import decontaminate
    from ..functions.textstats import gopher_quality_batch

    def labeled(ds: ray.data.Dataset, label: str) -> ray.data.Dataset:
        return ds.map_batches(
            lambda b, _l=label: pa.table({
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "reason": pa.array([_l] * b.num_rows, pa.string())}),
            batch_format="pyarrow")

    docs = _read(sf_dir, "documents",
                 ["doc_id", "lang", "text"]).materialize()

    tagged = docs.map_batches(
        lambda b: b.append_column(
            "__keep", gopher_quality_batch(b).column("keep")),
        batch_format="pyarrow").materialize()
    reasons = [labeled(tagged.map_batches(
        lambda b: b.filter(pc.invert(b.column("__keep"))),
        batch_format="pyarrow"), "quality")]
    q = tagged.map_batches(
        lambda b: b.filter(b.column("__keep")).drop_columns(["__keep"]),
        batch_format="pyarrow").materialize()

    win_ref = ray.put(set(exact_dedup(q, col="text").unique("doc_id")))

    def dup_mask(batch: pa.Table, drop: bool, _ref=win_ref) -> pa.Table:
        from ..state.broadcast import fetch

        win = fetch(_ref)
        m = [(int(i) in win) != drop
             for i in batch.column("doc_id").to_pylist()]
        return batch.filter(pa.array(m, pa.bool_()))

    reasons.append(labeled(q.map_batches(
        lambda b: dup_mask(b, True), batch_format="pyarrow"),
        "duplicate"))
    q2 = q.map_batches(lambda b: dup_mask(b, False),
                       batch_format="pyarrow").materialize()

    dirty_ref = ray.put(set(decontaminate(q2, n=4, eval_mod=eval_mod)
                            .unique("doc_id")))

    def stage3(batch: pa.Table, mode: str, _ref=dirty_ref) -> pa.Table:
        from ..state.broadcast import fetch

        bad = fetch(_ref)
        ids = np.asarray(batch.column("doc_id").to_pylist(),
                         dtype=np.int64)
        is_eval = (ids % eval_mod) == 0
        is_dirty = np.array([int(i) in bad for i in ids],
                            dtype=bool) & ~is_eval
        m = {"eval": is_eval, "dirty": is_dirty,
             "clean": ~is_eval & ~is_dirty}[mode]
        return batch.filter(pa.array(m, pa.bool_()))

    reasons.append(labeled(q2.map_batches(
        lambda b: stage3(b, "eval"), batch_format="pyarrow"),
        "eval_split"))
    reasons.append(labeled(q2.map_batches(
        lambda b: stage3(b, "dirty"), batch_format="pyarrow"),
        "contaminated"))
    clean = q2.map_batches(lambda b: stage3(b, "clean"),
                           batch_format="pyarrow").materialize()

    counts = {r["lang"]: r["count()"]
              for r in clean.groupby("lang").count().take_all()}
    mc = min(counts.values()) if counts else 0
    thr_ref = ray.put({s: (quantum * mc) // c
                       for s, c in counts.items()})

    def final_tag(batch: pa.Table, _ref=thr_ref) -> pa.Table:
        from ..state.broadcast import fetch

        t = fetch(_ref)
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        kept = [stable_u64(str(i)) % quantum < t[s]
                for i, s in zip(ids, langs)]
        return pa.table({
            "doc_id": pa.array([int(i) for i in ids], pa.int64()),
            "reason": pa.array(["kept" if k else "balance"
                                for k in kept], pa.string())})

    reasons.append(clean.map_batches(final_tag,
                                     batch_format="pyarrow"))

    out = reasons[0]
    for r in reasons[1:]:
        out = out.union(r)
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    df["doc_id"] = df["doc_id"].astype("int64")
    return pa.Table.from_pandas(df[["doc_id", "reason"]],
                                preserve_index=False)


def q216_training_shards(sf_dir: str, seq_len: int = 256) -> pa.Table:
    """End-to-end training-shard preparation — the full data-prep
    flagship in one pipeline: q54's curation chain (quality → exact
    dedup → decontaminate → stratum balance) selects the survivors,
    then q46's distributed prefix-sum packs their token stream into
    fixed ``seq_len`` sequences, returning the shard manifest
    (pack_id, n_docs, n_tokens) a trainer consumes.  Survivor ids
    broadcast as a set here (the balanced sample ≪ corpus; beyond the
    broadcast limit use the semi ``hash_join`` exactly as
    ``curate_corpus`` does internally).  Packing tolerates the
    survivor set's id GAPS: bucket offsets key off the buckets actually
    present, density only affects balance.  Oracle composes the q54
    CTE chain verbatim with q46's window-sum tail."""
    from ..functions.mixing import curate_corpus, sequence_packing

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    kept = curate_corpus(docs, est_rows=_row_count(sf_dir, "documents"))
    kept_ids = set(kept.unique("doc_id"))
    ref = ray.put(kept_ids)

    def keep(batch: pa.Table, _ref=ref) -> pa.Table:
        from ..state.broadcast import fetch

        ids = fetch(_ref)
        m = [int(i) in ids
             for i in batch.column("doc_id").to_pylist()]
        return batch.filter(pa.array(m, pa.bool_()))

    survivors = docs.map_batches(keep, batch_format="pyarrow")
    return sequence_packing(survivors, seq_len=seq_len,
                            n_rows=len(kept_ids))


def q217_winnowing(sf_dir: str) -> pa.Table:
    """Winnowing local-fingerprint selection (MOSS; Schleimer et al.
    2003) per document: over the q18 Rabin-Karp 64-cp window hashes,
    every 8-window of consecutive hashes selects its rightmost minimum
    — the selection scheme behind plagiarism/code-clone detection,
    guaranteeing any ≥ 71-cp shared substring yields a shared
    fingerprint.  Output: (doc_id, n_hashes, n_selected).  One
    stateless vectorized map (``textstats.winnow_select_counts``), no
    shuffle; the oracle extends q18's CTE with a windows × 8 join and
    a rightmost-argmin ROW_NUMBER."""
    from ..functions.textstats import winnow_select_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        c = winnow_select_counts(batch.column("text").to_pylist())
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_hashes": pa.array(c[:, 0]),
            "n_selected": pa.array(c[:, 1])})

    out = docs.map_batches(counts, batch_format="pyarrow").to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    for c in ("doc_id", "n_hashes", "n_selected"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["doc_id", "n_hashes",
                                     "n_selected"]],
                                preserve_index=False)


def q218_cosine_histogram(sf_dir: str, mod: int = 50) -> pa.Table:
    """Embedding-space anisotropy diagnostic: the 0.1-wide histogram of
    pairwise cosines over a deterministic hash sample (vec_id % mod ==
    0) — the collapse/anisotropy check run before trusting cosine
    thresholds (a healthy space centers near 0; a collapsed one piles
    up near 1).  The sample is tiny by construction (1/mod² of the
    quadratic pair space); it broadcasts once and pairs compute in one
    vectorized task.  Bins are floor(round(cos, 6) · 10), exact on both
    engines."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def pick(batch: pa.Table, _m=mod) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        return batch.filter(pa.array((vid % _m) == 0))

    sample = emb.map_batches(pick, batch_format="pyarrow").to_pandas()
    sample = sample.sort_values("vec_id").reset_index(drop=True)
    V = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    n = np.linalg.norm(V, axis=1, keepdims=True)
    n[n == 0] = 1.0
    nv = V / n
    sim = nv @ nv.T
    iu = np.triu_indices(len(nv), k=1)
    c6 = np.round(sim[iu], 6)
    bins = np.floor(c6 * 10.0).astype(np.int64)
    vals, cnts = np.unique(bins, return_counts=True)
    return pa.table({
        "bin": pa.array(vals, pa.int64()),
        "n_pairs": pa.array(cnts.astype(np.int64), pa.int64())})


def q219_mutual_information(sf_dir: str) -> pa.Table:
    """Mutual information (nats, 6-dp) between lang and source over
    documents plus the two marginal entropies — the association audit
    behind stratification and leakage checks (MI ≈ 0 ⇒ independent
    splits; high MI ⇒ a lang-balanced sample silently skews sources).
    One (lang, source) combiner'd groupby; the log folds run over
    |langs × sources| cells on the driver, identical expression to the
    oracle."""
    from ray.data.aggregate import Count

    docs = _read(sf_dir, "documents", ["lang", "source"])
    cells = (docs.groupby(["lang", "source"])
             .aggregate(Count(alias_name="n")).to_pandas())
    n = cells["n"].astype("float64").to_numpy()
    N = n.sum()
    la = cells.groupby("lang")["n"].transform("sum") \
        .astype("float64").to_numpy()
    so = cells.groupby("source")["n"].transform("sum") \
        .astype("float64").to_numpy()
    mi = float(((n / N) * np.log(n * N / (la * so))).sum())
    pl = (cells.groupby("lang")["n"].sum().astype("float64")
          .to_numpy()) / N
    ps = (cells.groupby("source")["n"].sum().astype("float64")
          .to_numpy()) / N
    h_lang = float(-(pl * np.log(pl)).sum())
    h_source = float(-(ps * np.log(ps)).sum())
    return pa.table({
        "mi_nats": pa.array([round(mi, 6)], pa.float64()),
        "h_lang": pa.array([round(h_lang, 6)], pa.float64()),
        "h_source": pa.array([round(h_source, 6)], pa.float64())})


def q220_linear_interpolate(sf_dir: str) -> pa.Table:
    """Linear interpolation of each user's value series at fixed probe
    instants (Jan 5/10/15/20/25 2024 midnights UTC) — the gap-filling
    resampler past q158's LOCF: sensor/metric pipelines align irregular
    series onto a regular grid this way.  Fully INTEGER-exact: with
    cent values and µs timestamps, interp = (c_prev·(t_next−p) +
    c_next·(p−t_prev)) // (t_next−t_prev).  Neighbor picks are the
    (us, event_id)-lexicographic boundary rows; one hash(user) bucket
    shuffle, per-user searchsorted inside the bucket."""
    from ..schema import pd_to_arrow

    probes = [(1_704_067_200 + (d - 1) * 86_400) * 1_000_000
              for d in (5, 10, 15, 20, 25)]

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy().astype(np.float64)
        return pa.table({
            "user_id": pa.array(uid),
            "us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
            "__bucket": pa.array((uid % 64).astype(np.int32))})

    def interp(g: pd.DataFrame, _p=probes):
        g = g.sort_values(["user_id", "us", "event_id"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        ends = np.r_[starts[1:], len(g)]
        rows = {"user_id": [], "probe_us": [], "interp_cents": []}
        for s, e in zip(starts, ends):
            seg_us, seg_c = us[s:e], c[s:e]
            for p in _p:
                i = int(np.searchsorted(seg_us, p, side="right"))
                if i == 0 or i == len(seg_us):
                    continue          # no neighbor on one side
                tp, tn = int(seg_us[i - 1]), int(seg_us[i])
                cp, cn = int(seg_c[i - 1]), int(seg_c[i])
                rows["user_id"].append(int(uid[s]))
                rows["probe_us"].append(p)
                rows["interp_cents"].append(
                    (cp * (tn - p) + cn * (p - tp)) // (tn - tp))
        out = pd.DataFrame(rows)
        for col in out.columns:
            out[col] = out[col].astype("int64")
        return pd_to_arrow(out)

    out = (ev.map_batches(prep, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(lambda g: interp(g.drop(columns="__bucket")),
                       batch_format="pandas").to_pandas())
    out = out.sort_values(["user_id", "probe_us"]).reset_index(drop=True)
    for col in out.columns:
        out[col] = out[col].astype("int64")
    return pa.Table.from_pandas(
        out[["user_id", "probe_us", "interp_cents"]],
        preserve_index=False)


def q221_ngram_novelty(sf_dir: str) -> pa.Table:
    """Per-document n-gram novelty: the fraction (ppm) of a document's
    DISTINCT word 3-grams that appear in NO other document — the
    memorization / templated-content audit (novelty ≈ 0 flags
    boilerplate; ≈ 10⁶ flags unique prose).  Distinct (doc, gram) rows
    emit map-side (a doc is one row, so per-batch dedup is global);
    document frequency and the per-doc folds run in hash-BUCKET
    map_groups over the gram buckets (the million-key-groupby rule) —
    one gram-string shuffle total (at 100 TB swap the shuffle key for
    a 128-bit digest, the q56/q129 note)."""
    from ray.data.aggregate import Sum

    from ..functions.corpus import _tokenize_column
    from ..functions.hashing import str_hash_u64_vec
    from ..functions.mixing import ngrams_arrow
    from ..schema import pd_to_arrow

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        pidx, gram = ngrams_arrow(parent, flat, 3)
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        df = pd.DataFrame({
            "doc_id": did[np.asarray(pidx)],
            "g": gram.to_pylist()}).drop_duplicates()
        if not len(df):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "g": pa.array([], pa.string()),
                             "__bucket": pa.array([], pa.int32())})
        bkt = (str_hash_u64_vec(df["g"].tolist())
               % np.uint64(256)).astype(np.int32)
        return pa.table({"doc_id": pa.array(df["doc_id"].to_numpy()),
                         "g": pa.array(df["g"].tolist(), pa.string()),
                         "__bucket": pa.array(bkt)})

    def bucket_fold(g: pd.DataFrame):
        g = g.drop(columns="__bucket")
        df_per_gram = g.groupby("g")["doc_id"].transform("size")
        part = (pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "one": 1,
            "novel": (df_per_gram == 1).astype("int64").to_numpy()})
            .groupby("doc_id", as_index=False).sum())
        part.columns = ["doc_id", "n_grams", "n_novel"]
        for col in part.columns:
            part[col] = part[col].astype("int64")
        return pd_to_arrow(part)

    per = (docs.map_batches(grams, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(bucket_fold, batch_format="pandas")
           .groupby("doc_id")
           .aggregate(Sum("n_grams", alias_name="n_grams"),
                      Sum("n_novel", alias_name="n_novel"))
           .to_pandas())
    all_ids = docs.map_batches(
        lambda b: pa.table({"doc_id": pc.cast(b.column("doc_id"),
                                              pa.int64())}),
        batch_format="pyarrow").to_pandas()
    out = all_ids.merge(per, on="doc_id", how="left").fillna(0)
    for col in ("doc_id", "n_grams", "n_novel"):
        out[col] = out[col].astype("int64")
    out["novelty_ppm"] = np.where(
        out["n_grams"] > 0,
        (1_000_000 * out["n_novel"]) // np.maximum(out["n_grams"], 1),
        0).astype("int64")
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["doc_id", "n_grams", "n_novel", "novelty_ppm"]],
        preserve_index=False)


#: Poisson(1) inverse-CDF thresholds in ppm (cumulative, floor) — the
#: deterministic bootstrap weight ladder; MUST stay identical to the
#: CASE ladder in the q222 oracle.
_POISSON_PPM = (367879, 735758, 919698, 981011, 996340, 999405,
                999916, 999989, 999998)


def q222_bootstrap_ci(sf_dir: str, n_reps: int = 32) -> pa.Table:
    """Deterministic Poisson bootstrap over the event values — the
    scale-out uncertainty quantification for any streaming aggregate
    (Poisson(1) weights approximate with-replacement resampling without
    materializing resamples; Chamandy et al., Google).  Replicate b
    weights each row by inverse-CDF on md5(event_id ∥ b) — pure
    content hash, no RNG, so any parallelism and the SQL oracle
    reproduce the exact same 32 resampled means (integer cents).
    Per-batch (b, Σw, Σw·c) partials; only 32·|batches| rows shuffle."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_u64

    ev = _read(sf_dir, "events", ["event_id", "value"])

    def partials(batch: pa.Table, _r=n_reps) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        v = batch.column("value").to_numpy().astype(np.float64)
        c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        bs, sws, swcs = [], [], []
        th = np.array(_POISSON_PPM, dtype=np.int64)
        for b in range(_r):
            u = np.array([stable_u64(f"{i}-{b}") % 1_000_000
                          for i in eid], dtype=np.int64)
            w = np.searchsorted(th, u, side="right").astype(np.int64)
            bs.append(b)
            sws.append(int(w.sum()))
            swcs.append(int((w * c).sum()))
        return pa.table({"b": pa.array(bs, pa.int64()),
                         "sw": pa.array(sws, pa.int64()),
                         "swc": pa.array(swcs, pa.int64())})

    out = (ev.map_batches(partials, batch_format="pyarrow")
           .groupby("b")
           .aggregate(Sum("sw", alias_name="sw"),
                      Sum("swc", alias_name="swc"))
           .to_pandas())
    out["b"] = out["b"].astype("int64")
    out["sw"] = out["sw"].astype("int64")
    out["mean_cents"] = (out["swc"].astype("int64")
                         // out["sw"].astype("int64")).astype("int64")
    out = out.sort_values("b").reset_index(drop=True)
    return pa.Table.from_pandas(out[["b", "sw", "mean_cents"]],
                                preserve_index=False)


def q223_hll_intersection(sf_dir: str, type_a: str = "click",
                          type_b: str = "purchase") -> pa.Table:
    """Sketch-level audience overlap: HyperLogLog estimates of the
    distinct users behind two event types and their inclusion-exclusion
    intersection (|A∩B| ≈ |A|+|B|−|A∪B|) next to the exact overlap —
    the mergeable-sketch answer to "how many clickers also purchase?"
    that at 100 TB replaces three DISTINCT shuffles with ≤ 3·256
    register rows per batch.  Registers, register sums and the
    linear-counting branch are the exact-integer q49 machinery, so
    every estimate is bit-deterministic and SQL-checkable."""
    from ray.data.aggregate import Max

    from ..functions.sketch import _hll_register, hll_estimate_q

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table, _a=type_a, _b=type_b) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        et = batch.column("event_type").to_pylist()
        regs: dict = {}
        for u, t in zip(uid, et):
            tags = ()
            if t == _a:
                tags = ("a", "u")
            elif t == _b:
                tags = ("b", "u")
            if not tags:
                continue
            bkt, rho = _hll_register(str(int(u)))
            for tag in tags:
                k = (tag, bkt)
                if regs.get(k, 0) < rho:
                    regs[k] = rho
        ks = list(regs)
        return pa.table({
            "tag": pa.array([k[0] for k in ks], pa.string()),
            "bucket": pa.array([k[1] for k in ks], pa.int64()),
            "rho": pa.array([regs[k] for k in ks], pa.int64())})

    rows = (ev.map_batches(partial, batch_format="pyarrow")
            .groupby(["tag", "bucket"])
            .aggregate(Max("rho", alias_name="rho")).take_all())
    regs: dict = {"a": {}, "b": {}, "u": {}}
    for r in rows:
        regs[r["tag"]][r["bucket"]] = r["rho"]
    est_a = hll_estimate_q(regs["a"])
    est_b = hll_estimate_q(regs["b"])
    est_u = hll_estimate_q(regs["u"])

    # exact overlap for calibration: distinct users with BOTH types —
    # one (user, has_a, has_b) groupby, tiny result
    from ray.data.aggregate import Max as _Max

    def flags(batch: pa.Table, _a=type_a, _b=type_b) -> pa.Table:
        et = batch.column("event_type").to_pylist()
        keep = [t in (_a, _b) for t in et]
        t = batch.filter(pa.array(keep, pa.bool_()))
        et2 = t.column("event_type").to_pylist()
        return pa.table({
            "user_id": pc.cast(t.column("user_id"), pa.int64()),
            "fa": pa.array([int(x == _a) for x in et2], pa.int64()),
            "fb": pa.array([int(x == _b) for x in et2], pa.int64())})

    per_user = (ev.map_batches(flags, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(_Max("fa", alias_name="fa"),
                           _Max("fb", alias_name="fb")).to_pandas())
    n_exact = int(((per_user["fa"] == 1)
                   & (per_user["fb"] == 1)).sum())
    return pa.table({
        "est_a_q": pa.array([est_a], pa.int64()),
        "est_b_q": pa.array([est_b], pa.int64()),
        "est_union_q": pa.array([est_u], pa.int64()),
        "est_inter_q": pa.array([est_a + est_b - est_u], pa.int64()),
        "n_exact_inter": pa.array([n_exact], pa.int64())})


def q224_fd_impute(sf_dir: str, mask_mod: int = 13) -> pa.Table:
    """Dependency-driven data repair with held-out evaluation: hide
    lang on every doc_id % 13 == 0 row, impute it as the SOURCE's
    majority lang learned from the visible rows (count DESC, lang ASC
    tie-break), and report per-source imputation accuracy against the
    hidden truth — the mode-imputation repair every cleaning pipeline
    runs on near-FD columns (q195 measures how near).  One combiner'd
    (source, lang) groupby; the mode map is |sources| rows, broadcast;
    scoring is a stateless map."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["doc_id", "source", "lang"])

    def visible(batch: pa.Table, _m=mask_mod) -> pa.Table:
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        return batch.filter(pa.array((did % _m) != 0))

    cnt = (docs.map_batches(visible, batch_format="pyarrow")
           .groupby(["source", "lang"])
           .aggregate(Count(alias_name="n")).to_pandas())
    cnt["n"] = cnt["n"].astype("int64")
    cnt = cnt.sort_values(["source", "n", "lang"],
                          ascending=[True, False, True],
                          kind="mergesort")
    mode = dict(zip(cnt.drop_duplicates("source")["source"],
                    cnt.drop_duplicates("source")["lang"]))
    ref = ray.put(mode)

    def score(batch: pa.Table, _m=mask_mod, _ref=ref) -> pa.Table:
        from ..state.broadcast import fetch

        imp = fetch(_ref)
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        t = batch.filter(pa.array((did % _m) == 0))
        src = t.column("source").to_pylist()
        truth = t.column("lang").to_pylist()
        keep = [s in imp for s in src]
        rows = [(s, int(imp[s] == g)) for s, g, k
                in zip(src, truth, keep) if k]
        return pa.table({
            "source": pa.array([r[0] for r in rows], pa.string()),
            "one": pa.array(np.ones(len(rows), np.int64)),
            "correct": pa.array([r[1] for r in rows], pa.int64())})

    out = (docs.map_batches(score, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("one", alias_name="n_masked"),
                      Sum("correct", alias_name="n_correct"))
           .to_pandas())
    for c in ("n_masked", "n_correct"):
        out[c] = out[c].astype("int64")
    out["acc_ppm"] = ((1_000_000 * out["n_correct"])
                      // out["n_masked"]).astype("int64")
    out = out.sort_values("source").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["source", "n_masked", "n_correct", "acc_ppm"]],
        preserve_index=False)


def _event_graph_edges_fn(n_nodes: int):
    """The deterministic event-derived weighted edge builder shared by
    q116/q193/q208/q225 (src, dst, w batches from events props)."""
    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 7 == 0
        src = eid[keep] % n_nodes
        dst = (eid[keep] + 11 * kk[keep]) % n_nodes
        ok = src != dst
        return pa.table({
            "src": pa.array(src[ok], pa.int64()),
            "dst": pa.array(dst[ok], pa.int64()),
            "w": pa.array(1 + (src[ok] * 31 + dst[ok] * 17) % 9,
                          pa.int64())})
    return edges


def q225_random_walks(sf_dir: str, n_steps: int = 4) -> pa.Table:
    """Deterministic DeepWalk-style walk corpus over the event graph:
    one walk starts at every node with out-edges; at step k the walk at
    node ``cur`` hops to the out-neighbor minimizing
    md5(cur ∥ k ∥ neighbor) — RNG-free, so the corpus is identical at
    any parallelism and in the SQL twin; dead ends stop.  This is the
    node2vec/DeepWalk data-prep stage: the (walk_id, step, node) rows
    feed a skip-gram trainer.  Per step: one hash join frontier ⋈
    edges + one hash-BUCKET argmin map_groups; iterative datasets
    re-materialize at size-derived block counts (CLAUDE.md rule)."""
    from ..functions.hashing import stable_u64
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ev = _read(sf_dir, "events", ["event_id", "props"])
    edges = (ev.map_batches(_event_graph_edges_fn(n_nodes),
                            batch_format="pyarrow")
             .groupby(["src", "dst"]).count()
             .map_batches(lambda b: pa.table({
                 "cur": b.column("src"), "dst": b.column("dst")}),
                 batch_format="pyarrow")
             .repartition(4).materialize())

    frontier = edges.map_batches(
        lambda b: pa.table({"walk_id": b.column("cur"),
                            "cur": b.column("cur")}),
        batch_format="pyarrow").groupby("walk_id").count().map_batches(
        lambda b: pa.table({
            "walk_id": pc.cast(b.column("walk_id"), pa.int64()),
            "cur": pc.cast(b.column("walk_id"), pa.int64())}),
        batch_format="pyarrow").repartition(4).materialize()

    rows = [frontier.map_batches(
        lambda b: pa.table({"walk_id": b.column("walk_id"),
                            "step": pa.array(np.zeros(b.num_rows,
                                                      np.int64)),
                            "node": b.column("cur")}),
        batch_format="pyarrow")]

    for k in range(1, n_steps + 1):
        cand = hash_join(frontier, edges, on="cur",
                         est_rows=max(edges.count(), 1))

        def pick(g: pd.DataFrame, _k=k):
            h = np.array([stable_u64(f"{c}-{_k}-{d}") for c, d
                          in zip(g["cur"], g["dst"])], np.uint64)
            g = g.assign(__h=h).sort_values(
                ["walk_id", "__h", "dst"], kind="mergesort")
            g = g.drop_duplicates("walk_id", keep="first")
            out = pd.DataFrame({
                "walk_id": g["walk_id"].to_numpy(np.int64),
                "step": np.full(len(g), _k, np.int64),
                "node": g["dst"].to_numpy(np.int64)})
            return pd_to_arrow(out)

        def bucketize(b: pa.Table) -> pa.Table:
            wid = b.column("walk_id").to_numpy().astype(np.int64)
            return b.append_column(
                "__bucket", pa.array((wid % 64).astype(np.int32)))

        step_rows = (cand.map_batches(bucketize, batch_format="pyarrow")
                     .groupby("__bucket")
                     .map_groups(lambda g: pick(
                         g.drop(columns="__bucket")),
                         batch_format="pandas")
                     .repartition(4).materialize())
        rows.append(step_rows)
        frontier = step_rows.map_batches(
            lambda b: pa.table({"walk_id": b.column("walk_id"),
                                "cur": b.column("node")}),
            batch_format="pyarrow").repartition(4).materialize()

    out = rows[0]
    for r in rows[1:]:
        out = out.union(r)
    df = out.to_pandas().sort_values(["walk_id", "step"]) \
        .reset_index(drop=True)
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return pa.Table.from_pandas(df[["walk_id", "step", "node"]],
                                preserve_index=False)


def q226_skipgram_pairs(sf_dir: str, window: int = 2,
                        top_n: int = 50) -> pa.Table:
    """Skip-gram training pairs from the q225 walk corpus: every
    (center, context) node pair within ±``window`` steps on the same
    walk, aggregated to the ``top_n`` most frequent pairs — the stage
    that turns walks into word2vec-style trainer input.  Pair
    generation is a vectorized shift-compare per walk inside
    hash-BUCKET map_groups; counts reduce associatively; the final
    top-n is a sort over |distinct pairs| partials."""
    from ray.data.aggregate import Sum

    from ..schema import pd_to_arrow

    walks = q225_random_walks(sf_dir)
    ds = rd.from_arrow(walks)

    def bucketize(b: pa.Table) -> pa.Table:
        wid = b.column("walk_id").to_numpy().astype(np.int64)
        return b.append_column(
            "__bucket", pa.array((wid % 64).astype(np.int32)))

    def pairs(g: pd.DataFrame, _w=window):
        g = g.drop(columns="__bucket").sort_values(
            ["walk_id", "step"], kind="mergesort")
        wid = g["walk_id"].to_numpy(np.int64)
        node = g["node"].to_numpy(np.int64)
        outs = {"center": [], "context": []}
        for d in range(1, _w + 1):
            same = wid[d:] == wid[:-d]
            a, b = node[:-d][same], node[d:][same]
            outs["center"].extend([a, b])
            outs["context"].extend([b, a])
        if not outs["center"]:
            return pd_to_arrow(pd.DataFrame({
                "center": pd.Series([], dtype="int64"),
                "context": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")}))
        df = pd.DataFrame({
            "center": np.concatenate(outs["center"]),
            "context": np.concatenate(outs["context"])})
        out = df.groupby(["center", "context"], as_index=False).size()
        out.columns = ["center", "context", "n"]
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return pd_to_arrow(out)

    counts = (ds.map_batches(bucketize, batch_format="pyarrow")
              .groupby("__bucket")
              .map_groups(pairs, batch_format="pandas")
              .groupby(["center", "context"])
              .aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    counts["n"] = counts["n"].astype("int64")
    counts = counts.sort_values(
        ["n", "center", "context"],
        ascending=[False, True, True],
        kind="mergesort").head(top_n).reset_index(drop=True)
    for c in ("center", "context"):
        counts[c] = counts[c].astype("int64")
    return pa.Table.from_pandas(counts[["center", "context", "n"]],
                                preserve_index=False)


def q227_tokenizer_fertility(sf_dir: str, n_merges: int = 24) -> pa.Table:
    """Tokenizer fertility audit: BPE subwords-per-word (ppm) by source
    — the metric that decides whether a tokenizer under-serves a domain
    (high fertility = more compute per byte of that source).  Trains
    q53's merge table, applies it with the q109 actor-pool encoder,
    joins the per-doc subword counts back to (source, word-count) via
    the key-partitioned hash_join, and reduces to |sources| rows.
    Rows-only (trained merges are not SQL-expressible; both components
    are serial-pinned in pytest)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.corpus import (_tokenize_column, bpe_encode,
                                    bpe_train)
    from ..functions.relational import hash_join

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents",
                 ["doc_id", "source", "text"]).materialize()
    merges = bpe_train(docs, n_merges=n_merges)
    enc = bpe_encode(docs, merges).map_batches(
        lambda b: b.select(["doc_id", "n_subwords"]),
        batch_format="pyarrow")

    def words(batch: pa.Table) -> pa.Table:
        parent, _ = _tokenize_column(batch.column("text"))
        cnt = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(cnt, np.asarray(parent), 1)
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "source": batch.column("source"),
            "n_words": pa.array(cnt)})

    joined = hash_join(docs.map_batches(words, batch_format="pyarrow"),
                       enc, on="doc_id", est_rows=n_docs)
    out = (joined.groupby("source")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_words", alias_name="n_words"),
                      Sum("n_subwords", alias_name="n_subwords"))
           .to_pandas())
    for c in ("n_docs", "n_words", "n_subwords"):
        out[c] = out[c].astype("int64")
    out["fertility_ppm"] = ((1_000_000 * out["n_subwords"])
                            // np.maximum(out["n_words"], 1)) \
        .astype("int64")
    out = out.sort_values("source").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["source", "n_docs", "n_words", "n_subwords",
             "fertility_ppm"]], preserve_index=False)


def q228_graph_coloring(sf_dir: str) -> pa.Table:
    """Distributed graph coloring (``graph_ops.greedy_coloring`` —
    layered Luby MIS, proper by construction, hypothesis-pinned against
    a serial mirror) over q193's event graph: the conflict-free
    parallel-scheduling primitive.  Output: per-color class sizes plus
    the validity invariant is pytest-pinned.  Rows-only (iterative
    symmetry breaking is not SQL-expressible)."""
    from ray.data.aggregate import Count

    from ..pipelines.graph_ops import greedy_coloring

    n_events = _row_count(sf_dir, "events")
    n_nodes = n_events // 10
    ds = _read(sf_dir, "events", ["event_id", "props"])
    colored = greedy_coloring(
        ds.map_batches(_event_graph_edges_fn(n_nodes),
                       batch_format="pyarrow"),
        est_rows=n_events // 7)
    out = (colored.groupby("color").aggregate(Count(alias_name="n"))
           .to_pandas())
    out["color"] = out["color"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out = out.sort_values("color").reset_index(drop=True)
    return pa.Table.from_pandas(out[["color", "n"]],
                                preserve_index=False)


def q229_moss_pairs(sf_dir: str, min_shared: int = 2) -> pa.Table:
    """MOSS end-to-end: candidate plagiarism/clone pairs = documents
    sharing ≥ ``min_shared`` winnow-selected fingerprints (q217's
    selection), with the shared count — the report MOSS produces over
    a submission corpus.  Selected (hash, doc) rows shuffle bucketed by
    hash; pairs generate inside hash groups only (LSH-bucket shape —
    a boilerplate hash shared by k docs costs C(k,2) pairs, the
    standard hot-bucket caveat; cap or drop df-huge hashes at 100 TB).
    """
    from ray.data.aggregate import Sum

    from ..functions.textstats import winnow_selected_hashes
    from ..schema import pd_to_arrow

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def selected(batch: pa.Table) -> pa.Table:
        hs = winnow_selected_hashes(batch.column("text").to_pylist())
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        lens = np.array([len(h) for h in hs], np.int64)
        flat = (np.concatenate([np.asarray(h, np.uint64) for h in hs])
                if lens.sum() else np.array([], np.uint64))
        return pa.table({
            "doc_id": pa.array(np.repeat(did, lens)),
            "h": pa.array(flat.astype(np.int64)),
            "__bucket": pa.array(
                (flat % np.uint64(256)).astype(np.int32))})

    def pairs(g: pd.DataFrame):
        g = g.drop(columns="__bucket")
        outs = []
        for _, grp in g.groupby("h"):
            ids = np.sort(grp["doc_id"].to_numpy(np.int64))
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            outs.append(pd.DataFrame({"doc_a": ids[a],
                                      "doc_b": ids[b]}))
        if not outs:
            return pd_to_arrow(pd.DataFrame({
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")}))
        df = (pd.concat(outs).groupby(["doc_a", "doc_b"],
                                      as_index=False).size())
        df.columns = ["doc_a", "doc_b", "n"]
        for c in df.columns:
            df[c] = df[c].astype("int64")
        return pd_to_arrow(df)

    out = (docs.map_batches(selected, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(pairs, batch_format="pandas")
           .groupby(["doc_a", "doc_b"])
           .aggregate(Sum("n", alias_name="n_shared"))
           .to_pandas())
    out["n_shared"] = out["n_shared"].astype("int64")
    out = out[out["n_shared"] >= min_shared]
    for c in ("doc_a", "doc_b"):
        out[c] = out[c].astype("int64")
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["doc_a", "doc_b", "n_shared"]],
                                preserve_index=False)


def q230_oov_rate(sf_dir: str, vocab_k: int = 1000) -> pa.Table:
    """OOV-rate audit under a truncated vocabulary: per source, the ppm
    of token occurrences falling outside the corpus-wide top-``vocab_k``
    tokens (count DESC, token ASC) — the impact table consulted before
    fixing a vocab size (which domains a small vocab under-serves).
    One term-frequency combiner groupby; the top-k set broadcasts; the
    scoring pass is one Arrow tokenize + hash probe per batch."""
    from ray.data.aggregate import Sum

    from ..functions.corpus import _tokenize_column, term_count_partial

    docs = _read(sf_dir, "documents", ["source", "text"])
    tf = (docs.map_batches(term_count_partial, batch_format="pyarrow")
          .groupby("token").aggregate(Sum("n", alias_name="n"))
          .to_pandas())
    tf["n"] = tf["n"].astype("int64")
    tf = tf.sort_values(["n", "token"], ascending=[False, True],
                        kind="mergesort").head(vocab_k)
    vocab = ray.put(frozenset(tf["token"]))

    def score(batch: pa.Table, _ref=vocab) -> pa.Table:
        from ..state.broadcast import fetch

        v = fetch(_ref)
        parent, flat = _tokenize_column(batch.column("text"))
        p = np.asarray(parent, dtype=np.int64)
        toks = flat.to_pylist()
        oov = np.fromiter((t not in v for t in toks), dtype=np.int64,
                          count=len(toks))
        n_tok = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(n_tok, p, 1)
        n_oov = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(n_oov, p, oov)
        return pa.table({"source": batch.column("source"),
                         "n_tokens": pa.array(n_tok),
                         "n_oov": pa.array(n_oov)})

    out = (docs.map_batches(score, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                      Sum("n_oov", alias_name="n_oov"))
           .to_pandas())
    for c in ("n_tokens", "n_oov"):
        out[c] = out[c].astype("int64")
    out["oov_ppm"] = ((1_000_000 * out["n_oov"])
                      // np.maximum(out["n_tokens"], 1)).astype("int64")
    out = out.sort_values("source").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["source", "n_tokens", "n_oov", "oov_ppm"]],
        preserve_index=False)


def q231_label_propagation(sf_dir: str, n_rounds: int = 3) -> pa.Table:
    """Community detection via synchronous label propagation
    (``graph_ops.label_propagation``) over a scale-adaptive sparse
    event graph (n_nodes = n_events // 10, every 3rd event an edge —
    average degree ~6, several genuine communities at every scale
    factor).  Per round: ONE label-shipping hash join + a hash-bucket
    vectorized mode reduce; ties break toward the smallest label, so
    the run is deterministic and the unrolled SQL twin replays it
    exactly (round-synchronous, the kcore contract)."""
    from ..pipelines.graph_ops import label_propagation

    n_events = _row_count(sf_dir, "events")
    n_nodes = max(n_events // 10, 1)
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 3 == 0
        return pa.table({"src": pa.array(eid[keep] % n_nodes),
                         "dst": pa.array((eid[keep] + 19 * kk[keep])
                                         % n_nodes)})

    out = (label_propagation(ds.map_batches(edges, batch_format="pyarrow"),
                             n_rounds=n_rounds, est_rows=n_events)
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in ("node", "community"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "community"]],
                                preserve_index=False)


def q232_power_iteration(sf_dir: str, n_iter: int = 20) -> pa.Table:
    """Dominant principal direction of the embedding second-moment
    matrix by power iteration — the first step of every distributed
    PCA/whitening pass.  The Gram matrix is the q88 distributed
    int-exact combiner (elements quantized half-up at 1e6, products
    exact int64, associative SUM reduce — partition-invariant by
    construction), so BOTH engines start from the identical integer
    matrix; the driver then runs ``n_iter`` synchronized normalized
    iterations from the deterministic all-ones start.  Iteration is
    round-synchronous, so the unrolled SQL twin agrees at any depth,
    converged or not (float drift between engines is ~1e-12 against a
    1e-6 output rounding).  Only d x d = 4096 int rows ever reach the
    driver — corpus size never does."""
    from ..functions.clustering import embedding_moments

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = 64
    mom = embedding_moments(emb, dim=dim).to_pandas()
    mom = mom[(mom["i"] >= 0) & (mom["j"] >= 0)]
    G = np.zeros((dim, dim), dtype=np.float64)
    i = mom["i"].to_numpy(np.int64)
    j = mom["j"].to_numpy(np.int64)
    # de-quantize (1e6 per element, 1e12 per product) back to moment
    # scale so the eigenvalue is O(corpus), not O(1e12) — the 3-dp
    # output rounding must sit far above the cross-engine float drift
    s = mom["sxy"].to_numpy(np.float64) / 1e12
    G[i, j] = s
    G[j, i] = s
    v = np.ones(dim, dtype=np.float64)
    v /= np.sqrt(float(dim))
    for _ in range(n_iter):
        w = G @ v
        v = w / np.sqrt(float(np.dot(w, w)))
    lam = float(v @ (G @ v))
    return pa.table({
        "dim": pa.array(np.arange(dim, dtype=np.int64)),
        "loading": pa.array(np.round(v, 6)),
        "eigenvalue": pa.array(np.full(dim, round(lam, 3), np.float64)),
    })


def q233_compaction_plan(sf_dir: str, target_bytes: int = 64_000,
                         row_bytes: int = 100) -> pa.Table:
    """Small-file compaction planner (the lakehouse OPTIMIZE primitive):
    one input "file" per order date (size = rows x ``row_bytes``), files
    sorted by date, packed CONTIGUOUSLY into output groups of
    ~``target_bytes`` — bin = exclusive-prefix-size // target, the
    deterministic cumulative-sum packing every sorted-run compactor
    uses (contiguity preserves the table's date clustering; FFD would
    destroy it).  The prefix sum is the q46 two-pass distributed scan:
    per-range-bucket totals to the driver (B ints), broadcast offsets
    back, in-bucket cumsum resolves every file's global offset — no
    serial pass, no driver materialization of the file list."""
    from ray.data.aggregate import Count

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def to_day(batch: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.floor(pc.divide(
                pc.cast(batch.column("o_orderdate"), pa.int64()),
                pa.scalar(86_400_000_000, pa.int64()))), pa.int64())
        return pa.table({"day": day})

    files = (orders.map_batches(to_day, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n_rows"))
             .materialize())

    # two-pass distributed exclusive scan over date-range buckets
    span = 64

    def add_bucket(batch: pa.Table) -> pa.Table:
        sz = pc.multiply(pc.cast(batch.column("n_rows"), pa.int64()),
                         pa.scalar(row_bytes, pa.int64()))
        return pa.table({
            "day": batch.column("day"),
            "sz": sz,
            "__bucket": pc.cast(pc.floor(pc.divide(
                pc.cast(batch.column("day"), pa.int64()),
                pa.scalar(span, pa.int64()))), pa.int64()),
        })

    sized = files.map_batches(add_bucket,
                              batch_format="pyarrow").materialize()
    bucket_tot = {r["__bucket"]: r["sum(sz)"]
                  for r in sized.groupby("__bucket").sum("sz").take_all()}
    offsets, acc = {}, 0
    for b in sorted(bucket_tot):
        offsets[b] = acc
        acc += bucket_tot[b]
    off_ref = ray.put(offsets)

    def assign_bin(g: pd.DataFrame, _ref=off_ref) -> pa.Table:
        from ..state.broadcast import fetch
        from ..schema import pd_to_arrow

        off = fetch(_ref)
        g = g.sort_values("day", kind="mergesort")
        prev = off[int(g["__bucket"].iloc[0])] + \
            g["sz"].cumsum().shift(fill_value=0)
        bin_id = (prev // target_bytes).astype("int64")
        return pd_to_arrow(pd.DataFrame({
            "bin": bin_id,
            "day": g["day"].to_numpy(np.int64),
            "sz": g["sz"].to_numpy(np.int64)}))

    from ray.data.aggregate import Count as _Cnt, Max, Min, Sum

    out = (sized.groupby("__bucket")
           .map_groups(assign_bin, batch_format="pandas")
           .groupby("bin")
           .aggregate(_Cnt(alias_name="n_files"),
                      Sum("sz", alias_name="total_bytes"),
                      Min("day", alias_name="min_day"),
                      Max("day", alias_name="max_day"))
           .to_pandas().sort_values("bin").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["bin", "n_files", "total_bytes", "min_day", "max_day"]],
        preserve_index=False)


def q234_quality_classifier(sf_dir: str) -> pa.Table:
    """Learned quality filter (``functions.quality_model``): hashed
    bag-of-words logistic regression trained distributed against the
    Gopher weak label, then scored over the corpus — per-source report.
    Rows-only (iterative GD is outside SQL); the pytest gate pins the
    output against an independent serial numpy twin, exact to the
    integer (all reduces are quantized int sums)."""
    from ..functions.quality_model import quality_classifier_report

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return quality_classifier_report(
        docs, n_docs=_row_count(sf_dir, "documents"))


def _q231_edges(sf_dir: str):
    """The q231 scale-adaptive event graph, shared by the LPA family."""
    n_events = _row_count(sf_dir, "events")
    n_nodes = max(n_events // 10, 1)
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 3 == 0
        return pa.table({"src": pa.array(eid[keep] % n_nodes),
                         "dst": pa.array((eid[keep] + 19 * kk[keep])
                                         % n_nodes)})

    return ds.map_batches(edges, batch_format="pyarrow"), n_events


def _canon_undirected(edge_ds) -> "ray.data.Dataset":
    """Distinct undirected a < b edges, materialized."""
    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d)),
                         "b": pa.array(np.maximum(s, d))})

    return (edge_ds.map_batches(canon, batch_format="pyarrow")
            .groupby(["a", "b"]).count()
            .map_batches(lambda t: t.drop_columns(["count()"]),
                         batch_format="pyarrow").materialize())


def q235_community_stats(sf_dir: str, n_rounds: int = 3) -> pa.Table:
    """Community-quality audit over the q231 LPA partition: per
    community (n_nodes, deg_sum, n_internal) — the three integers the
    modularity formula consumes (Q = Σ_c n_internal/m − (deg_sum/2m)²),
    kept exact-int so both engines agree bit-for-bit.  Composition:
    label_propagation → two label-shipping hash joins onto the
    canonical edge set (internal-edge count) + one degree join — the
    standard "evaluate the partition you just computed" pass."""
    from ray.data.aggregate import Count, Sum

    from ..functions.relational import hash_join
    from ..pipelines.graph_ops import label_propagation

    edge_ds, n_events = _q231_edges(sf_dir)
    edge_ds = edge_ds.materialize()
    labels = label_propagation(edge_ds, n_rounds=n_rounds,
                               est_rows=n_events).materialize()
    und = _canon_undirected(edge_ds)

    la = labels.map_batches(lambda t: t.rename_columns(["a", "ca"]),
                            batch_format="pyarrow")
    lb = labels.map_batches(lambda t: t.rename_columns(["b", "cb"]),
                            batch_format="pyarrow")
    tagged = hash_join(hash_join(und, la, on="a", est_rows=n_events),
                       lb, on="b", est_rows=n_events)

    def internal_only(batch: pa.Table) -> pa.Table:
        ca = pc.cast(batch.column("ca"), pa.int64(), safe=False)
        cb = pc.cast(batch.column("cb"), pa.int64(), safe=False)
        keep = pc.equal(ca, cb)
        return pa.table({"community": ca.filter(keep)})

    internal = (tagged.map_batches(internal_only, batch_format="pyarrow")
                .groupby("community")
                .aggregate(Count(alias_name="n_internal")))

    def explode(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch.column("a").combine_chunks(),
            batch.column("b").combine_chunks()])})

    deg = (und.map_batches(explode, batch_format="pyarrow")
           .groupby("node").count()
           .map_batches(lambda t: t.rename_columns(["node", "deg"]),
                        batch_format="pyarrow"))
    per_comm = (hash_join(labels.map_batches(
                    lambda t: t.rename_columns(["node", "community"]),
                    batch_format="pyarrow"),
                    deg, on="node", est_rows=n_events)
                .map_batches(lambda t: pa.table({
                    "community": pc.cast(t.column("community"), pa.int64(),
                                         safe=False),
                    "deg": pc.cast(t.column("deg"), pa.int64(),
                                   safe=False)}), batch_format="pyarrow")
                .groupby("community")
                .aggregate(Count(alias_name="n_nodes"),
                           Sum("deg", alias_name="deg_sum")))
    out = hash_join(per_comm, internal, on="community", how="left",
                    est_rows=n_events).to_pandas()
    out["n_internal"] = out["n_internal"].fillna(0)
    for c in ("community", "n_nodes", "deg_sum", "n_internal"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("community").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["community", "n_nodes", "deg_sum", "n_internal"]],
        preserve_index=False)


def q236_degree_assortativity(sf_dir: str) -> pa.Table:
    """Degree assortativity of the q231 event graph — the Newman
    mixing coefficient (Pearson correlation of endpoint degrees over
    both edge orientations).  Every moment is an EXACT int64 sum
    (degree joins onto the canonical edge set, both orientations, then
    five associative integer reductions); only the final Pearson
    formula runs in float on identical integers, so the 6-dp rounding
    is bit-safe on both engines."""
    from ..functions.relational import hash_join

    edge_ds, n_events = _q231_edges(sf_dir)
    und = _canon_undirected(edge_ds)

    def explode(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch.column("a").combine_chunks(),
            batch.column("b").combine_chunks()])})

    deg = (und.map_batches(explode, batch_format="pyarrow")
           .groupby("node").count()
           .map_batches(lambda t: t.rename_columns(["node", "deg"]),
                        batch_format="pyarrow"))
    da = deg.map_batches(lambda t: t.rename_columns(["a", "da"]),
                         batch_format="pyarrow")
    db = deg.map_batches(lambda t: t.rename_columns(["b", "db"]),
                         batch_format="pyarrow")
    both = hash_join(hash_join(und, da, on="a", est_rows=n_events),
                     db, on="b", est_rows=n_events)

    def moments(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column("da"), pa.int64(), safe=False) \
            .to_numpy().astype(np.int64)
        y = pc.cast(batch.column("db"), pa.int64(), safe=False) \
            .to_numpy().astype(np.int64)
        # both orientations: x over sources, y over targets, symmetric
        sx = int(x.sum() + y.sum())
        sxy = int((x * y).sum() * 2)
        sxx = int((x * x).sum() + (y * y).sum())
        return pa.table({
            "m": pa.array([2 * len(x)], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sxy": pa.array([sxy], pa.int64()),
            "sxx": pa.array([sxx], pa.int64())})

    # one int row per batch; only these partials reach the driver
    agg = both.map_batches(moments, batch_format="pyarrow").to_pandas()
    m = int(agg["m"].sum())
    sx = int(agg["sx"].sum())
    sxy = int(agg["sxy"].sum())
    sxx = int(agg["sxx"].sum())
    num = float(m * sxy - sx * sx)
    den = float(m * sxx - sx * sx)
    r = round(num / den, 6) if den else 0.0
    n_nodes = deg.count()
    return pa.table({
        "n_nodes": pa.array([int(n_nodes)], pa.int64()),
        "n_edges": pa.array([m // 2], pa.int64()),
        "assortativity": pa.array([r], pa.float64())})


def q237_cc_pointer_doubling(sf_dir: str, n_rounds: int = 4) -> pa.Table:
    """Connected components by hash-to-min with pointer doubling
    (``graph_ops.cc_pointer_doubling``) — the O(log n)-round CC that
    ``dedup.connected_components`` runs above its broadcast gate —
    over a sparse scale-adaptive event graph (n_nodes = n_events // 5,
    every 11th event an edge → many nontrivial components plus
    chains).  Round-synchronous: the unrolled SQL twin replays both
    the neighbor-min step and the pointer jump exactly."""
    from ..pipelines.graph_ops import cc_pointer_doubling

    n_events = _row_count(sf_dir, "events")
    n_nodes = max(n_events // 5, 1)
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def edges(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        kk = pc.cast(pc.struct_field(hit, "k"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = eid % 11 == 0
        return pa.table({"src": pa.array(eid[keep] % n_nodes),
                         "dst": pa.array((eid[keep] + 23 * kk[keep])
                                         % n_nodes)})

    out = (cc_pointer_doubling(
               ds.map_batches(edges, batch_format="pyarrow"),
               n_rounds=n_rounds, est_rows=n_events)
           .to_pandas().sort_values("node").reset_index(drop=True))
    for c in ("node", "component"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out[["node", "component"]],
                                preserve_index=False)


def q238_best_rep_dedup(sf_dir: str, threshold: float = 0.8) -> pa.Table:
    """Quality-aware near-dup collapse: for every verified near-dup
    CLUSTER (q73's LSH → exact-Jaccard → connected components), keep
    the highest-quality member — max ``n_chars``, ties toward the
    smallest doc_id — instead of q73's min-id convention; the decision
    FineWeb-style curation actually makes (keep the longest variant,
    drop truncated mirrors).  Returns one row per cluster:
    (component, kept_doc, n_docs, kept_chars).  Shape: the cluster
    table (≪ corpus) joins doc metadata key-partitioned, then a
    hash-BUCKET vectorized argmax per component."""
    from ..functions.dedup import connected_components, ngram_jaccard_pairs
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=threshold)
    comp = connected_components(pairs).materialize()
    meta = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    cand = hash_join(comp, meta, on="doc_id", est_rows=n_docs)

    def add_bucket(batch: pa.Table) -> pa.Table:
        c = pc.cast(batch.column("component"), pa.int64(), safe=False)
        return pa.table({
            "component": c,
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64(),
                              safe=False),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64(),
                               safe=False),
            "__bucket": pc.cast(
                pc.bit_wise_and(c, pa.scalar(63, pa.int64())),
                pa.int32())})

    def best(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["component", "n_chars", "doc_id"],
                          ascending=[True, False, True],
                          kind="mergesort")
        sizes = g.groupby("component", sort=True).size()
        top = g.drop_duplicates("component", keep="first") \
            .sort_values("component", kind="mergesort")
        return pd_to_arrow(pd.DataFrame({
            "component": top["component"].to_numpy(np.int64),
            "kept_doc": top["doc_id"].to_numpy(np.int64),
            "n_docs": sizes.loc[top["component"]].to_numpy(np.int64),
            "kept_chars": top["n_chars"].to_numpy(np.int64)}))

    out = (cand.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(best, batch_format="pandas")
           .to_pandas().sort_values("component").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(
        out[["component", "kept_doc", "n_docs", "kept_chars"]],
        preserve_index=False)


_PAD_BUCKETS = np.array([16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
                        dtype=np.int64)


def q239_padding_plan(sf_dir: str, batch_size: int = 32) -> pa.Table:
    """Inference length-bucketing plan: docs bucket to the smallest
    power-of-two sequence length ≥ their token count (clamped to
    [16, 4096]); per bucket the plan reports doc count, real tokens,
    padded tokens, padding waste (ppm) and batch count at
    ``batch_size`` — the table a serving stack consults to size
    batching for minimal padding.  Bucket edges are an integer
    CASE/searchsorted (no float log2 — exact on both engines); one
    combiner groupby, ≤ 9 rows out."""
    from ray.data.aggregate import Count, Sum

    from ..functions.corpus import _tokenize_column

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def buckets(batch: pa.Table) -> pa.Table:
        parent, _ = _tokenize_column(batch.column("text"))
        n = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(n, np.asarray(parent, dtype=np.int64), 1)
        clamped = np.clip(n, 16, 4096)
        b = _PAD_BUCKETS[np.searchsorted(_PAD_BUCKETS, clamped)]
        return pa.table({"bucket": pa.array(b), "n_tok": pa.array(n)})

    out = (docs.map_batches(buckets, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_tok", alias_name="n_tokens"))
           .to_pandas().sort_values("bucket").reset_index(drop=True))
    for c in ("bucket", "n_docs", "n_tokens"):
        out[c] = out[c].astype("int64")
    out["padded_tokens"] = out["n_docs"] * out["bucket"]
    out["waste_ppm"] = ((out["padded_tokens"] - out["n_tokens"])
                        * 1_000_000 // out["padded_tokens"]).astype("int64")
    out["n_batches"] = ((out["n_docs"] + batch_size - 1)
                        // batch_size).astype("int64")
    return pa.Table.from_pandas(
        out[["bucket", "n_docs", "n_tokens", "padded_tokens",
             "waste_ppm", "n_batches"]], preserve_index=False)


def q240_prefix_cache_groups(sf_dir: str, k: int = 8) -> pa.Table:
    """KV-prefix-cache sharing estimate (RadixAttention-style): docs
    whose first ``k`` tokens are identical share a cached prefix —
    per shared-prefix group, the member count and the tokens a radix
    cache saves ((n-1) x k).  One groupby over (prefix, doc) rows;
    only the k-token prefixes shuffle, never the documents."""
    from ray.data.aggregate import Count

    from ..functions.corpus import _tokenize_column

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def prefixes(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        p = np.asarray(parent, dtype=np.int64)
        toks = flat.to_pylist()
        n = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(n, p, 1)
        starts = np.cumsum(n) - n   # exclusive scan: first token of doc i
        out = []
        for i in range(batch.num_rows):
            if n[i] >= k:
                s = int(starts[i])
                out.append(" ".join(toks[s:s + k]))
        return pa.table({"prefix": pa.array(out, pa.string())})

    out = (docs.map_batches(prefixes, batch_format="pyarrow")
           .groupby("prefix").aggregate(Count(alias_name="n_docs"))
           .to_pandas())
    out["n_docs"] = out["n_docs"].astype("int64")
    out = out[out["n_docs"] >= 2].sort_values("prefix") \
        .reset_index(drop=True)
    out["saved_tokens"] = ((out["n_docs"] - 1) * k).astype("int64")
    return pa.Table.from_pandas(
        out[["prefix", "n_docs", "saved_tokens"]], preserve_index=False)


def q241_doremi_weights(sf_dir: str) -> pa.Table:
    """DoReMi-style mixture reweighting (one step): per-source excess
    bigram-LM negative log-likelihood (the q52 scorer — LM on even-id
    docs, odd-id docs scored) → softmax over sources → sampling
    weights.  Every aggregate is an exact int64 sum (quantized per-doc
    log-probs), so both engines run the softmax on IDENTICAL integers;
    only the ppm-rounded weights are float-derived.  The
    upweight-what-the-model-finds-hard signal that data-mixture
    optimizers feed back into q50/q189/q207."""
    from ray.data.aggregate import Sum

    from ..functions.corpus import perplexity_scores
    from ..functions.relational import hash_join

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # the scorer's output arrives as many tiny blocks; Ray's sort-based
    # join pays per BLOCK, so bound blocks before the source join (the
    # connected_components lesson)
    scores = perplexity_scores(docs, est_rows=n_docs * 50) \
        .repartition(resolve_n_blocks(n_docs)).materialize()
    src = _read(sf_dir, "documents", ["doc_id", "source"])
    agg = (hash_join(scores, src, on="doc_id", est_rows=n_docs)
           .map_batches(lambda t: pa.table({
               "source": t.column("source"),
               "nll_q": pc.multiply(pc.cast(t.column("lp_total_q"),
                                            pa.int64(), safe=False),
                                    pa.scalar(-1, pa.int64())),
               "nb": pc.cast(t.column("n_bigrams"), pa.int64(),
                             safe=False)}), batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("nll_q", alias_name="nll_total_q"),
                      Sum("nb", alias_name="n_bigrams"))
           .to_pandas())
    for c in ("nll_total_q", "n_bigrams"):
        agg[c] = agg[c].astype("int64")
    agg = agg[agg["n_bigrams"] > 0].sort_values("source") \
        .reset_index(drop=True)
    nll = agg["nll_total_q"].to_numpy(np.float64) \
        / (1e6 * agg["n_bigrams"].to_numpy(np.float64))
    corpus_nll = float(agg["nll_total_q"].sum()) \
        / (1e6 * float(agg["n_bigrams"].sum()))
    u = np.exp(nll - corpus_nll)
    w_ppm = np.floor(u / u.sum() * 1_000_000 + 0.5).astype(np.int64)
    return pa.table({
        "source": pa.array(agg["source"].tolist(), pa.string()),
        "nll_total_q": pa.array(agg["nll_total_q"].to_numpy(np.int64)),
        "n_bigrams": pa.array(agg["n_bigrams"].to_numpy(np.int64)),
        "weight_ppm": pa.array(w_ppm),
    })


def q242_source_dedup_attrition(sf_dir: str,
                                threshold: float = 0.8) -> pa.Table:
    """Per-source near-dup attrition report (the table a FineWeb-style
    curation run publishes): for each source, how many docs the
    near-dup collapse (q73's LSH → verify → CC → keep min-id) would
    drop, as a count and ppm — which sources are mirror-heavy.  The
    cluster table (≪ corpus) joins doc sources key-partitioned; totals
    come from one combiner groupby over the documents table."""
    from ray.data.aggregate import Count

    from ..functions.dedup import connected_components, ngram_jaccard_pairs
    from ..functions.relational import hash_join

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=threshold)
    comp = connected_components(pairs).materialize()

    def losers(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch.column("doc_id"),
                            batch.column("component"))
        return batch.filter(keep).select(["doc_id"])

    src = _read(sf_dir, "documents", ["doc_id", "source"])
    dropped = (hash_join(comp.map_batches(losers, batch_format="pyarrow"),
                         src, on="doc_id", est_rows=n_docs)
               .groupby("source").aggregate(Count(alias_name="n_dropped"))
               .to_pandas())
    totals = (src.groupby("source").aggregate(Count(alias_name="n_docs"))
              .to_pandas())
    out = totals.merge(dropped, on="source", how="left")
    out["n_dropped"] = out["n_dropped"].fillna(0)
    for c in ("n_docs", "n_dropped"):
        out[c] = out[c].astype("int64")
    out["drop_ppm"] = (out["n_dropped"] * 1_000_000
                       // out["n_docs"]).astype("int64")
    out = out.sort_values("source").reset_index(drop=True)
    return pa.Table.from_pandas(
        out[["source", "n_docs", "n_dropped", "drop_ppm"]],
        preserve_index=False)


def q243_cross_source_dups(sf_dir: str,
                           threshold: float = 0.8) -> pa.Table:
    """Cross-source duplication matrix — which sources mirror each
    other: verified near-dup pairs (q73's threshold) tagged with both
    members' sources, counted per unordered source pair.  Two
    key-partitioned source joins onto the (tiny) verified-pair table;
    the within-source diagonal is included (src_a = src_b)."""
    from ray.data.aggregate import Count

    from ..functions.dedup import ngram_jaccard_pairs
    from ..functions.relational import hash_join

    n_docs = _row_count(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=threshold) \
        .map_batches(lambda t: t.select(["doc_a", "doc_b"]),
                     batch_format="pyarrow")
    src = _read(sf_dir, "documents", ["doc_id", "source"])
    sa = src.map_batches(lambda t: t.rename_columns(["doc_a", "sa"]),
                         batch_format="pyarrow")
    sb = src.map_batches(lambda t: t.rename_columns(["doc_b", "sb"]),
                         batch_format="pyarrow")

    def a_key(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_a": batch.column("doc_a"),
                         "doc_b": batch.column("doc_b")})

    with_a = hash_join(pairs.map_batches(a_key, batch_format="pyarrow"),
                       sa, on="doc_a", est_rows=n_docs)

    def b_key(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_b": pc.cast(batch.column("doc_b"), pa.int64(),
                             safe=True),
            "sa": batch.column("sa")})

    with_b = hash_join(with_a.map_batches(b_key, batch_format="pyarrow"),
                       sb, on="doc_b", est_rows=n_docs)

    def canon_pair(batch: pa.Table) -> pa.Table:
        a = batch.column("sa").to_pylist()
        b = batch.column("sb").to_pylist()
        lo = [min(x, y) for x, y in zip(a, b)]
        hi = [max(x, y) for x, y in zip(a, b)]
        return pa.table({"src_a": pa.array(lo, pa.string()),
                         "src_b": pa.array(hi, pa.string())})

    out = (with_b.map_batches(canon_pair, batch_format="pyarrow")
           .groupby(["src_a", "src_b"])
           .aggregate(Count(alias_name="n_pairs"))
           .to_pandas())
    out["n_pairs"] = out["n_pairs"].astype("int64")
    out = out.sort_values(["src_a", "src_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["src_a", "src_b", "n_pairs"]],
                                preserve_index=False)


def q244_join_order_plan(sf_dir: str) -> pa.Table:
    """System-R-style join-order advisor over the lineitem—orders—
    customer FK chain: EXACT base-table statistics (row counts from
    Parquet footers, distinct key counts via the q112 hash-bucket
    exact-distinct pass — the 100 TB path uses the HLL sketch, q49)
    feed the classic containment estimate |A ⋈ B| = |A|·|B| //
    max(d_A, d_B); the two left-deep plans are costed by total
    intermediate rows — the broadcast-vs-shuffle / order decision a
    planner makes before launching q127's star join.  Integer
    arithmetic end-to-end, so the SQL twin agrees exactly."""
    from ..functions.profiling import profile_table

    n_l = _row_count(sf_dir, "lineitem")
    n_o = _row_count(sf_dir, "orders")
    n_c = _row_count(sf_dir, "customer")

    def distincts(table: str, cols: list[str]) -> dict[str, int]:
        prof = profile_table(_read(sf_dir, table, cols),
                             [(c, "num") for c in cols]).to_pandas()
        return dict(zip(prof["col_name"], prof["n_distinct"].astype(int)))

    d_l = distincts("lineitem", ["l_orderkey"])
    d_o = distincts("orders", ["o_orderkey", "o_custkey"])
    d_c = distincts("customer", ["c_custkey"])

    est_lo = n_l * n_o // max(d_l["l_orderkey"], d_o["o_orderkey"])
    est_lo_c = est_lo * n_c // max(d_o["o_custkey"], d_c["c_custkey"])
    est_oc = n_o * n_c // max(d_o["o_custkey"], d_c["c_custkey"])
    est_oc_l = est_oc * n_l // max(d_o["o_orderkey"], d_l["l_orderkey"])

    plans = pd.DataFrame({
        "plan": ["lineitem_orders_then_customer",
                 "orders_customer_then_lineitem"],
        "est_intermediate": [est_lo, est_oc],
        "est_final": [est_lo_c, est_oc_l],
    })
    plans["est_cost"] = plans["est_intermediate"] + plans["est_final"]
    for c in ("est_intermediate", "est_final", "est_cost"):
        plans[c] = plans[c].astype("int64")
    plans = plans.sort_values("plan").reset_index(drop=True)
    return pa.Table.from_pandas(
        plans[["plan", "est_intermediate", "est_final", "est_cost"]],
        preserve_index=False)
