"""Graph operators over the materialized nodes/edges tables — the
InferentialSlotFiller / GraphConsistencyPostProcessors path (SURVEY.md
§2.9), re-expressed as dataset transforms.

- ``symmetrize``: symmetric relations (spouse, siblings, other_family)
  completed with reverse edges (GraphConsistencyPostProcessors symmetric
  pass).
- ``add_inverses``: inverse-pair relations completed
  (parents↔children, subsidiaries↔org:parents, member_of↔members).
- ``apply_horn_rules``: weighted Horn rules ``w  p1(x,y) ∧ p2(y,z) ⇒
  r(x,z)`` — one hash-join pass per rule, repeated to ``max_depth``
  (GraphInferenceEngine.java:25-120; depth ≤ 3, confidence cutoff).
- ``subgraph_bfs``: frontier expansion from pivot entities to a depth
  bound with an entity budget (InferentialSlotFiller.java:181-310:
  depth ≤ 2, entityBudget; EntityGraph.restrictToConnectedComponent
  analog for per-query graphs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..functions.relational import resolve_n_blocks

SYMMETRIC_PREDS = ("per:spouse", "per:siblings", "per:other_family")
INVERSE_PAIRS = (
    ("per:parents", "per:children"),
    ("per:children", "per:parents"),
    ("org:subsidiaries", "org:parents"),
    ("org:parents", "org:subsidiaries"),
    ("org:member_of", "org:members"),
    ("org:members", "org:member_of"),
)
_INVERSE = dict(INVERSE_PAIRS)


def _flip(batch: pa.Table, pred_map: dict[str, str]) -> pa.Table:
    import pyarrow.compute as pc

    preds = batch.column("pred").to_pylist()
    keep = [i for i, p in enumerate(preds) if p in pred_map]
    flipped = batch.take(pa.array(keep, pa.int64()))
    new_preds = [pred_map[p] for p in (preds[i] for i in keep)]
    cols = {name: flipped.column(name) for name in flipped.column_names}
    cols["src_id"], cols["dst_id"] = cols["dst_id"], cols["src_id"]
    cols["pred"] = pa.array(new_preds, pa.string())
    return pa.table(cols)


def _merge_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Noisy-OR re-merge after adding derived edges (S8b's
    ``kg.merge_edges``)."""
    from .kg import merge_edges

    def strip_support(batch: pa.Table) -> pa.Table:
        # n_support is re-derived by the merge
        if "n_support" in batch.column_names:
            batch = batch.drop_columns(["n_support"])
        return batch

    return merge_edges(edges.map_batches(strip_support,
                                         batch_format="pyarrow"))


def symmetrize(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Add reverse edges for symmetric predicates, then re-merge."""
    sym_map = {p: p for p in SYMMETRIC_PREDS}
    rev = edges.map_batches(lambda b: _flip(b, sym_map),
                            batch_format="pyarrow")
    return _merge_edges(edges.union(rev))


def add_inverses(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Complete inverse-pair predicates, then re-merge."""
    rev = edges.map_batches(lambda b: _flip(b, _INVERSE),
                            batch_format="pyarrow")
    return _merge_edges(edges.union(rev))


TRANSITIVE_PREDS = ("org:alternate_names", "per:alternate_names")


def transitive_completion(
    edges: ray.data.Dataset,
    preds: tuple = TRANSITIVE_PREDS,
) -> ray.data.Dataset:
    """Transitive-relation completion — TransitiveRelationPostProcessor
    (GraphConsistencyPostProcessors.java:314-343): for each pair of edges
    a→b, b→c carrying the SAME transitive relation (alternate-name chains
    by default), add a→c with score = min of the two hop scores and the
    second hop's provenance.  One pass, like the reference.

    Ray-Data shape: a self hash-join of the filtered edge set on the
    middle node (no driver-side graph walk), then the shared noisy-OR
    merge folds derived edges into the table."""
    import pyarrow.compute as pc

    from ..functions.relational import hash_join

    def filt(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("pred"),
                        value_set=pa.array(list(preds), pa.string()))
        return batch.filter(mask)

    t_edges = edges.map_batches(filt, batch_format="pyarrow")

    def as_left(batch: pa.Table) -> pa.Table:
        return pa.table({
            "mid": batch.column("dst_id"),
            "src_id": batch.column("src_id"),
            "pred": batch.column("pred"),
            "score_l": batch.column("score"),
        })

    def as_right(batch: pa.Table) -> pa.Table:
        return pa.table({
            "mid": batch.column("src_id"),
            "dst2": batch.column("dst_id"),
            "pred2": batch.column("pred"),
            "score_r": batch.column("score"),
            "doc_id2": batch.column("doc_id"),
            "sent_idx2": batch.column("sent_idx"),
        })

    joined = hash_join(t_edges.map_batches(as_left, batch_format="pyarrow"),
                       t_edges.map_batches(as_right, batch_format="pyarrow"),
                       on="mid")

    def derive(batch: pa.Table) -> pa.Table:
        same = pc.equal(batch.column("pred"), batch.column("pred2"))
        not_loop = pc.invert(pc.equal(batch.column("src_id"),
                                      batch.column("dst2")))
        b = batch.filter(pc.and_(same, not_loop))
        return pa.table({
            "src_id": b.column("src_id"),
            "pred": b.column("pred"),
            "dst_id": b.column("dst2"),
            "score": pc.min_element_wise(b.column("score_l"),
                                         b.column("score_r")),
            "doc_id": b.column("doc_id2"),
            "sent_idx": pc.cast(b.column("sent_idx2"), pa.int32(),
                                safe=False),
        })

    derived = joined.map_batches(derive, batch_format="pyarrow")

    def base_cols(batch: pa.Table) -> pa.Table:
        keep = ["src_id", "pred", "dst_id", "score", "doc_id", "sent_idx"]
        return pa.table({c: batch.column(c) for c in keep})

    base = edges.map_batches(base_cols, batch_format="pyarrow")
    return _merge_edges(base.union(derived))


def apply_horn_rules(
    edges: ray.data.Dataset,
    rules: list[tuple[float, str, str, str]],
    max_depth: int = 3,
    min_conf: float = 0.2,
) -> ray.data.Dataset:
    """Weighted 2-atom Horn rules ``(w, p1, p2, r)``: p1(x,y) ∧ p2(y,z) ⇒
    r(x,z) with score w·s1·s2, iterated to ``max_depth`` or fixpoint-ish.

    Each pass is one hash join of the p1-edges against the p2-edges on the
    shared variable y (key-partitioned, SURVEY.md §2.5), then a noisy-OR
    re-merge.  Derived edges carry the JOIN's provenance (best of the two
    supports)."""
    from ..functions.relational import hash_join

    current = edges
    for _ in range(max_depth):
        derived = []
        for w, p1, p2, r in rules:
            left = current.map_batches(
                lambda b, _p=p1: b.filter(
                    pa.compute.equal(b.column("pred"), _p)),
                batch_format="pyarrow",
            ).map_batches(
                lambda b: pa.table({
                    "y": b.column("dst_id"), "x": b.column("src_id"),
                    "s1": b.column("score"), "doc_id": b.column("doc_id"),
                    "sent_idx": b.column("sent_idx"),
                }),
                batch_format="pyarrow",
            )
            right = current.map_batches(
                lambda b, _p=p2: b.filter(
                    pa.compute.equal(b.column("pred"), _p)),
                batch_format="pyarrow",
            ).map_batches(
                lambda b: pa.table({
                    "y": b.column("src_id"), "z": b.column("dst_id"),
                    "s2": b.column("score"),
                }),
                batch_format="pyarrow",
            )
            joined = hash_join(left, right, on="y")

            def mk(batch: pa.Table, _w=w, _r=r) -> pa.Table:
                import numpy as np

                score = np.clip(
                    _w
                    * batch.column("s1").to_numpy(zero_copy_only=False)
                    * batch.column("s2").to_numpy(zero_copy_only=False),
                    0.0, 1.0,
                )
                t = pa.table({
                    "src_id": batch.column("x"),
                    "pred": pa.array([_r] * batch.num_rows, pa.string()),
                    "dst_id": batch.column("z"),
                    "score": pa.array(score, pa.float64()),
                    "doc_id": batch.column("doc_id"),
                    "sent_idx": batch.column("sent_idx"),
                })
                mask = pa.compute.and_(
                    pa.compute.greater_equal(t.column("score"), min_conf),
                    pa.compute.not_equal(t.column("src_id"),
                                         t.column("dst_id")),
                )
                return t.filter(mask)

            derived.append(joined.map_batches(mk, batch_format="pyarrow"))
        if not derived:
            break
        all_edges = current
        for d in derived:
            all_edges = all_edges.union(d)
        current = _merge_edges(all_edges).materialize()
    return current


def subgraph_bfs(
    edges: ray.data.Dataset,
    seed_ids: set[str],
    depth: int = 2,
    entity_budget: int = 1000,
) -> ray.data.Dataset:
    """Edges reachable from the seeds within ``depth`` hops (frontier ids
    broadcast each round; the frontier is capped by ``entity_budget`` with
    deterministic lexicographic selection — TEST_GRAPH_* caps,
    Props.java:256-285).

    The budget is applied DISTRIBUTED before anything reaches the driver:
    each layer's candidate dst ids go through per-batch dedup+truncate
    partials (a batch never contributes more than ``entity_budget`` ids)
    and a groupby-distinct + sort + limit, so the driver only ever
    materializes ≤ entity_budget ids per round — an uncapped frontier
    cannot OOM the driver."""
    from ..functions.relational import semi_anti_filter

    visited = set(seed_ids)
    frontier = set(seed_ids)
    kept = None
    for _ in range(depth):
        if not frontier:
            break
        layer = semi_anti_filter(edges, frontier, "src_id",
                                 keep_matching=True).materialize()
        kept = layer if kept is None else kept.union(layer).materialize()
        visited_ref = ray.put(visited)

        def new_dsts(batch: pa.Table, _budget=entity_budget,
                     _vref=visited_ref) -> pa.Table:
            from ..state.broadcast import fetch

            seen = fetch(_vref)
            # per-batch partial: dedupe, drop visited, keep the
            # lexicographically smallest `budget` ids (the global
            # selection is a subset of the union of these partials)
            ids = sorted(
                {d for d in batch.column("dst_id").to_pylist()
                 if d not in seen}
            )[:_budget]
            return pa.table({"dst_id": pa.array(ids, pa.string())})

        capped = (
            layer.map_batches(new_dsts, batch_format="pyarrow")
            .groupby("dst_id").count()
            .sort("dst_id")
            .limit(entity_budget)
        )
        frontier = {
            d
            for b in capped.iter_batches(batch_size=entity_budget,
                                         batch_format="pyarrow")
            for d in b.column("dst_id").to_pylist()
        }
        visited |= frontier
    if kept is None:
        return edges.limit(0)
    return kept


#: above this many nodes the rank vector stops being broadcastable and
#: pagerank switches to the fully key-partitioned join path
BROADCAST_RANK_LIMIT = 2_000_000


def pagerank(
    edges: ray.data.Dataset,
    n_iter: int = 3,
    scale: int = 1_000_000_000,
    est_rows: int | None = None,
    redistribute_dangling: bool = False,
    seeds: "list[int] | None" = None,
) -> ray.data.Dataset:
    """Distributed PageRank over an integer (src, dst) edge list — the
    iterative message-passing centrality the closure operators above
    don't cover.  Returns (node, rank_q) with ranks scaled by ``scale``.

    INTEGER fixed-point arithmetic throughout: uniform init
    ``scale // N``, per-edge split ``rank_q // out_deg`` (floor), update
    ``(15·scale) // (100·N) + 85·Σcontrib // 100`` — every shuffle
    reduction is an associative int SUM, so the result is bit-identical
    at any parallelism AND cross-engine (the SQL oracle unrolls the same
    iterations with the same floor divisions).

    Dangling-node mass: by default DROPPED (a documented simplification;
    every node keeps the teleport floor).  Pass
    ``redistribute_dangling=True`` for the standard formulation — each
    round the summed rank of zero-out-degree nodes is split evenly
    (floor) across all nodes inside the damped term:
    ``rank' = base + 85·(Σcontrib + dangling_q // N) // 100``.  The
    dangling sum is an associative int SUM (bit-identical at any
    parallelism); in the Pregel path it costs one tiny per-round driver
    sync over ≤ n_buckets partial rows, never an extra shuffle.

    ``seeds``: personalized PageRank — the teleport term (and, under
    ``redistribute_dangling``, the dangling mass) floor-splits over the
    SEED set instead of all nodes: ``rank\' = [v∈S]·(15·scale)//(100·|S|)
    + 85·(Σcontrib + [v∈S]·dangling_q//|S|) // 100``; init stays uniform
    ``scale // N`` (any deterministic init converges the same way and
    keeps the oracle one CASE simpler).  Seeds outside the graph are
    ignored; the effective set must be non-empty.  The seed set ships
    inside the task closure — personalization assumes the usual SMALL
    seed set (entity relatedness queries), not a node-scale vector.

    Scale shape per iteration: one key-partitioned hash join ships the
    rank vector onto the edges (no broadcast — at web scale the rank
    vector is itself huge), one (dst) groupby SUMs contributions, one
    LEFT join folds sums back onto the node set.  The edge list (with
    out-degrees pre-attached) is materialized once and re-read each
    round — the classic Pregel layout without a resident actor state.
    """
    from ray.data.aggregate import Sum

    from ..functions.relational import hash_join

    import pyarrow.compute as pc

    edges = edges.materialize()
    deg = edges.groupby("src").count().map_batches(
        lambda b: pa.table({"src": b.column("src"),
                            "deg": pc.cast(b.column("count()"),
                                           pa.int64())}),
        batch_format="pyarrow")
    ed = hash_join(edges, deg, on="src", est_rows=est_rows).materialize()

    def side(col: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({"node": batch.column(col)})
        return f

    nodes = (edges.map_batches(side("src"), batch_format="pyarrow")
             .union(edges.map_batches(side("dst"), batch_format="pyarrow"))
             .groupby("node").count()
             .map_batches(lambda b: pa.table({"node": b.column("node")}),
                          batch_format="pyarrow")
             .materialize())
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda b: pa.table({"node": pa.array([], pa.int64()),
                                "rank_q": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    seed_set = None
    if seeds is not None:
        # membership check WITHOUT driver-materializing the node set (the
        # Pregel path exists for graphs whose nodes don't fit a driver):
        # a distributed is_in filter returns ≤ |seeds| rows
        want = pa.array(sorted({int(x) for x in seeds}), pa.int64())

        def _seed_hits(b: pa.Table, _w=want) -> pa.Table:
            import pyarrow.compute as _pc

            return b.filter(_pc.is_in(b.column("node"), value_set=_w))

        seed_set = frozenset(
            r["node"] for r in nodes.map_batches(
                _seed_hits, batch_format="pyarrow").take_all())
        if not seed_set:
            raise ValueError("pagerank: no seed is a node of the graph")
    n_teleport = len(seed_set) if seed_set is not None else n_nodes
    base = (15 * scale) // (100 * n_teleport)
    init_q = scale // n_nodes

    if n_nodes <= BROADCAST_RANK_LIMIT:
        # small-graph gate (same pattern as BROADCAST_NODE_LIMIT /
        # SMALL_GRAPH_THRESHOLD elsewhere): the rank vector fits one
        # worker, so broadcast it and run ONE map + ONE int-SUM groupby
        # per iteration — identical floor math, half the shuffles.  The
        # edge list stays distributed; only the node-sized vector moves.
        rank_vec = {n: init_q for n in
                    (r["node"] for r in nodes.take_all())}
        out_nodes = ({r["src"] for r in deg.take_all()}
                     if redistribute_dangling else set())
        for _ in range(n_iter):
            ref = ray.put(rank_vec)

            def contrib_b(batch: pa.Table, _ref=ref) -> pa.Table:
                from ..state.broadcast import fetch

                rv = fetch(_ref)
                srcs = batch.column("src").to_pylist()
                d = batch.column("deg").to_numpy().astype(np.int64)
                r = np.fromiter((rv[x] for x in srcs), dtype=np.int64,
                                count=len(srcs))
                return pa.table({"node": batch.column("dst"),
                                 "c": pa.array(r // d, pa.int64())})

            sums = (ed.map_batches(contrib_b, batch_format="pyarrow")
                    .groupby("node").aggregate(Sum("c", alias_name="s"))
                    .take_all())
            got = {r["node"]: r["s"] for r in sums}
            share = 0
            if redistribute_dangling:
                dang_q = sum(v for n, v in rank_vec.items()
                             if n not in out_nodes)
                share = dang_q // n_teleport
            if seed_set is None:
                rank_vec = {n: base + 85 * (got.get(n, 0) + share) // 100
                            for n in rank_vec}
            else:
                rank_vec = {
                    n: ((base if n in seed_set else 0)
                        + 85 * (got.get(n, 0)
                                + (share if n in seed_set else 0)) // 100)
                    for n in rank_vec}
        items = sorted(rank_vec.items())
        return ray.data.from_arrow(pa.table({
            "node": pa.array([k for k, _ in items], pa.int64()),
            "rank_q": pa.array([v for _, v in items], pa.int64()),
        }))

    # ----- co-partitioned Pregel path: ONE shuffle per iteration -----
    # Layout: edges carry __bucket = mix(src) % K and every node's rank
    # is OWNED by bucket mix(node) % K — the SAME hash, so the groupby
    # that delivers messages (keyed mix(dst) % K) lands them in the
    # partition that holds dst's rank AND dst's out-edges.  Each round's
    # single groupby(__bucket).map_groups (a) computes this round's
    # ranks for its owned nodes from the incoming message sums, (b)
    # emits NEXT round's messages pre-aggregated per dst (map-side
    # combine: ≤ one message row per (bucket, dst) instead of one per
    # edge).  n_iter+1 shuffles total vs 2·n_iter for the join+groupby
    # formulation, and the only inter-round data in flight is the
    # combined message list (≤ min(|E|, K·|V|) rows).  Int sums are
    # associative and each node's update happens exactly once in its
    # owning bucket, so the result is bit-identical to the broadcast
    # path and the unrolled SQL oracle at any parallelism.
    from ..functions.relational import resolve_n_buckets
    from ..schema import pd_to_arrow

    n_buckets = resolve_n_buckets(None, est_rows if est_rows is not None
                                  else ed.count())

    _MIX = np.uint64(0x9E3779B97F4A7C15)   # splitmix64 multiplier

    def _bucket_of(col: np.ndarray) -> np.ndarray:
        x = col.astype(np.uint64) * _MIX
        return ((x >> np.uint64(32)) % np.uint64(n_buckets)).astype(
            np.int32)

    def tag_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy().astype(np.int64)
        return pa.table({
            "side": pa.array(["e"] * batch.num_rows, pa.string()),
            "node": pa.array(src, pa.int64()),   # = src for edges
            "dst": batch.column("dst"),
            "deg": batch.column("deg"),
            "c": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            "__bucket": pa.array(_bucket_of(src), pa.int32()),
        })

    def tag_nodes(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy().astype(np.int64)
        zeros = np.zeros(batch.num_rows, np.int64)
        return pa.table({
            "side": pa.array(["n"] * batch.num_rows, pa.string()),
            "node": batch.column("node"),
            "dst": pa.array(zeros, pa.int64()),
            "deg": pa.array(zeros, pa.int64()),
            "c": pa.array(zeros, pa.int64()),
            "__bucket": pa.array(_bucket_of(node), pa.int32()),
        })

    static = (ed.map_batches(tag_edges, batch_format="pyarrow")
              .union(nodes.map_batches(tag_nodes, batch_format="pyarrow"))
              .materialize())

    def make_round(first: bool, last: bool, dang_share: int = 0):
        def rnd(g):
            """One bucket, one round: ranks for owned nodes from incoming
            messages (or uniform init on the first round), then either
            the final rank rows or the combined outgoing messages — plus,
            under redistribute_dangling, one side="d" partial row holding
            this bucket's summed dangling-node rank (the driver folds the
            ≤ n_buckets partials into next round's dang_share)."""
            import pandas as pd

            e = g[g["side"] == "e"]
            if first:
                owned = g.loc[g["side"] == "n", "node"]
                rank = pd.Series(np.int64(init_q), index=owned.to_numpy())
            else:
                owned = g.loc[g["side"] == "n", "node"]
                m = g[g["side"] == "m"]
                sums = m.groupby("node")["c"].sum()
                s = sums.reindex(owned.to_numpy(), fill_value=0).astype(
                    np.int64)
                if seed_set is None:
                    rank = base + 85 * (s + np.int64(dang_share)) // 100
                else:
                    in_seed = pd.Series(
                        [n in seed_set for n in s.index], index=s.index)
                    rank = (in_seed * np.int64(base)
                            + 85 * (s + in_seed * np.int64(dang_share))
                            // 100)
            if last:
                out = pd.DataFrame({
                    "node": rank.index.to_numpy(np.int64),
                    "rank_q": rank.to_numpy(np.int64),
                })
                return pd_to_arrow(out)
            extra = []
            if redistribute_dangling and len(rank):
                dang = rank[~rank.index.isin(e["node"].to_numpy())]
                extra.append(pd.DataFrame({
                    "side": ["d"], "node": [np.int64(0)],
                    "dst": [np.int64(0)], "deg": [np.int64(0)],
                    "c": [np.int64(dang.sum())],
                    "__bucket": [np.int32(0)],
                }))
            if len(e) == 0:
                if extra:
                    return pd_to_arrow(extra[0])
                # explicit Arrow types: an empty pandas object column
                # would surface as Arrow null and break schema unification
                return pa.table({
                    "side": pa.array([], pa.string()),
                    "node": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "__bucket": pa.array([], pa.int32()),
                })
            r = rank.loc[e["node"].to_numpy()].to_numpy(np.int64)
            d = e["deg"].to_numpy(np.int64)
            msg = pd.DataFrame({"node": e["dst"].to_numpy(np.int64),
                                "c": r // d})
            comb = msg.groupby("node", as_index=False)["c"].sum()
            dsts = comb["node"].to_numpy(np.int64)
            zeros = np.zeros(len(comb), np.int64)
            out = pd.DataFrame({
                "side": "m",
                "node": dsts,
                "dst": zeros,
                "deg": zeros,
                "c": comb["c"].to_numpy(np.int64),
                "__bucket": _bucket_of(dsts),
            })
            if extra:
                out = pd.concat([out] + extra, ignore_index=True)
            return pd_to_arrow(out)
        return rnd

    state = static
    dang_share = 0
    for t in range(n_iter + 1):
        out = state.groupby("__bucket").map_groups(
            make_round(first=(t == 0), last=(t == n_iter),
                       dang_share=dang_share),
            batch_format="pandas")
        if t == n_iter:
            return out.sort("node")
        # materialize the (small) message list per round: iterative
        # lineage otherwise re-executes every prior round each time the
        # next one inspects schemas (measured geometric blowup)
        msgs = out.materialize()
        if redistribute_dangling:
            import pyarrow.compute as _pc

            drows = msgs.map_batches(
                lambda b: b.filter(_pc.equal(b.column("side"), "d")),
                batch_format="pyarrow").take_all()
            dang_share = sum(r["c"] for r in drows) // n_teleport
            msgs = msgs.map_batches(
                lambda b: b.filter(_pc.not_equal(b.column("side"), "d")),
                batch_format="pyarrow")
        state = static.union(msgs)
    raise AssertionError("unreachable")


def node_count(exploded: ray.data.Dataset, alias: str) -> ray.data.Dataset:
    """Count occurrences per ``node`` with a MAP-SIDE COMBINE: Ray Data's
    sort-based groupby ships every input row (measured — AggregateMap
    output rows == input rows), so counting exploded node rows directly
    moves the whole edge list through the shuffle.  A per-batch
    ``np.unique(return_counts=True)`` shrinks the exchange to distinct
    nodes per batch (~avg-degree× smaller); the downstream Sum of int64
    partials is associative, and np.unique's sorted order keeps the
    partials deterministic."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            batch.column("node").to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"node": pa.array(v.astype(np.int64), pa.int64()),
                         "__c": pa.array(c.astype(np.int64), pa.int64())})

    return (exploded.map_batches(partial, batch_format="pyarrow")
            .groupby("node").aggregate(Sum("__c", alias_name=alias)))


def triangle_counts(
    edges: ray.data.Dataset,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Per-node triangle participation over an integer (src, dst) edge
    list: returns (node, n_triangles) where each undirected triangle
    contributes 1 to each of its three vertices.

    Distributed shape (the classic two-join formulation): canonicalize
    to oriented edges a < b (dedup via one groupby), build wedges by
    joining on the middle vertex (e₁.b = e₂.a gives a < b < c, so every
    triangle is generated exactly once as its sorted vertex triple),
    close them with a SEMI join against the edge set, explode each
    closed triangle into 3 (node) rows, and one groupby counts.  All
    three joins are key-partitioned ``hash_join``s — nothing
    materializes on the driver.

    Skew note: wedge count is Σ deg_out(v)·deg_in(v) under this a<b
    orientation; a hot vertex produces a quadratic wedge blowup.  The
    standard mitigation — orient edges by (degree, id) order instead of
    id order, which caps out-degree at O(√|E|) — composes with this
    implementation by substituting the comparison key; kept id-ordered
    here so the SQL oracle is LEAST/GREATEST."""
    from ..functions.relational import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d), pa.int64()),
                         "b": pa.array(np.maximum(s, d), pa.int64())})

    # materialize: und feeds THREE consumers (both wedge sides + the
    # closure semi-join's right side) — without this the canonicalize +
    # distinct shuffle would re-execute three times (pagerank
    # materializes `ed` for the same reason).  Then bound its block
    # count: the distinct groupby emits as many near-empty blocks as the
    # sort had inputs, and the two downstream joins' sorts scale with
    # BLOCK COUNT, not rows (the connected_components lesson).
    und = (edges.map_batches(canon, batch_format="pyarrow")
           .groupby(["a", "b"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow")
           .materialize())
    n_und = und.count()
    und = und.repartition(resolve_n_blocks(n_und)).materialize()
    if est_rows is None:
        est_rows = 2 * n_und
    return _triangles_from_und(und, est_rows)


def _triangles_from_und(und: ray.data.Dataset,
                        est_rows: int) -> ray.data.Dataset:
    """Wedge-join triangle core over an ALREADY canonical distinct a<b
    edge set (materialized, block-bounded) — shared by
    ``triangle_counts`` and ``clustering_coefficients`` so callers that
    already hold ``und`` don't pay the canonicalize+distinct shuffle of
    the raw edge list twice."""
    from ..functions.relational import hash_join

    e1 = und.map_batches(lambda t: t.rename_columns(["u", "k"]),
                         batch_format="pyarrow")
    e2 = und.map_batches(lambda t: t.rename_columns(["k", "w"]),
                         batch_format="pyarrow")
    wedges = hash_join(e1, e2, on="k", est_rows=est_rows)

    as_edge = wedges.map_batches(
        lambda t: pa.table({"a": t.column("u"), "b": t.column("w"),
                            "k": t.column("k")}),
        batch_format="pyarrow")
    closed = hash_join(as_edge, und, on=["a", "b"], how="semi",
                       est_rows=est_rows)

    def explode(batch: pa.Table) -> pa.Table:
        cols = [batch.column("a").to_numpy(zero_copy_only=False),
                batch.column("k").to_numpy(zero_copy_only=False),
                batch.column("b").to_numpy(zero_copy_only=False)]
        return pa.table({"node": pa.array(np.concatenate(cols), pa.int64())})

    return node_count(closed.map_batches(explode, batch_format="pyarrow"),
                      alias="n_triangles")


def kcore(
    edges: ray.data.Dataset,
    k: int = 2,
    est_rows: int | None = None,
    max_rounds: int = 12,
    broadcast_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """k-core subgraph by synchronous iterative peeling: each round
    removes EVERY node whose current degree is < k (and all its edges),
    until no node is removable.  Returns (node, core_deg) — the nodes of
    the k-core with their degree inside the core.

    Distributed shape: canonicalize to distinct undirected a < b edges
    (one groupby); each peel round is one degree groupby (map-side
    combinable Count) producing the round's low-degree node table, and
    edges incident to a low node are stripped — via a broadcast
    ``np.isin`` filter when the low table fits ``broadcast_limit``
    (``dedup_corpus``'s BROADCAST_LOSER_LIMIT pattern: one ``ray.put``,
    fetched zero-copy once per worker), else via two distributed ANTI
    hash joins.  Convergence is ``low.count()`` on a materialized
    table — only the scalar reaches the driver; neither the edge set
    nor the degree table ever does.  Each round materializes the
    surviving edge set: the next round re-reads it, and un-materialized
    Ray Data lineage re-executes geometrically across rounds (measured
    on pagerank — see NEXT_STEPS).

    Round-synchronous semantics make the result EXACTLY reproducible by
    an unrolled SQL oracle: after R identical rounds both sides hold the
    same edge set, whether or not the peeling has reached its fixpoint,
    because each round's removals depend only on the previous round's
    edge set.  Rounds needed ≤ peeling depth (≤ max degree; O(log n)
    for web-like graphs); if ``max_rounds`` is hit before the fixpoint a
    RuntimeWarning is raised and the partially-peeled degrees are
    returned (still oracle-equal for an oracle unrolled to the same R).
    """
    from ..functions.relational import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d), pa.int64()),
                         "b": pa.array(np.maximum(s, d), pa.int64())})

    und = (edges.map_batches(canon, batch_format="pyarrow")
           .groupby(["a", "b"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow")
           .materialize())

    def explode_nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch.column("a").combine_chunks(),
            batch.column("b").combine_chunks()])})

    def degrees(e: ray.data.Dataset) -> ray.data.Dataset:
        return node_count(
            e.map_batches(explode_nodes, batch_format="pyarrow"),
            alias="deg")

    import pyarrow.compute as pc

    def only_low(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("deg"), pa.scalar(k, pa.int64()))
        return pa.table({"node": batch.column("node").filter(keep)})

    from ..state import broadcast

    for _ in range(max_rounds):
        if und.count() == 0:      # metadata count (materialized)
            break
        low = (degrees(und).map_batches(only_low, batch_format="pyarrow")
               .materialize())
        n_low = low.count()       # metadata count — no recompute
        if n_low == 0:
            break
        if n_low <= broadcast_limit:
            ref = broadcast.put(np.sort(
                low.to_pandas()["node"].to_numpy().astype(np.int64)))

            def drop_low(batch: pa.Table, _ref=ref) -> pa.Table:
                gone = broadcast.fetch(_ref)
                a = batch.column("a").to_numpy(zero_copy_only=False)
                b = batch.column("b").to_numpy(zero_copy_only=False)
                keep = ~np.isin(a, gone) & ~np.isin(b, gone)
                return batch.filter(pa.array(keep))

            und = und.map_batches(drop_low,
                                  batch_format="pyarrow").materialize()
        else:
            low_a = low.map_batches(lambda t: t.rename_columns(["a"]),
                                    batch_format="pyarrow")
            low_b = low.map_batches(lambda t: t.rename_columns(["b"]),
                                    batch_format="pyarrow")
            stripped = hash_join(
                hash_join(und, low_a, on="a", how="anti",
                          est_rows=est_rows),
                low_b, on="b", how="anti", est_rows=est_rows,
            )
            # Each chained anti join multiplies block count ~3x (union
            # side blocks + per-bucket group outputs), so an
            # un-coalesced loop reaches 3^rounds blocks and the
            # per-round task count — not the data — dominates wall time
            # (measured: round 5 had 729 blocks for 17 rows).  Bound
            # blocks to the surviving edge count before snapshotting.
            n_blocks = resolve_n_blocks(est_rows or und.count())
            und = stripped.repartition(n_blocks).materialize()
    else:
        low = (degrees(und).map_batches(only_low, batch_format="pyarrow")
               .materialize())
        if low.count():
            import warnings

            warnings.warn(
                f"kcore: nodes below degree {k} remain after "
                f"max_rounds={max_rounds}; returning the partially-peeled "
                "subgraph (matches an oracle unrolled to the same rounds)",
                RuntimeWarning,
            )

    return degrees(und).map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "core_deg": t.column("deg")}),
        batch_format="pyarrow")


def bfs_distances(
    edges: ray.data.Dataset,
    seeds: list[int],
    max_hops: int = 8,
    est_rows: int | None = None,
    broadcast_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Multi-source BFS hop distances over an undirected graph: returns
    ``(node, dist)`` for every node within ``max_hops`` of any seed
    (seeds at dist 0; a node's dist is its minimum hop count to the
    nearest seed).  The single-source shortest-path primitive the
    reference runs inside ``InferentialSlotFiller``'s per-query entity
    graphs (EntityGraph BFS, InferentialSlotFiller.java:181-310) — here
    over the whole corpus graph, not one query's neighborhood
    (``subgraph_bfs`` above is the per-query budgeted form).

    Distributed shape: canonicalize to distinct undirected a < b edges
    (one groupby, materialized ONCE — every round re-reads the same
    edge snapshot); each hop expands the frontier by filtering the edge
    set against the frontier ids — a broadcast ``np.isin`` scan when
    the frontier fits ``broadcast_limit`` (one ``ray.put``, fetched
    zero-copy once per worker; NO shuffle per round), else two
    distributed SEMI hash joins — then strips already-visited nodes the
    same size-gated way.  Only per-round COUNTS reach the driver; node
    tables never do.  New-frontier materialization per round is the
    iterative-lineage rule (see ``kcore``); block count is re-bounded
    each round so join-grown tiny blocks don't compound.

    Round-synchronous semantics: after R rounds the visited table
    equals the min-plus SQL unroll to R rounds exactly — a node first
    appears in round r iff its true BFS distance is r, and its value
    never changes after — so an oracle unrolled to the same R agrees
    whether or not the expansion has converged.
    """
    from ..functions.relational import hash_join
    from ..state import broadcast

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d), pa.int64()),
                         "b": pa.array(np.maximum(s, d), pa.int64())})

    und = (edges.map_batches(canon, batch_format="pyarrow")
           .groupby(["a", "b"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow")
           .materialize())

    seed_arr = np.unique(np.asarray(sorted(seeds), dtype=np.int64))
    visited = ray.data.from_arrow(pa.table({
        "node": pa.array(seed_arr, pa.int64()),
        "dist": pa.array(np.zeros(len(seed_arr), np.int64), pa.int64()),
    })).materialize()
    frontier = visited  # (node, dist) — dist is uniform per round

    def nodes_of(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.map_batches(
            lambda t: pa.table({"node": t.column("node")}),
            batch_format="pyarrow")

    for hop in range(1, max_hops + 1):
        n_frontier = frontier.count()   # metadata count (materialized)
        if n_frontier == 0:
            break
        if n_frontier <= broadcast_limit:
            ref = broadcast.put(np.sort(
                frontier.to_pandas()["node"].to_numpy().astype(np.int64)))

            def expand(batch: pa.Table, _ref=ref) -> pa.Table:
                front = broadcast.fetch(_ref)
                a = batch.column("a").to_numpy(zero_copy_only=False)
                b = batch.column("b").to_numpy(zero_copy_only=False)
                out = np.concatenate([b[np.isin(a, front)],
                                      a[np.isin(b, front)]])
                return pa.table({"node": pa.array(out, pa.int64())})

            nbrs = und.map_batches(expand, batch_format="pyarrow")
        else:
            fa = frontier.map_batches(
                lambda t: pa.table({"a": t.column("node")}),
                batch_format="pyarrow")
            fb = frontier.map_batches(
                lambda t: pa.table({"b": t.column("node")}),
                batch_format="pyarrow")
            via_a = hash_join(und, fa, on="a", how="semi",
                              est_rows=est_rows).map_batches(
                lambda t: pa.table({"node": t.column("b")}),
                batch_format="pyarrow")
            via_b = hash_join(und, fb, on="b", how="semi",
                              est_rows=est_rows).map_batches(
                lambda t: pa.table({"node": t.column("a")}),
                batch_format="pyarrow")
            nbrs = via_a.union(via_b)

        # distinct new nodes this round, minus everything already seen
        # (node_count = per-batch unique combine, so only distinct nodes
        # per batch enter the exchange)
        nbrs = node_count(nbrs, alias="__n").map_batches(
            lambda t: t.drop_columns(["__n"]), batch_format="pyarrow")
        n_seen = visited.count()
        if n_seen <= broadcast_limit:
            seen_ref = broadcast.put(np.sort(
                visited.to_pandas()["node"].to_numpy().astype(np.int64)))

            def unseen(batch: pa.Table, _ref=seen_ref) -> pa.Table:
                seen = broadcast.fetch(_ref)
                n = batch.column("node").to_numpy(zero_copy_only=False)
                return batch.filter(pa.array(~np.isin(n, seen)))

            fresh = nbrs.map_batches(unseen, batch_format="pyarrow")
        else:
            fresh = hash_join(nbrs, nodes_of(visited), on="node",
                              how="anti", est_rows=est_rows)

        def stamp(batch: pa.Table, _d=hop) -> pa.Table:
            return batch.append_column(
                "dist", pa.array(np.full(batch.num_rows, _d, np.int64)))

        n_blocks = resolve_n_blocks(est_rows or n_seen)
        frontier = (fresh.map_batches(stamp, batch_format="pyarrow")
                    .repartition(n_blocks).materialize())
        if frontier.count() == 0:
            break
        visited = (visited.union(frontier)
                   .repartition(n_blocks).materialize())

    return visited


def graph_structure_stats(edges: ray.data.Dataset,
                          est_rows: int | None = None) -> pa.Table:
    """Degree assortativity + reciprocity of a directed edge list — the
    graph-health metrics run before trusting link-based curation
    signals (PageRank spam farms show as high reciprocity + negative
    assortativity).

    Shape: total degree per node is one combiner'd groupby over both
    endpoints; each edge rehydrates (deg(src), deg(dst)) through two
    key-partitioned ``hash_join``s; the Pearson moments reduce as SIX
    exact int64 sums (degrees are small ints, products bounded), and
    reciprocity is one SEMI join against the reversed edge list.  The
    driver sees only the final scalar row — bit-deterministic, one
    sqrt/divide at the end, exactly SQL-checkable."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Sum

    from ..functions.relational import hash_join

    # edges feed FOUR consumers (degree, two rehydration joins, the
    # reversed-edge semi join) — materialize once, in few blocks, or the
    # whole upstream derivation re-executes per consumer and its tiny
    # output blocks poison every downstream shuffle (CLAUDE.md gotcha)
    n_blocks = resolve_n_blocks(est_rows or 0)
    edges = edges.repartition(n_blocks).materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch.column("src").combine_chunks().cast(pa.int64()),
            batch.column("dst").combine_chunks().cast(pa.int64()),
        ])})

    deg = (edges.map_batches(endpoints, batch_format="pyarrow")
           .groupby("node").aggregate(Count(alias_name="deg")))
    da = deg.map_batches(lambda b: b.rename_columns(["src", "da"]),
                         batch_format="pyarrow")
    db = deg.map_batches(lambda b: b.rename_columns(["dst", "db"]),
                         batch_format="pyarrow")
    withdeg = hash_join(hash_join(edges, da, on="src",
                                  est_rows=est_rows),
                        db, on="dst", est_rows=est_rows)

    def moments(batch: pa.Table) -> pa.Table:
        x = batch.column("da").to_numpy().astype(np.int64)
        y = batch.column("db").to_numpy().astype(np.int64)
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
        })

    ag = withdeg.map_batches(moments, batch_format="pyarrow")
    cols = ("n", "sx", "sy", "sxy", "sxx", "syy")
    row = ag.aggregate(*[Sum(c, alias_name=c) for c in cols])
    sums = {c: int(row[c]) for c in cols}

    rev = edges.map_batches(
        lambda b: pa.table({"src": b.column("dst"),
                            "dst": b.column("src")}),
        batch_format="pyarrow")
    recip = hash_join(edges, rev, on=["src", "dst"], how="semi",
                      est_rows=est_rows).count()

    n, sx, sy = sums["n"], sums["sx"], sums["sy"]
    num = n * sums["sxy"] - sx * sy
    dx = n * sums["sxx"] - sx * sx
    dy = n * sums["syy"] - sy * sy
    if dx == 0 or dy == 0:
        r = 0.0
    else:
        import math

        r = float(num) / math.sqrt(float(dx) * float(dy))
    r_q = int(np.floor(r * 1e9 + 0.5))
    return pa.table({
        "n_edges": pa.array([n], pa.int64()),
        "n_reciprocal": pa.array([int(recip)], pa.int64()),
        "assortativity_q": pa.array([r_q], pa.int64()),
    })


def sssp_weighted(
    edges: ray.data.Dataset,
    source: int,
    max_hops: int = 6,
    est_rows: int | None = None,
    broadcast_limit: int = 5_000_000,
    combine: str = "plus",
    source_cost: int = 0,
) -> ray.data.Dataset:
    """Hop-bounded single-source shortest paths over a DIRECTED weighted
    edge list ``(src, dst, w)`` — round-synchronous Bellman-Ford with
    the changed-nodes-only frontier optimization: after R rounds the
    result holds, for every node reachable in ≤ R edges, the exact
    minimum path cost using ≤ R edges (so an oracle unrolled to the
    same R agrees whether or not the relaxation has converged —
    ``bfs_distances``' contract, generalized to weights).

    ``combine`` picks the relaxation semiring: ``"plus"`` (default) is
    min-plus shortest path; ``"max"`` is min-max — pass NEGATED weights
    and ``source_cost=-BIG`` and the result is the negated WIDEST
    (maximum-bottleneck) path, the routing/percolation primitive.  Both
    share every other line: the MIN groupby, the improvement filter,
    and the frontier bookkeeping are semiring-generic.

    Distributed shape (mirrors ``bfs_distances``): edges materialize
    ONCE; each round relaxes out-edges of the previous round's improved
    nodes — a zero-shuffle broadcast ``searchsorted`` probe while the
    frontier fits ``broadcast_limit``, else one key-partitioned inner
    ``hash_join`` — then one combiner'd MIN groupby (integer min is
    associative) and a size-gated improvement filter against the best
    known costs.  Only counts reach the driver; per-round materialize +
    size-derived repartition is the iterative-lineage rule (see
    ``kcore``)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Min

    from ..functions.relational import hash_join
    from ..state import broadcast

    n_blocks = resolve_n_blocks(est_rows or 0)
    edges = edges.repartition(n_blocks).materialize()

    if combine not in ("plus", "max"):
        raise ValueError("combine must be 'plus' (min-plus shortest "
                         "path) or 'max' (min-max: widest path on "
                         "negated weights)")
    visited = ray.data.from_arrow(pa.table({
        "node": pa.array([source], pa.int64()),
        "cost": pa.array([source_cost], pa.int64()),
    })).materialize()
    frontier = visited

    for _ in range(max_hops):
        n_frontier = frontier.count()
        if n_frontier == 0:
            break
        if n_frontier <= broadcast_limit:
            fp = frontier.to_pandas().sort_values("node")
            ref = broadcast.put((fp["node"].to_numpy().astype(np.int64),
                                 fp["cost"].to_numpy().astype(np.int64)))

            def relax(batch: pa.Table, _ref=ref) -> pa.Table:
                fnodes, fcosts = broadcast.fetch(_ref)
                s = batch.column("src").to_numpy(zero_copy_only=False)
                d = batch.column("dst").to_numpy(zero_copy_only=False)
                w = batch.column("w").to_numpy(zero_copy_only=False)
                idx = np.searchsorted(fnodes, s)
                idx = np.minimum(idx, len(fnodes) - 1)
                hit = fnodes[idx] == s
                cc = (np.maximum(fcosts[idx[hit]], w[hit])
                      if combine == "max" else fcosts[idx[hit]] + w[hit])
                return pa.table({
                    "node": pa.array(d[hit], pa.int64()),
                    "cost": pa.array(cc, pa.int64()),
                })

            cand = edges.map_batches(relax, batch_format="pyarrow")
        else:
            fr = frontier.map_batches(
                lambda t: pa.table({"src": t.column("node"),
                                    "fcost": t.column("cost")}),
                batch_format="pyarrow")
            cand = hash_join(edges, fr, on="src", how="inner",
                             est_rows=est_rows).map_batches(
                lambda t: pa.table({
                    # int64, the types the broadcast branch emits
                    "node": pc.cast(t.column("dst"), pa.int64()),
                    "cost": pc.cast(
                        pc.max_element_wise(t.column("fcost"),
                                            t.column("w"))
                        if combine == "max"
                        else pc.add(t.column("fcost"), t.column("w")),
                        pa.int64()),
                }), batch_format="pyarrow")

        cand = cand.groupby("node").aggregate(
            Min("cost", alias_name="cost"))

        n_seen = visited.count()
        if n_seen <= broadcast_limit:
            vp = visited.to_pandas().sort_values("node")
            vref = broadcast.put((vp["node"].to_numpy().astype(np.int64),
                                  vp["cost"].to_numpy().astype(np.int64)))

            def improved(batch: pa.Table, _ref=vref) -> pa.Table:
                vnodes, vcosts = broadcast.fetch(_ref)
                n = batch.column("node").to_numpy(zero_copy_only=False)
                c = batch.column("cost").to_numpy(zero_copy_only=False)
                idx = np.minimum(np.searchsorted(vnodes, n),
                                 len(vnodes) - 1)
                known = vnodes[idx] == n
                better = ~known | (c < vcosts[idx])
                return batch.filter(pa.array(better))

            fresh = cand.map_batches(improved, batch_format="pyarrow")
        else:
            old = visited.map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "old_cost": t.column("cost")}),
                batch_format="pyarrow")
            fresh = hash_join(cand, old, on="node", how="left",
                              est_rows=est_rows).map_batches(
                lambda t: t.filter(pc.or_kleene(
                    pc.is_null(t.column("old_cost")),
                    pc.less(t.column("cost"), t.column("old_cost"))))
                .select(["node", "cost"]), batch_format="pyarrow")

        frontier = fresh.repartition(n_blocks).materialize()
        if frontier.count() == 0:
            break

        imp = frontier.to_pandas() if frontier.count() <= broadcast_limit \
            else None
        if imp is not None:
            iref = broadcast.put(np.sort(
                imp["node"].to_numpy().astype(np.int64)))

            def drop_updated(batch: pa.Table, _ref=iref) -> pa.Table:
                nodes = broadcast.fetch(_ref)
                n = batch.column("node").to_numpy(zero_copy_only=False)
                return batch.filter(pa.array(~np.isin(n, nodes)))

            kept = visited.map_batches(drop_updated,
                                       batch_format="pyarrow")
        else:
            kept = hash_join(
                visited,
                frontier.map_batches(
                    lambda t: pa.table({"node": t.column("node")}),
                    batch_format="pyarrow"),
                on="node", how="anti", est_rows=est_rows)
        visited = (kept.union(frontier)
                   .repartition(n_blocks).materialize())

    return visited


def clustering_coefficients(
    edges: ray.data.Dataset,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Local clustering coefficient per node: cc = 2·T(v) / (d(v)·(d(v)−1))
    over the distinct undirected simple graph, quantized to integer ppm
    (``cc_ppm = floor(2·T·10⁶ / (d·(d−1)))``) so the SQL oracle is exact.

    Returns (node, deg, n_triangles, cc_ppm) for every node with
    deg ≥ 2 (cc is undefined below; such nodes are omitted, matching the
    oracle's WHERE).  Distributed shape: ``triangle_counts`` (three
    key-partitioned joins) for T, one map-side-combined ``node_count``
    over the exploded distinct edges for d, and one LEFT join
    (nodes with no triangles get T = 0) — nothing on the driver."""
    from ..functions.relational import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d), pa.int64()),
                         "b": pa.array(np.maximum(s, d), pa.int64())})

    und = (edges.map_batches(canon, batch_format="pyarrow")
           .groupby(["a", "b"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow")
           .materialize())
    n_und = und.count()
    und = und.repartition(resolve_n_blocks(n_und)).materialize()
    if est_rows is None:
        est_rows = 2 * n_und

    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        return pa.table({"node": pa.concat_arrays([a, b])})

    deg = node_count(und.map_batches(explode, batch_format="pyarrow"),
                     alias="deg")
    tri = _triangles_from_und(und, est_rows)
    joined = hash_join(deg, tri, on="node", how="left", est_rows=est_rows)

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = batch.column("deg").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = pc.fill_null(pc.cast(batch.column("n_triangles"), pa.int64(),
                                 safe=False), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = d >= 2
        d, t = d[keep], t[keep]
        node = batch.column("node").to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        cc = (2 * t * 1_000_000) // (d * (d - 1))
        return pa.table({"node": pa.array(node, pa.int64()),
                         "deg": pa.array(d, pa.int64()),
                         "n_triangles": pa.array(t, pa.int64()),
                         "cc_ppm": pa.array(cc, pa.int64())})

    return joined.map_batches(finish, batch_format="pyarrow")


_I64MAX = np.iinfo(np.int64).max


def temporal_reachability(
    edges: ray.data.Dataset,
    seed: int,
    start: int = 0,
    max_rounds: int = 4,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Time-respecting earliest arrival from ``seed``: an edge
    (src, dst, ts) is traversable only at its own timestamp, and a
    temporal path's timestamps must be nondecreasing — reachability in
    interaction networks (message/retweet/transaction cascades) where
    static reachability overcounts (you cannot ride an edge into the
    past).  Returns (node, arrival): the earliest time one can BE at
    each reached node, ``start`` at the seed.

    Round-synchronous relaxation (the kcore/q51 oracle pattern):
    arrival_{r+1}(v) = min(arrival_r(v), min{ts : edge (u,v,ts),
    ts ≥ arrival_r(u)}) — Min is associative so every shuffle reduce is
    deterministic, and an oracle unrolled to the SAME ``max_rounds`` is
    exact whether or not the fixpoint has been reached.  Rounds needed =
    max temporal-path hop count.  One key-partitioned join + one
    groupby-Min per round; the label table is materialized and
    block-bounded each round (the iterative-loop lesson)."""
    from ray.data.aggregate import Min

    from ..functions.relational import hash_join

    labels = ray.data.from_arrow(pa.table({
        "node": pa.array([seed], pa.int64()),
        "arrival": pa.array([start], pa.int64())})).materialize()
    if est_rows is None:
        est_rows = edges.count()
    by_src = edges.map_batches(
        lambda t: pa.table({"node": t.column("src"),
                            "dst": t.column("dst"),
                            "ts": t.column("ts")}),
        batch_format="pyarrow").materialize()
    broadcast_limit = 5_000_000

    for _ in range(max_rounds):
        n_labels = labels.count()
        if n_labels <= broadcast_limit:
            # the label table is tiny vs the edge list (≤ |V| rows);
            # broadcast it and relax map-side instead of shuffling the
            # FULL edge list through a join every round (kcore's
            # broadcast-vs-anti-join gate; one ray.put, fetched once
            # per worker)
            from ..pipelines.kg import dataset_to_table
            from ..state import broadcast

            lt = dataset_to_table(labels)
            ln = lt.column("node").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            la = lt.column("arrival").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            order = np.argsort(ln, kind="stable")
            lref = broadcast.put((ln[order], la[order]))

            def relax_bcast(batch: pa.Table, _ref=lref) -> pa.Table:
                nodes, arrs = broadcast.fetch(_ref)
                n = batch.column("node").to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                ts = batch.column("ts").to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                idx = np.searchsorted(nodes, n).clip(0, len(nodes) - 1)
                arr = np.where(nodes[idx] == n, arrs[idx], _I64MAX)
                keep = ts >= arr
                return pa.table({
                    "node": batch.column("dst").filter(pa.array(keep)),
                    "arrival": pa.array(ts[keep], pa.int64())})

            cand = by_src.map_batches(relax_bcast, batch_format="pyarrow")
        else:
            msgs = hash_join(by_src, labels, on="node", est_rows=est_rows)

            def relax(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                ok = batch.filter(pc.greater_equal(
                    batch.column("ts"), batch.column("arrival")))
                return pa.table({"node": ok.column("dst"),
                                 "arrival": pc.cast(ok.column("ts"),
                                                    pa.int64())})

            cand = msgs.map_batches(relax, batch_format="pyarrow")

        def min_combine(batch: pa.Table) -> pa.Table:
            n = batch.column("node").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            a = batch.column("arrival").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            uniq, inv = np.unique(n, return_inverse=True)
            best = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
            np.minimum.at(best, inv, a)
            return pa.table({"node": pa.array(uniq),
                             "arrival": pa.array(best)})

        labels = (labels.union(
            cand.map_batches(min_combine, batch_format="pyarrow"))
            .groupby("node").aggregate(Min("arrival",
                                           alias_name="arrival"))
            .repartition(resolve_n_blocks(est_rows)).materialize())
    return labels


def luby_mis(
    edges: ray.data.Dataset,
    max_rounds: int = 3,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Maximal-independent-set construction by Luby's algorithm — the
    classic distributed SYMMETRY BREAKER (pick a non-conflicting subset
    of nodes: dedup-cluster representatives, parallel lock scheduling,
    graph-coloring seeds).  Each round every still-active node draws a
    per-round CONTENT-HASH priority (``stable_u64("mis\\0{r}\\0{node}")``
    — order-independent, and bit-equal to DuckDB's
    ``md5_number_upper``, so the oracle replays it exactly); a node
    joins the MIS iff its priority strictly beats every active
    neighbor's (isolated actives join unconditionally), then winners
    and their neighbors deactivate.  Priority collisions need no
    tie-break: neither node beats the other, both simply stay active
    for the next round — identically on both engines.

    Round-synchronous ⇒ an oracle unrolled to the same ``max_rounds``
    matches exactly even short of the fixpoint (the kcore contract);
    Luby needs O(log n) rounds w.h.p.  Per round: one adjacency ⋈
    priority join + one groupby-Max + one LEFT join + one ANTI join —
    all key-partitioned, nothing on the driver.  Returns (node, round)
    for every MIS member found, round = the 0-based round it joined."""
    from ray.data.aggregate import Max

    from ..functions.hashing import stable_u64
    from ..functions.relational import hash_join

    def explode(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({
            "node": pa.array(np.concatenate([s, d])),
            "nbr": pa.array(np.concatenate([d, s])),
        })

    adj = (edges.map_batches(explode, batch_format="pyarrow")
           .groupby(["node", "nbr"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow").materialize())
    n_adj = adj.count()
    n_blocks = resolve_n_blocks(n_adj)
    adj = adj.repartition(n_blocks).materialize()
    if est_rows is None:
        est_rows = n_adj

    active = (adj.groupby("node").count()
              .map_batches(lambda t: t.select(["node"]),
                           batch_format="pyarrow")
              .repartition(n_blocks).materialize())
    mis_parts: list[ray.data.Dataset] = []

    for r in range(max_rounds):
        def pri(batch: pa.Table, _r=r) -> pa.Table:
            nodes = batch.column("node").to_pylist()
            # >> 11: the DuckDB ``md5_number_upper >> 11`` identity the
            # oracle replays bit-for-bit (q151), not a join workaround
            p = np.array([stable_u64(f"mis\x00{_r}\x00{v}") >> 11
                          for v in nodes], dtype=np.int64)
            return pa.table({"node": batch.column("node"),
                             "p": pa.array(p)})

        prio = active.map_batches(pri, batch_format="pyarrow") \
            .materialize()
        # neighbor priorities: only ACTIVE neighbors have a prio row
        nbr_p = hash_join(
            adj.map_batches(lambda t: t.rename_columns(["node", "nbr"]),
                            batch_format="pyarrow"),
            prio.map_batches(lambda t: t.rename_columns(["nbr", "p"]),
                             batch_format="pyarrow"),
            on="nbr", est_rows=est_rows)
        mx = nbr_p.groupby("node").aggregate(Max("p", alias_name="mp"))
        cand = hash_join(prio, mx, on="node", how="left",
                         est_rows=est_rows)

        def winners(batch: pa.Table, _r=r) -> pa.Table:
            import pyarrow.compute as pc

            p, mp = batch.column("p"), batch.column("mp")
            take = pc.or_kleene(pc.is_null(mp), pc.greater(p, mp))
            won = batch.filter(pc.fill_null(take, False))
            return pa.table({
                "node": pc.cast(won.column("node"), pa.int64()),
                "round": pa.array(np.full(won.num_rows, _r, np.int64)),
            })

        mis_r = cand.map_batches(winners, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()
        mis_parts.append(mis_r)
        if mis_r.count() == 0:
            break
        dead_nbrs = hash_join(
            adj, mis_r.map_batches(lambda t: t.select(["node"]),
                                   batch_format="pyarrow"),
            on="node", how="semi", est_rows=est_rows) \
            .map_batches(lambda t: pa.table({"node": t.column("nbr")}),
                         batch_format="pyarrow")
        dead = mis_r.map_batches(lambda t: t.select(["node"]),
                                 batch_format="pyarrow") \
            .union(dead_nbrs)
        active = hash_join(active, dead, on="node", how="anti",
                           est_rows=est_rows) \
            .repartition(n_blocks).materialize()
        if active.count() == 0:
            break

    out = mis_parts[0]
    for part in mis_parts[1:]:
        out = out.union(part)
    return out.repartition(n_blocks)


def hits(
    edges: ray.data.Dataset,
    n_iter: int = 2,
    scale: int = 1_000_000,
    est_rows: int | None = None,
    broadcast_limit: int | None = None,
) -> ray.data.Dataset:
    """HITS hubs-and-authorities over an integer (src, dst) edge list —
    the mutually-recursive centrality pair PageRank doesn't give you
    (good DIRECTORY pages vs good CONTENT pages; query-time link
    analysis in the original formulation).  Returns
    (node, auth_q, hub_q) for every node of the graph.

    Semantics: 0/1 adjacency (parallel edges collapse via one distinct
    groupby), hubs initialized to ``scale``; each iteration runs the
    classic two half-steps — ``auth'(v) = Σ_{(u,v)} hub(u)`` then
    ``hub'(u) = Σ_{(u,v)} auth'(v)`` (the fresh auth, per Kleinberg) —
    each followed by MAX-normalization in INTEGER fixed point:
    ``q = raw · scale // max(raw)``.  Max-normalizing (instead of the
    textbook L2) keeps every value an exact int64: sums are associative
    int SUMs, the max is an associative int MAX, and the floor division
    is replayed verbatim by the SQL oracle — bit-identical at any
    parallelism and across engines.  Nodes with no in-edges hold
    auth 0; no out-edges, hub 0.  The first auth half-step needs no
    join: with uniform hubs, ``auth_raw = indegree · scale``.

    Scale shape per half-step (join path): one key-partitioned
    ``hash_join`` ships the node-sized vector onto the edges, one
    groupby SUMs, one O(blocks) partial-max sync (rows never reach the
    driver), one vectorized normalize map.  Under ``broadcast_limit``
    (default BROADCAST_RANK_LIMIT) the vector instead broadcasts via
    ``ray.put`` — one map + one int-SUM groupby per half-step, no
    joins; normalization happens on the node-sized driver copy in exact
    big-int arithmetic (same floor results).  Both paths are tested
    equal.  Normalization overflow guard: ``raw · scale`` is vectorized
    int64 while ``max(raw) · scale < 2^62`` and falls back to per-value
    Python big ints beyond (auth sums can reach N·scale).
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from ..functions.relational import hash_join

    if broadcast_limit is None:
        broadcast_limit = BROADCAST_RANK_LIMIT

    e = (edges.groupby(["src", "dst"]).count()
         .map_batches(lambda t: t.drop_columns(["count()"]),
                      batch_format="pyarrow")
         .materialize())
    n_e = e.count()
    empty = ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "auth_q": pa.array([], pa.int64()),
        "hub_q": pa.array([], pa.int64())}))
    if n_e == 0:
        return empty
    # groupby outputs hundreds of near-empty blocks; every later join's
    # sort pays per BLOCK, not per row (the connected_components lesson)
    e = e.repartition(resolve_n_blocks(n_e)).materialize()
    if est_rows is None:
        est_rows = n_e

    def side(col: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({"node": pc.cast(batch.column(col),
                                             pa.int64())})
        return f

    nodes = (e.map_batches(side("src"), batch_format="pyarrow")
             .union(e.map_batches(side("dst"), batch_format="pyarrow"))
             .groupby("node").count()
             .map_batches(lambda b: pa.table({"node": b.column("node")}),
                          batch_format="pyarrow")
             .materialize())
    n_nodes = nodes.count()
    nodes = nodes.repartition(resolve_n_blocks(n_nodes)).materialize()

    if n_nodes <= broadcast_limit:
        # ----- broadcast path: vector on the driver, big-int exact -----
        def _norm(d: dict) -> dict:
            m = max(d.values(), default=0)
            if m <= 0:
                return {k: 0 for k in d}
            return {k: int(v) * scale // m for k, v in d.items()}

        def _half(vec: dict, key_col: str, out_col: str) -> dict:
            ref = ray.put(vec)

            def contrib(batch: pa.Table, _ref=ref) -> pa.Table:
                from ..state.broadcast import fetch

                v = fetch(_ref)
                keys = batch.column(key_col).to_pylist()
                outs = batch.column(out_col).to_pylist()
                acc: dict = {}
                for k, o in zip(keys, outs):
                    acc[o] = acc.get(o, 0) + v[k]
                ks = sorted(acc)
                return pa.table({
                    "node": pa.array(ks, pa.int64()),
                    "c": pa.array([acc[k] for k in ks], pa.int64())})

            raw = (e.map_batches(contrib, batch_format="pyarrow")
                   .groupby("node").aggregate(Sum("c", alias_name="s"))
                   .take_all())
            return _norm({r["node"]: r["s"] for r in raw})

        hub = {r["node"]: scale for r in nodes.take_all()}
        auth: dict = {}
        for _ in range(n_iter):
            auth = _half(hub, "src", "dst")   # auth(v) = Σ hub(src)
            hub = _half(auth, "dst", "src")   # hub(u) = Σ auth(dst)
        items = sorted(
            (n, auth.get(n, 0), hub.get(n, 0)) for n in
            (r["node"] for r in nodes.take_all()))
        return ray.data.from_arrow(pa.table({
            "node": pa.array([a for a, _, _ in items], pa.int64()),
            "auth_q": pa.array([b for _, b, _ in items], pa.int64()),
            "hub_q": pa.array([c for _, _, c in items], pa.int64())}))

    # ----- join path: vector stays distributed -----
    vec_parts = resolve_n_blocks(n_nodes)

    def _global_max(ds: ray.data.Dataset, col: str) -> int:
        def pmax(batch: pa.Table) -> pa.Table:
            arr = batch.column(col).to_numpy(zero_copy_only=False)
            m = int(arr.max()) if len(arr) else 0
            return pa.table({"m": pa.array([m], pa.int64())})

        parts = ds.map_batches(pmax, batch_format="pyarrow").take_all()
        return max((r["m"] for r in parts), default=0)

    def _normalize(raw: ray.data.Dataset, mx: int) -> ray.data.Dataset:
        def f(batch: pa.Table) -> pa.Table:
            r = batch.column("r").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if mx <= 0:
                q = np.zeros(len(r), np.int64)
            elif mx <= (2 ** 62) // scale:
                q = r * np.int64(scale) // np.int64(mx)
            else:
                q = np.fromiter((int(v) * scale // mx for v in r),
                                np.int64, len(r))
            return pa.table({"node": batch.column("node"),
                             "q": pa.array(q, pa.int64())})

        return (raw.map_batches(f, batch_format="pyarrow")
                .repartition(vec_parts).materialize())

    def _half_join(vec: ray.data.Dataset, key_col: str,
                   out_col: str) -> ray.data.Dataset:
        """raw(out) = Σ_{edges} vec[key]; vec covers every key value by
        construction (auth covers all dsts, hub all srcs)."""
        keyed = vec.map_batches(
            lambda t, _k=key_col: pa.table({_k: t.column("node"),
                                            "q": t.column("q")}),
            batch_format="pyarrow")
        joined = hash_join(e, keyed, on=key_col, est_rows=est_rows)
        return (joined.map_batches(
                    lambda t, _o=out_col: pa.table(
                        {"node": pc.cast(t.column(_o), pa.int64()),
                         "c": pc.cast(t.column("q"), pa.int64())}),
                    batch_format="pyarrow")
                .groupby("node").aggregate(Sum("c", alias_name="r"))
                .map_batches(lambda t: pa.table(
                    {"node": t.column("node"),
                     "r": pc.cast(t.column("r"), pa.int64())}),
                    batch_format="pyarrow"))

    # first auth half-step join-free: auth_raw = indegree * scale
    raw = (e.groupby("dst").count()
           .map_batches(lambda b: pa.table({
               "node": pc.cast(b.column("dst"), pa.int64()),
               "r": pc.multiply(pc.cast(b.column("count()"), pa.int64()),
                                pa.scalar(scale, pa.int64()))}),
               batch_format="pyarrow"))
    auth_v = _normalize(raw, _global_max(raw, "r"))
    raw = _half_join(auth_v, "dst", "src")
    hub_v = _normalize(raw, _global_max(raw, "r"))
    for _ in range(n_iter - 1):
        raw = _half_join(hub_v, "src", "dst")
        auth_v = _normalize(raw, _global_max(raw, "r"))
        raw = _half_join(auth_v, "dst", "src")
        hub_v = _normalize(raw, _global_max(raw, "r"))

    out = hash_join(
        nodes,
        auth_v.map_batches(lambda t: pa.table(
            {"node": t.column("node"), "auth_q": t.column("q")}),
            batch_format="pyarrow"),
        on="node", how="left", est_rows=n_nodes)
    out = hash_join(
        out,
        hub_v.map_batches(lambda t: pa.table(
            {"node": t.column("node"), "hub_q": t.column("q")}),
            batch_format="pyarrow"),
        on="node", how="left", est_rows=n_nodes)

    def fill0(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc.cast(batch.column("node"), pa.int64()),
            "auth_q": pc.fill_null(batch.column("auth_q"), 0),
            "hub_q": pc.fill_null(batch.column("hub_q"), 0),
        })

    return out.map_batches(fill0, batch_format="pyarrow").sort("node")


def link_prediction_topk(
    edges: ray.data.Dataset,
    k: int = 20,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Common-neighbor / Jaccard link prediction over an integer
    (src, dst) edge list: for every NON-adjacent unordered pair with at
    least one shared neighbor, score by common-neighbor count and
    integer-ppm Jaccard of the neighborhoods
    (``jacc_ppm = 10^6·|Γa∩Γb| // (|Γa|+|Γb|−|Γa∩Γb|)``), and return
    the global top-k under the total order (jacc_ppm DESC, cn DESC,
    a, b) — the classic "people you may know" / missing-KB-edge
    candidate generator.

    Distributed shape (all integer, bit-exact): canonicalize to
    distinct undirected a<b edges, explode adjacency, and run BOTH
    high-cardinality aggregations as hash-BUCKET map_groups with
    vectorized pandas reducers (the q110 idiom — Ray's sort-based
    aggregate pays per distinct key): (1) bucket by hash(middle node),
    self-merge each node's neighbor list to wedge pairs with LOCAL
    partial counts; (2) bucket by hash(pair) for exact totals.
    Adjacent pairs drop via one ANTI hash_join against the edge set;
    two more joins attach degrees; a per-block partial top-k bounds the
    final sort to k×blocks rows.  Skew: wedges per middle node are
    C(deg, 2) — the triangle_counts caveat applies (degree-ordered
    orientation caps it; kept plain so the SQL twin stays LEAST/
    GREATEST-free)."""
    import pyarrow.compute as pc

    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d), pa.int64()),
                         "b": pa.array(np.maximum(s, d), pa.int64())})

    und = (edges.map_batches(canon, batch_format="pyarrow")
           .groupby(["a", "b"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow")
           .materialize())
    n_und = und.count()
    if n_und == 0:
        return ray.data.from_arrow(pa.table({
            "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
            "cn": pa.array([], pa.int64()),
            "jacc_ppm": pa.array([], pa.int64())}))
    und = und.repartition(resolve_n_blocks(n_und)).materialize()
    if est_rows is None:
        est_rows = 2 * n_und
    nb = int(max(16, min(4096, n_und // 100_000 + 1)))

    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": pa.array(np.concatenate([a, b]), pa.int64()),
            "nbr": pa.array(np.concatenate([b, a]), pa.int64())})

    adj = und.map_batches(explode, batch_format="pyarrow")
    deg = adj.groupby("node").count().map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "deg": pc.cast(t.column("count()"),
                                           pa.int64())}),
        batch_format="pyarrow")

    _M1, _M2 = np.uint64(2654435761), np.uint64(0x9E3779B97F4A7C15)

    def mid_bucket(batch: pa.Table) -> pa.Table:
        n = batch.column("node").to_numpy().astype(np.uint64)
        return batch.append_column(
            "__bucket", pa.array((((n * _M1) >> np.uint64(16))
                                  % np.uint64(nb)).astype(np.int32)))

    def wedge_counts(g: pd.DataFrame):
        m = g.merge(g, on="node", suffixes=("_a", "_b"))
        m = m[m["nbr_a"] < m["nbr_b"]]
        out = (m.groupby(["nbr_a", "nbr_b"], sort=False)
               .size().reset_index(name="cn"))
        out.columns = ["a", "b", "cn"]
        if out.empty:
            out = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                "b": pd.Series([], dtype="int64"),
                                "cn": pd.Series([], dtype="int64")})
        out["cn"] = out["cn"].astype("int64")
        return pd_to_arrow(out)

    partials = (adj.map_batches(mid_bucket, batch_format="pyarrow")
                .groupby("__bucket")
                .map_groups(lambda g: wedge_counts(
                    g.drop(columns="__bucket")), batch_format="pandas"))

    def pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy().astype(np.uint64)
        b = batch.column("b").to_numpy().astype(np.uint64)
        h = a * _M1 + b * _M2
        return batch.append_column(
            "__b2", pa.array(((h >> np.uint64(16))
                              % np.uint64(nb)).astype(np.int32)))

    def pair_totals(g: pd.DataFrame):
        tot = (g.groupby(["a", "b"], sort=False)["cn"]
               .sum().reset_index())
        tot["cn"] = tot["cn"].astype("int64")
        return pd_to_arrow(tot)

    cn = (partials.map_batches(pair_bucket, batch_format="pyarrow")
          .groupby("__b2")
          .map_groups(lambda g: pair_totals(g.drop(columns="__b2")),
                      batch_format="pandas")
          .materialize())
    n_cn = cn.count()
    cn = cn.repartition(resolve_n_blocks(n_cn)).materialize()

    cand = hash_join(cn, und, on=["a", "b"], how="anti",
                     est_rows=max(n_cn, n_und))
    cand = hash_join(
        cand,
        deg.map_batches(lambda t: pa.table(
            {"a": t.column("node"), "deg_a": t.column("deg")}),
            batch_format="pyarrow"),
        on="a", est_rows=n_cn)
    cand = hash_join(
        cand,
        deg.map_batches(lambda t: pa.table(
            {"b": t.column("node"), "deg_b": t.column("deg")}),
            batch_format="pyarrow"),
        on="b", est_rows=n_cn)

    def score_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        for c in ("a", "b", "cn", "deg_a", "deg_b"):
            df[c] = df[c].astype("int64")
        cnv = df["cn"].to_numpy(np.int64)
        den = (df["deg_a"].to_numpy(np.int64)
               + df["deg_b"].to_numpy(np.int64) - cnv)
        df["jacc_ppm"] = np.int64(1_000_000) * cnv // den
        df = df.sort_values(["jacc_ppm", "cn", "a", "b"],
                            ascending=[False, False, True, True],
                            kind="mergesort").head(k)
        return pd_to_arrow(df[["a", "b", "cn", "jacc_ppm"]])

    # per-block partial top-k bounds the global sort to k×blocks rows
    return (cand.map_batches(score_topk, batch_format="pyarrow")
            .sort(["jacc_ppm", "cn", "a", "b"],
                  descending=[True, True, False, False])
            .limit(k))


def scc(
    edges: ray.data.Dataset,
    est_rows: int | None = None,
    max_peels: int = 32,
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Strongly connected components of a DIRECTED ``(src, dst)`` edge
    list — trim + forward-coloring + backward-collect peeling (the
    MultiStep scheme of Slota/Rajamanickam/Madduri, IPDPS'14, the
    standard distributed alternative to inherently-sequential Tarjan).
    Returns ``(node, scc_id)`` with ``scc_id`` = the minimum member id:
    a color's root r is the smallest id reaching the class, every
    backward-collected member both reaches and is reached by r, and no
    SCC member can be smaller than its color (it would have recolored
    the class) — so the label is exact and deterministic at any
    parallelism.

    Per peel: (1) TRIM fixpoint — nodes without both an in- and an
    out-edge are singleton SCCs (semi/anti joins, no shuffle wider than
    the node table); (2) forward min-label coloring to fixpoint — one
    hash_join(edges, labels on src) + combiner'd MIN groupby per round,
    convergence by the strictly-decreasing label SUM (one scalar to the
    driver — labels only ever decrease, so sum-unchanged == fixpoint);
    (3) color the edge table once, keep same-color edges, propagate a
    membership flag BACKWARD from each root to fixpoint (count-stable
    convergence); (4) emit members, anti-join them out, repeat.  Every
    iterative dataset is re-materialized at a size-derived block count
    per round (the kcore lineage rule).

    Worst case: a long chain peels one SCC per color per round — the
    known limitation of coloring SCC; trim absorbs the DAG-shaped part
    (most of a web graph).  ``max_peels``/``max_rounds`` bound the work
    and raise RuntimeWarning rather than silently mislabel.  Self-loops
    are SCC-neutral and dropped at ingest; parallel edges are thinned
    map-side (per-batch distinct) — full dedup would cost an extra
    all-to-all for no semantic gain."""
    import warnings

    import pyarrow.compute as pc

    from ray.data.aggregate import Min, Sum

    from ..functions.relational import hash_join

    def _mat(ds: ray.data.Dataset, n: int) -> ray.data.Dataset:
        return ds.repartition(resolve_n_blocks(n)).materialize()

    def _ingest(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column("src"), pa.int64())
        d = pc.cast(batch.column("dst"), pa.int64())
        t = pa.table({"src": s, "dst": d}).filter(pc.not_equal(s, d))
        # map-side thinning of parallel edges
        return t.group_by(["src", "dst"]).aggregate([]) \
            if t.num_rows else t

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "scc_id": pa.array([], pa.int64())})
    if edges.schema() is None:
        return ray.data.from_arrow(empty)
    e = _mat(edges.map_batches(_ingest, batch_format="pyarrow"),
             est_rows or 0)

    def _col(ds, src_col, out_col):
        return ds.map_batches(
            lambda t, _s=src_col, _o=out_col: pa.table(
                {_o: pc.unique(t.column(_s))}),
            batch_format="pyarrow")

    nodes = (_col(e, "src", "node").union(_col(e, "dst", "node"))
             .groupby("node").aggregate(Min("node", alias_name="__m"))
             .map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow"))
    n_nodes = nodes.count()
    nodes = _mat(nodes, n_nodes)
    results: list[ray.data.Dataset] = []

    def _tag_own(ds):  # singleton SCCs: scc_id = node
        return ds.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "scc_id": t.column("node")}),
            batch_format="pyarrow")

    def _semi_nodes(dataset, key, keep, n_keep):
        keyed = keep.map_batches(
            lambda t, _k=key: pa.table({_k: t.column("node")}),
            batch_format="pyarrow")
        return hash_join(dataset, keyed, on=key, how="semi",
                         est_rows=max(n_keep, 1))

    peels = 0
    while n_nodes > 0:
        peels += 1
        if peels > max_peels:
            warnings.warn(
                f"scc: {n_nodes} nodes unresolved after {max_peels} "
                "peels; labels for them are omitted", RuntimeWarning)
            break
        # ---- trim fixpoint: need BOTH an in- and an out-edge --------
        while n_nodes > 0:
            alive = _semi_nodes(
                _semi_nodes(nodes, "node",
                            _col(e, "src", "node"), n_nodes),
                "node", _col(e, "dst", "node"), n_nodes)
            n_alive = alive.count()
            if n_alive == n_nodes:
                break
            dead = hash_join(nodes, alive.map_batches(
                lambda t: pa.table({"node": t.column("node")}),
                batch_format="pyarrow"), on="node", how="anti",
                est_rows=max(n_nodes, 1))
            results.append(_tag_own(dead).materialize())
            nodes, n_nodes = _mat(alive, n_alive), n_alive
            if n_nodes:
                e = _mat(
                    hash_join(
                        hash_join(e, nodes.map_batches(
                            lambda t: pa.table(
                                {"src": t.column("node")}),
                            batch_format="pyarrow"), on="src",
                            how="semi", est_rows=max(n_nodes, 1)),
                        nodes.map_batches(
                            lambda t: pa.table(
                                {"dst": t.column("node")}),
                            batch_format="pyarrow"), on="dst",
                        how="semi", est_rows=max(n_nodes, 1)),
                    n_nodes)
        if n_nodes == 0:
            break
        # ---- forward min-label coloring to fixpoint -----------------
        labels = _mat(nodes.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "color": t.column("node")}),
            batch_format="pyarrow"), n_nodes)
        prev_sum = None
        for _ in range(max_rounds):
            by_src = labels.map_batches(
                lambda t: pa.table({"src": t.column("node"),
                                    "color": t.column("color")}),
                batch_format="pyarrow")
            cand = hash_join(e, by_src, on="src", how="inner",
                             est_rows=max(n_nodes, 1)).map_batches(
                lambda t: pa.table({
                    "node": pc.cast(t.column("dst"), pa.int64(),
                                    safe=True),
                    "color": pc.cast(t.column("color"), pa.int64(),
                                     safe=True)}),
                batch_format="pyarrow")
            labels = _mat(
                labels.union(cand).groupby("node")
                .aggregate(Min("color", alias_name="color")), n_nodes)
            s = labels.aggregate(Sum("color"))["sum(color)"]
            if prev_sum is not None and s == prev_sum:
                break
            prev_sum = s
        else:
            warnings.warn("scc: coloring hit max_rounds before "
                          "fixpoint; components may split",
                          RuntimeWarning)
        # ---- color edges once; keep same-color edges ----------------
        lab_src = labels.map_batches(
            lambda t: pa.table({"src": t.column("node"),
                                "c_src": t.column("color")}),
            batch_format="pyarrow")
        lab_dst = labels.map_batches(
            lambda t: pa.table({"dst": t.column("node"),
                                "c_dst": t.column("color")}),
            batch_format="pyarrow")
        ce = hash_join(hash_join(e, lab_src, on="src", how="inner",
                                 est_rows=max(n_nodes, 1)),
                       lab_dst, on="dst", how="inner",
                       est_rows=max(n_nodes, 1))
        ce = _mat(ce.map_batches(
            lambda t: pa.table({
                "src": pc.cast(t.column("src"), pa.int64(), safe=True),
                "dst": pc.cast(t.column("dst"), pa.int64(), safe=True),
            }).filter(pc.equal(
                pc.cast(t.column("c_src"), pa.int64(), safe=True),
                pc.cast(t.column("c_dst"), pa.int64(), safe=True))),
            batch_format="pyarrow"), n_nodes)
        # ---- backward collect from each color root ------------------
        collected = _mat(labels.map_batches(
            lambda t: t.filter(pc.equal(t.column("node"),
                                        t.column("color"))).select(
                ["node", "color"]),
            batch_format="pyarrow"), n_nodes)
        n_coll = collected.count()
        for _ in range(max_rounds):
            by_dst = collected.map_batches(
                lambda t: pa.table({"dst": t.column("node"),
                                    "color": t.column("color")}),
                batch_format="pyarrow")
            back = hash_join(ce, by_dst, on="dst", how="inner",
                             est_rows=max(n_nodes, 1)).map_batches(
                lambda t: pa.table({
                    "node": pc.cast(t.column("src"), pa.int64(),
                                    safe=True),
                    "color": pc.cast(t.column("color"), pa.int64(),
                                     safe=True)}),
                batch_format="pyarrow")
            collected = _mat(
                collected.union(back).groupby("node")
                .aggregate(Min("color", alias_name="color")), n_nodes)
            n_new = collected.count()
            if n_new == n_coll:
                break
            n_coll = n_new
        else:
            warnings.warn("scc: backward collect hit max_rounds before "
                          "fixpoint; components may split",
                          RuntimeWarning)
        results.append(collected.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "scc_id": t.column("color")}),
            batch_format="pyarrow").materialize())
        # ---- peel off the resolved members ---------------------------
        done = collected.map_batches(
            lambda t: pa.table({"node": t.column("node")}),
            batch_format="pyarrow")
        nodes = hash_join(nodes, done, on="node", how="anti",
                          est_rows=max(n_nodes, 1))
        n_nodes = nodes.count()
        nodes = _mat(nodes, max(n_nodes, 1))
        if n_nodes:
            e = _mat(
                hash_join(
                    hash_join(e, nodes.map_batches(
                        lambda t: pa.table({"src": t.column("node")}),
                        batch_format="pyarrow"), on="src", how="semi",
                        est_rows=max(n_nodes, 1)),
                    nodes.map_batches(
                        lambda t: pa.table({"dst": t.column("node")}),
                        batch_format="pyarrow"), on="dst", how="semi",
                    est_rows=max(n_nodes, 1)),
                n_nodes)

    if not results:
        return ray.data.from_arrow(empty)
    out = results[0]
    for r in results[1:]:
        out = out.union(r)
    return _mat(out, out.count())


def msf_boruvka(
    edges: ray.data.Dataset,
    est_rows: int | None = None,
    max_rounds: int = 32,
) -> ray.data.Dataset:
    """Minimum spanning forest by distributed Borůvka — the classic
    log-round parallel MST: every component picks its minimum incident
    cross edge under the GLOBAL total order ``(w, a, b)`` (ties thereby
    globally distinct, so the forest is unique and deterministic at any
    parallelism), chosen edges merge components, repeat until no cross
    edge remains.  Returns the forest's ``(a, b, w)`` edges.

    Distributed shape per round: two hash_joins color the edge list
    with endpoint components; candidate (component, edge) rows reduce
    to one winner per component in a hash-BUCKET map_groups (per-key
    groups would pay pandas overhead per component — CLAUDE.md rule);
    winners dedupe by (a, b); the chosen pairs' component graph — a
    pseudoforest, possibly chain-shaped — collapses via the exact
    ``dedup.connected_components``, and one left join relabels every
    node.  O(log n) outer rounds; every iterative
    dataset re-materializes at a size-derived block count.

    Undirected semantics: edges normalize to (min, max) endpoints and
    thin map-side to the per-batch min weight per pair; self-loops
    drop.  Weights must be int64."""
    import warnings

    import pyarrow.compute as pc

    from ray.data.aggregate import Min

    from ..functions.dedup import connected_components
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def _mat(ds: ray.data.Dataset, n: int) -> ray.data.Dataset:
        return ds.repartition(resolve_n_blocks(max(n, 1))).materialize()

    def _ingest(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column("src"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        d = pc.cast(batch.column("dst"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        w = pc.cast(batch.column("w"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        keep = a != b
        df = (pd.DataFrame({"a": a[keep], "b": b[keep], "w": w[keep]})
              .groupby(["a", "b"], as_index=False).min())
        return pd_to_arrow(df)

    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())})
    if edges.schema() is None:
        return ray.data.from_arrow(empty)
    e = _mat(edges.map_batches(_ingest, batch_format="pyarrow"),
             est_rows or 0)

    nodes = (e.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays([
            t.column("a").combine_chunks(),
            t.column("b").combine_chunks()])}),
        batch_format="pyarrow")
        .groupby("node").aggregate(Min("node", alias_name="__m"))
        .map_batches(lambda t: t.select(["node"]),
                     batch_format="pyarrow"))
    n_nodes = nodes.count()
    labels = _mat(nodes.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "comp": t.column("node")}),
        batch_format="pyarrow"), n_nodes)

    forest: list[ray.data.Dataset] = []
    for _ in range(max_rounds):
        la = labels.map_batches(
            lambda t: pa.table({"a": t.column("node"),
                                "ca": t.column("comp")}),
            batch_format="pyarrow")
        lb = labels.map_batches(
            lambda t: pa.table({"b": t.column("node"),
                                "cb": t.column("comp")}),
            batch_format="pyarrow")
        ce = hash_join(hash_join(e, la, on="a", how="inner",
                                 est_rows=max(n_nodes, 1)),
                       lb, on="b", how="inner",
                       est_rows=max(n_nodes, 1)).map_batches(
            lambda t: pa.table({
                "a": pc.cast(t.column("a"), pa.int64(), safe=True),
                "b": pc.cast(t.column("b"), pa.int64(), safe=True),
                "w": pc.cast(t.column("w"), pa.int64(), safe=True),
                "ca": pc.cast(t.column("ca"), pa.int64(), safe=True),
                "cb": pc.cast(t.column("cb"), pa.int64(), safe=True),
            }).filter(pc.not_equal(
                pc.cast(t.column("ca"), pa.int64(), safe=True),
                pc.cast(t.column("cb"), pa.int64(), safe=True))),
            batch_format="pyarrow")
        ce = _mat(ce, n_nodes)
        if ce.count() == 0:
            break

        def both_dirs(t: pa.Table) -> pa.Table:
            cols = {c: pa.concat_arrays([
                t.column(c).combine_chunks(),
                t.column(c).combine_chunks()]) for c in
                ("a", "b", "w", "ca", "cb")}
            comp = pa.concat_arrays([t.column("ca").combine_chunks(),
                                     t.column("cb").combine_chunks()])
            cols["comp"] = comp
            out = pa.table(cols)
            return out.append_column(
                "__bucket",
                pa.array((out.column("comp").to_numpy(
                    zero_copy_only=False) % 64).astype(np.int32)))

        def min_per_comp(g: pd.DataFrame):
            g = (g.sort_values(["comp", "w", "a", "b"],
                               kind="mergesort")
                 .drop_duplicates("comp", keep="first"))
            return pd_to_arrow(g[["a", "b", "w", "ca", "cb"]]
                               .reset_index(drop=True))

        chosen = (ce.map_batches(both_dirs, batch_format="pyarrow")
                  .groupby("__bucket")
                  .map_groups(lambda g: min_per_comp(
                      g.drop(columns="__bucket")),
                      batch_format="pandas")
                  .groupby(["a", "b", "w"])
                  .aggregate(Min("ca", alias_name="ca"),
                             Min("cb", alias_name="cb")))
        chosen = _mat(chosen, n_nodes)
        forest.append(chosen.map_batches(
            lambda t: t.select(["a", "b", "w"]),
            batch_format="pyarrow").materialize())

        # NOTE Min(ca)/Min(cb) above only dedupes identical rows — an
        # edge chosen by both endpoint comps carries the same (ca, cb)
        cc = connected_components(
            chosen.map_batches(lambda t: t.select(["ca", "cb"]),
                               batch_format="pyarrow"),
            "ca", "cb", max_rounds=64)
        relab = cc.map_batches(
            lambda t: pa.table({"comp": t.column("doc_id"),
                                "newc": t.column("component")}),
            batch_format="pyarrow")
        labels = hash_join(labels, relab, on="comp", how="left",
                           est_rows=max(n_nodes, 1)).map_batches(
            lambda t: pa.table({
                "node": pc.cast(t.column("node"), pa.int64(),
                                safe=True),
                "comp": pc.cast(pc.coalesce(t.column("newc"),
                                            t.column("comp")),
                                pa.int64(), safe=True)}),
            batch_format="pyarrow")
        labels = _mat(labels, n_nodes)
    else:
        warnings.warn("msf_boruvka: max_rounds exhausted with cross "
                      "edges remaining; forest may be incomplete",
                      RuntimeWarning)

    if not forest:
        return ray.data.from_arrow(empty)
    out = forest[0]
    for f in forest[1:]:
        out = out.union(f)
    return _mat(out, out.count())


def maximal_matching(
    edges: ray.data.Dataset,
    est_rows: int | None = None,
    max_rounds: int = 32,
) -> ray.data.Dataset:
    """Greedy maximum-weight maximal matching by distributed
    local-dominant rounds (Hoepman): each round every vertex nominates
    its best incident edge under the GLOBAL total order
    (w DESC, a ASC, b ASC); an edge nominated by BOTH endpoints is
    locally dominant and joins the matching, matched vertices drop with
    all their edges, repeat.  With the total order making all edge
    priorities distinct, the result is EXACTLY the serial greedy
    matching (sort by priority, take an edge iff both endpoints are
    still free) — deterministic at any parallelism; pinned against
    that serial reference in tests.  The matching primitive backs
    dedup-pair collapsing and one-to-one record linkage.

    Distributed shape per round: edges emit both directions tagged
    with a hash(node) bucket; per-node best is a vectorized sort +
    keep-first inside hash-BUCKET map_groups (never per-key groups);
    dominance is one (a, b) groupby counting nominations; matched
    vertices remove their edges via two anti hash_joins.  Every
    iterative dataset re-materializes at a size-derived block count
    (CLAUDE.md rule).  Adversarial chains (monotone weights along a
    path) need Θ(path) rounds — ``max_rounds`` caps with a warning.

    Undirected: endpoints normalize to (min, max), self-loops drop,
    duplicate pairs thin map-side to their MAX weight.  Weights int64.
    """
    import warnings

    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def _mat(ds: ray.data.Dataset, n: int) -> ray.data.Dataset:
        return ds.repartition(resolve_n_blocks(max(n, 1))).materialize()

    def _ingest(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column("src"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        d = pc.cast(batch.column("dst"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        w = pc.cast(batch.column("w"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        keep = a != b
        df = (pd.DataFrame({"a": a[keep], "b": b[keep], "w": w[keep]})
              .groupby(["a", "b"], as_index=False).max())
        return pd_to_arrow(df)

    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())})
    if edges.schema() is None:
        return ray.data.from_arrow(empty)
    e = edges.map_batches(_ingest, batch_format="pyarrow")
    n_e = est_rows or e.count()
    e = _mat(e, n_e)

    matched_parts: list[ray.data.Dataset] = []
    done = False
    for _ in range(max_rounds):
        n_e = e.count()
        if n_e == 0:
            done = True
            break

        def both_dirs(t: pa.Table) -> pa.Table:
            a = t.column("a").combine_chunks()
            b = t.column("b").combine_chunks()
            w = t.column("w").combine_chunks()
            node = pa.concat_arrays([a, b])
            na = pa.concat_arrays([a, a])
            nb = pa.concat_arrays([b, b])
            ww = pa.concat_arrays([w, w])
            bk = (node.to_numpy(zero_copy_only=False) % 64) \
                .astype(np.int32)
            return pa.table({"node": node, "a": na, "b": nb, "w": ww,
                             "__bucket": pa.array(bk)})

        def per_node_best(g: pd.DataFrame):
            g = g.drop(columns=["__bucket"]).sort_values(
                ["node", "w", "a", "b"],
                ascending=[True, False, True, True], kind="mergesort")
            g = g.drop_duplicates("node", keep="first")
            return pd_to_arrow(g[["a", "b", "w"]])

        nominated = (e.map_batches(both_dirs, batch_format="pyarrow")
                     .groupby("__bucket")
                     .map_groups(per_node_best, batch_format="pandas"))
        dominant = (nominated.groupby(["a", "b", "w"])
                    .aggregate(Count(alias_name="c"))
                    .map_batches(
                        lambda t: t.filter(
                            pc.equal(t.column("c"), 2))
                        .select(["a", "b", "w"]),
                        batch_format="pyarrow"))
        n_m = dominant.count()
        if n_m == 0:
            # no locally-dominant edge can only mean no edges remain
            done = True
            break
        dominant = _mat(dominant, n_m)
        matched_parts.append(dominant)

        nodes = dominant.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays([
                t.column("a").combine_chunks(),
                t.column("b").combine_chunks()])}),
            batch_format="pyarrow")
        for side in ("a", "b"):
            e = hash_join(
                e.map_batches(
                    lambda t, _s=side: t.append_column(
                        "node", t.column(_s)),
                    batch_format="pyarrow"),
                nodes, on="node", how="anti",
                est_rows=max(n_e, 1)).map_batches(
                    lambda t: t.select(["a", "b", "w"]),
                    batch_format="pyarrow")
        e = _mat(e, n_e)

    if not done:
        warnings.warn("maximal_matching: max_rounds exhausted with "
                      "edges remaining; matching may be incomplete",
                      RuntimeWarning)
    if not matched_parts:
        return ray.data.from_arrow(empty)
    out = matched_parts[0]
    for m in matched_parts[1:]:
        out = out.union(m)
    return _mat(out, out.count())


def greedy_coloring(
    edges: ray.data.Dataset,
    mis_rounds: int = 3,
    max_layers: int = 16,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Distributed graph coloring by LAYERED Luby MIS — the classic
    reduction (Luby 1986): layer c runs ``luby_mis`` on the residual
    graph, every MIS member (plus every residual-isolated node) takes
    color c, colored nodes and their incident edges drop, repeat.  MIS
    independence makes every layer conflict-free, so the coloring is
    PROPER by construction at any parallelism; determinism inherits
    from luby_mis's content-hash priorities.  The symmetry-breaking
    scheduler primitive (conflict-free parallel updates, lock-free
    batch rounds).

    Returns (node, color); if ``max_layers`` is exhausted with nodes
    left (adversarially slow shrink), the leftovers return color −1
    with a warning — callers must treat −1 as "schedule separately".
    Per layer: one luby_mis (key-partitioned joins) + two anti
    hash_joins; iterative datasets re-materialize at size-derived
    block counts."""
    import warnings

    import pyarrow.compute as pc

    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def _mat(ds: ray.data.Dataset, n: int) -> ray.data.Dataset:
        return ds.repartition(resolve_n_blocks(n)).materialize()

    def _pairs(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column("src"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        d = pc.cast(batch.column("dst"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = s != d
        df = (pd.DataFrame({"src": s[keep], "dst": d[keep]})
              .drop_duplicates())
        return pd_to_arrow(df)

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "color": pa.array([], pa.int64())})
    if edges.schema() is None:
        return ray.data.from_arrow(empty)
    residual = edges.map_batches(_pairs, batch_format="pyarrow")
    n_e = residual.count()
    if n_e == 0:
        return ray.data.from_arrow(empty)
    residual = _mat(residual, n_e)

    def endpoints(ds: ray.data.Dataset) -> ray.data.Dataset:
        return (ds.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays([
                t.column("src").combine_chunks(),
                t.column("dst").combine_chunks()])}),
            batch_format="pyarrow")
            .groupby("node").count()
            .map_batches(lambda t: t.select(["node"]),
                         batch_format="pyarrow"))

    remaining = _mat(endpoints(residual), n_e)
    colored: list[ray.data.Dataset] = []
    for c in range(max_layers):
        n_rem = remaining.count()
        if n_rem == 0:
            break
        n_e = residual.count()
        if n_e == 0:
            colored.append(remaining.map_batches(
                lambda t, _c=c: pa.table({
                    "node": pc.cast(t.column("node"), pa.int64()),
                    "color": pa.array(np.full(t.num_rows, _c,
                                              np.int64))}),
                batch_format="pyarrow"))
            remaining = ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.int64())}))
            break
        mis_nodes = luby_mis(residual, max_rounds=mis_rounds,
                             est_rows=2 * n_e).map_batches(
            lambda t: t.select(["node"]), batch_format="pyarrow")
        isolated = hash_join(remaining, endpoints(residual),
                             on="node", how="anti",
                             est_rows=max(n_rem, 1))
        layer = _mat(mis_nodes.union(isolated), n_rem)
        colored.append(layer.map_batches(
            lambda t, _c=c: pa.table({
                "node": pc.cast(t.column("node"), pa.int64()),
                "color": pa.array(np.full(t.num_rows, _c, np.int64))}),
            batch_format="pyarrow"))
        remaining = _mat(hash_join(remaining, layer, on="node",
                                   how="anti",
                                   est_rows=max(n_rem, 1)), n_rem)
        for side in ("src", "dst"):
            residual = hash_join(
                residual.map_batches(
                    lambda t, _s=side: t.append_column(
                        "node", t.column(_s)),
                    batch_format="pyarrow"),
                layer, on="node", how="anti",
                est_rows=max(n_e, 1)).map_batches(
                    lambda t: t.select(["src", "dst"]),
                    batch_format="pyarrow")
        residual = _mat(residual, n_e)

    if remaining.count():
        warnings.warn("greedy_coloring: max_layers exhausted; leftover "
                      "nodes returned with color -1", RuntimeWarning)
        colored.append(remaining.map_batches(
            lambda t: pa.table({
                "node": pc.cast(t.column("node"), pa.int64()),
                "color": pa.array(np.full(t.num_rows, -1, np.int64))}),
            batch_format="pyarrow"))
    if not colored:
        return ray.data.from_arrow(empty)
    out = colored[0]
    for part in colored[1:]:
        out = out.union(part)
    return _mat(out, out.count())


def label_propagation(
    edges: ray.data.Dataset,
    n_rounds: int = 3,
    est_rows: int | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Synchronous label-propagation community detection (LPA): every
    node starts in its own community (label = node id); each round every
    node simultaneously adopts the most frequent label among its
    NEIGHBORS, breaking frequency ties toward the SMALLEST label — the
    classic near-linear community detector (Raghavan et al. 2007),
    deterministic here by construction (no random visit order).

    Round-synchronous ⇒ exactly reproducible by an SQL oracle unrolled
    to the same ``n_rounds`` (the kcore/luby contract): each round's
    labels depend only on the previous round's, so both sides agree at
    any unroll depth, converged or not.

    Distributed shape: adjacency = distinct (node, nbr) both
    orientations, built once and materialized (rounds re-read it; an
    un-materialized lineage re-executes geometrically).  Per round ONE
    key-partitioned hash join ships each neighbor's current label to
    its target node, then the per-node mode runs inside hash-BUCKET
    ``map_groups`` with a vectorized pandas reducer — per-bucket work,
    never per-key pandas groups (the million-key groupby rule), and the
    label table is re-partitioned small before it feeds the next
    round's join (tiny-block fan-in disease).  Only (node, label) pairs
    shuffle; payloads never do.  Returns (node, community) after
    ``n_rounds``.
    """
    from ..functions.relational import hash_join
    from ..schema import pd_to_arrow

    def explode(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({
            "node": pa.array(np.concatenate([s, d])),
            "nbr": pa.array(np.concatenate([d, s])),
        })

    adj = (edges.map_batches(explode, batch_format="pyarrow")
           .groupby(["node", "nbr"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow").materialize())
    n_adj = adj.count()
    n_blocks = resolve_n_blocks(n_adj)
    adj = adj.repartition(n_blocks).materialize()
    if est_rows is None:
        est_rows = n_adj

    def init_labels(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = pc.cast(batch.column("node"), pa.int64())
        return pa.table({"node": n, "label": n})

    labels = (adj.groupby("node").count()
              .map_batches(init_labels, batch_format="pyarrow")
              .repartition(n_blocks).materialize())

    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = pc.cast(batch.column("dst"), pa.int64(), safe=False)
        return pa.table({
            "dst": d,
            "label": pc.cast(batch.column("label"), pa.int64(),
                             safe=False),
            "__bucket": pc.cast(
                pc.bit_wise_and(d, pa.scalar(n_buckets - 1, pa.int64())),
                pa.int32()),
        })

    def mode_per_node(g: pd.DataFrame) -> pa.Table:
        cnt = g.groupby(["dst", "label"], as_index=False).size()
        cnt = cnt.sort_values(["dst", "size", "label"],
                              ascending=[True, False, True],
                              kind="mergesort")
        top = cnt.drop_duplicates("dst", keep="first")
        return pd_to_arrow(pd.DataFrame({
            "node": top["dst"].to_numpy(np.int64),
            "label": top["label"].to_numpy(np.int64)}))

    for _ in range(n_rounds):
        # message (dst <- label of nbr): join adjacency's nbr column
        # against the label table's node key
        msgs = hash_join(
            adj.map_batches(lambda t: t.rename_columns(["dst", "node"]),
                            batch_format="pyarrow"),
            labels, on="node", est_rows=est_rows)
        labels = (msgs.map_batches(add_bucket, batch_format="pyarrow")
                  .groupby("__bucket")
                  .map_groups(mode_per_node, batch_format="pandas")
                  .repartition(n_blocks).materialize())

    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "community": t.column("label")}),
        batch_format="pyarrow")


def cc_pointer_doubling(
    edges: ray.data.Dataset,
    n_rounds: int | None = 4,
    est_rows: int | None = None,
    max_rounds: int = 32,
) -> ray.data.Dataset:
    """Connected components by hash-to-min with POINTER DOUBLING, the
    distributed plan of ``functions.dedup.connected_components``.  Each
    round has two synchronized steps:

    1. neighbor-min: ``m(v) = min(l(v), min_{u in N(v)} l(u))`` — one
       label-shipping hash join + a Min groupby (own label rides the
       same reduce as an extra message row, no second join);
    2. pointer jump: ``l'(v) = m(m(v))`` — one self-join of the label
       table (labels are node ids, so ``m(v)`` is always a valid key).

    Propagation distance doubles per round, so a component of diameter
    d closes in O(log d) rounds.  With ``n_rounds=k`` exactly k rounds
    run: round-synchronous ⇒ the unrolled SQL oracle agrees at any
    depth, converged or not (the kcore contract).  With
    ``n_rounds=None`` the rounds run to convergence: the same Min reduce
    carries each node's previous label (label rows old=label, message
    rows old=+inf), and a distributed Sum of ``m(v) != l(v)`` flags
    stops the loop once a neighbor-min step moves no label — then every
    edge joins equal labels, so each label is its component's min id.
    Still changing after ``max_rounds`` raises ``RuntimeError``.

    Self-loops drop.  Returns (node, component)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Min

    from ..functions.relational import hash_join

    def explode(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({
            "node": pa.array(np.concatenate([s, d])),
            "nbr": pa.array(np.concatenate([d, s])),
        })

    adj = (edges.map_batches(explode, batch_format="pyarrow")
           .groupby(["node", "nbr"]).count()
           .map_batches(lambda t: t.drop_columns(["count()"]),
                        batch_format="pyarrow").materialize())
    n_adj = adj.count()
    if n_adj == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64())}))
    n_blocks = resolve_n_blocks(n_adj)
    adj = adj.repartition(n_blocks).materialize()
    if est_rows is None:
        est_rows = n_adj

    def own_min(batch: pa.Table) -> pa.Table:
        lab = pc.min_element_wise(
            pc.cast(batch.column("node"), pa.int64()),
            pc.cast(batch.column("label"), pa.int64()))
        return pa.table({"node": pc.cast(batch.column("node"), pa.int64()),
                         "label": lab})

    labels = (adj.groupby("node").aggregate(Min("nbr", alias_name="label"))
              .map_batches(own_min, batch_format="pyarrow")
              .repartition(n_blocks).materialize())

    def with_old(batch: pa.Table) -> pa.Table:
        return batch.append_column("old", batch.column("label"))

    def as_msgs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc.cast(batch.column("nbr"), pa.int64(), safe=False),
            "label": pc.cast(batch.column("label"), pa.int64(), safe=False),
            "old": pa.array(np.full(batch.num_rows, _I64MAX, np.int64))})

    def changed(batch: pa.Table) -> pa.Table:
        return pa.table({"changed": pc.cast(pc.not_equal(
            batch.column("label"), batch.column("old")), pa.int64())})

    def as_ptr(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": batch.column("node"),
            "node": pc.cast(batch.column("label"), pa.int64(), safe=False)})

    def unjump(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc.cast(batch.column("v"), pa.int64(), safe=False),
            "label": pc.cast(batch.column("label"), pa.int64(),
                             safe=False)})

    for _ in range(max_rounds if n_rounds is None else n_rounds):
        # step 1: neighbor-min (own label unioned into the same reduce)
        msgs = hash_join(adj, labels, on="node", est_rows=est_rows) \
            .map_batches(as_msgs, batch_format="pyarrow")
        m = (labels.map_batches(with_old, batch_format="pyarrow")
             .union(msgs).groupby("node")
             .aggregate(Min("label", alias_name="label"),
                        Min("old", alias_name="old"))
             .repartition(n_blocks).materialize())
        if n_rounds is None and not m.map_batches(
                changed, batch_format="pyarrow").sum("changed"):
            break
        # step 2: pointer jump l'(v) = m(m(v)) — join on the label key
        jumped = hash_join(m.map_batches(as_ptr, batch_format="pyarrow"),
                           m, on="node", est_rows=est_rows)
        labels = (jumped.map_batches(unjump, batch_format="pyarrow")
                  .repartition(n_blocks).materialize())
    else:
        if n_rounds is None:
            raise RuntimeError(
                f"cc_pointer_doubling: labels still changing after "
                f"max_rounds={max_rounds}; raise max_rounds")

    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "component": t.column("label")}),
        batch_format="pyarrow")
