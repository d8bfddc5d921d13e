"""The flagship KG-construction pipeline — SURVEY.md §7.1's eight stages as
one lazy Ray Data graph.

    pages ─S1 extract─► docs ─S2 nlp (actor pool)─► sentences
          ─S3+S4 mentions+pairs+features (fused, sentence-local)─► pairs
          ─S5 mention scoring (broadcast compact weights)─► scored mentions
          ─S6 bag reduce + S7 unary filter + per-entity greedy (kg_tail:
               ONE shuffle, keyed by entity hash)─► triples
          ─S8 canonicalize + noisy-OR edge merge (driver-side below
               SMALL_GRAPH_THRESHOLD triples; above it two shuffles:
               blocked + salted names, then (src, pred, dst))─► nodes / edges

One entry point for every model: ``triples_stage`` builds S1–S7 as one
lazy Dataset, ``run_kg_pipeline`` materializes it and runs S8.  The
model's type picks S5 and S6 (``_score``: LR, Hoffmann or MIML-RE); a
``config.PipelineConfig`` sets every other knob.

Everything streams: no full materialization until the triples.  The only
wide operations are groupbys keyed on *extracted* records (pairs/triples ≪
pages — SURVEY.md §7.5 scale posture).  The hash-bucketed shuffles (S6/S7,
the S8 edge merge) are each one ``relational.bucket_reduce``.  The S6/S7
one is Arrow end to end: bag partials merge in one sort-and-segment kernel
(``classify.merge_partials``), the greedy walks one sorted list of row
dicts per bucket, no per-entity DataFrame.  ``bag_stage`` and
``consistency_stage`` run S6 and S7 as separate shuffles, for stage-level
measurement and tests; they share their combiner, reducers and entity key
with ``kg_tail``.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import pyarrow as pa

import ray
import ray.data

from ..config import PipelineConfig
from ..functions.relational import bucket_reduce, hash_join
from ..schema import EDGES, NODES, TRIPLES, conform
from ..stages import canonicalize as canon
from ..stages.classify import (ENTITY_KEY, HoffmannModel, HoffmannScorer,
                               LRModel, MentionScorer, bag_reduce_bucket,
                               hoffmann_bag_reduce, partial_bag_combine)
from ..stages.consistency import (MAX_SLOT_LEN, greedy_consistency_bucket,
                                  unary_filter_batch)
from ..stages.extract import extract_batch, filter_lang
from ..stages.miml import (MimlModel, miml_bag_combine, miml_bag_reducer,
                           miml_score_stage)
from ..stages.nlp import Dictionaries, NlpAnnotator
from ..stages.pairs import PairFeaturizer


#: batch_size for every map stage in the fused S1–S5 chain.  batch_size
#: doubles as Ray Data's ``min_rows_per_bundled_input``, and on a FUSED
#: task chain the LARGEST stage value wins — one stage asking for 1024
#: rows coalesced a 4,000-page bench into 4 tasks on a 32-CPU node
#: (measured 2.7x slower than 64).  64 pages ≈ 50–100 ms of S1–S5 work
#: per task: fine-grained enough for small inputs, and at real scale it
#: never splits or coalesces the reader's large parquet blocks — it only
#: chunks the per-task UDF calls.
MAP_BATCH_SIZE = 64


def extract_stage(pages: ray.data.Dataset, lang: str = "en") -> ray.data.Dataset:
    """S1: html → text (frozen extractor), language filter, drop html."""
    docs = pages.map_batches(extract_batch, batch_format="pyarrow",
                             batch_size=MAP_BATCH_SIZE)
    if lang:
        docs = docs.map_batches(
            lambda t, _lang=lang: filter_lang(t, _lang),
            batch_format="pyarrow", batch_size=MAP_BATCH_SIZE,
        )
    return docs


def default_pool_size() -> tuple[int, int]:
    """Autoscaling bounds for the NLP actor pool: ~3/4 of cluster CPUs.

    An actor pool does not release idle actors while its operator is open;
    a pool whose max ≥ cluster CPUs can hold every CPU and starve the
    downstream sort/groupby tasks (observed deadlock: 4-CPU cluster, pool
    scaled to 4 actors, `ray status` showed 4.0/4.0 CPU used + 1 pending
    task forever).  Leaving ≥ 1/4 of CPUs for task pools keeps the
    streaming executor live at any cluster size.
    """
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return (1, max(1, cpus - max(1, cpus // 4)))


def nlp_stage(
    docs: ray.data.Dataset,
    dicts: Dictionaries | None = None,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = MAP_BATCH_SIZE,
    mode: str = "tasks",
    max_sentences: int = 512,
) -> ray.data.Dataset:
    """S2: the NLP annotation stage.

    ``mode="tasks"`` (default): an ``NlpAnnotator`` INSTANCE (dictionaries
    compiled once on the driver) runs as an elastic task pool; worker
    processes cache the deserialized state across tasks.  Right whenever
    per-worker state is megabytes and cheap to build — it fuses with the
    adjacent map stages into one task chain and never pins CPUs.

    ``mode="actors"``: the classic actor pool
    (``map_batches(NlpAnnotator, concurrency=(1, N))``) — the CoreNLP-style
    mapping for GENUINELY heavy state (multi-GB models, minutes-long
    loads), where per-task deserialization would dominate.  Sized to ~3/4
    of cluster CPUs (see ``default_pool_size``) so the pool cannot starve
    the shuffle operators.
    """
    if mode == "tasks":
        return docs.map_batches(
            NlpAnnotator(dicts if dicts is not None else None,
                         max_sentences=max_sentences),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    if concurrency is None:
        concurrency = default_pool_size()
    dicts_ref = ray.put(dicts) if dicts is not None else None
    return docs.map_batches(
        NlpAnnotator,
        fn_constructor_kwargs={"dicts_ref": dicts_ref,
                               "max_sentences": max_sentences},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def pairs_stage(
    sentences: ray.data.Dataset,
    clusters: dict[str, str] | None = None,
    batch_size: int = MAP_BATCH_SIZE,
    max_pair_distance: int | None = None,
    max_sent_tokens: int | None = None,
    kb_fills: dict | None = None,
) -> ray.data.Dataset:
    """S3+S4 fused: mentions + pair generation + features (sentence-local).

    Stateless TASK pool (an instance, not the class): cheap init + elastic
    scheduling.  Only the NLP stage holds real per-actor state; extra
    actor pools pin min-actors and can starve the all-to-all operators on
    small clusters (observed deadlock at num_cpus=4 with 3 chained pools).

    ``kb_fills`` (train path): subj_lower → fills map from
    ``stages.pairs.kb_fills_lookup``, broadcast once; enables KB-known
    slot matching with alternate values inside pair generation.
    """
    from ..stages import pairs as pairs_mod

    clusters_ref = ray.put(clusters) if clusters is not None else None
    kb_fills_ref = ray.put(kb_fills) if kb_fills else None
    return sentences.map_batches(
        PairFeaturizer(
            clusters_ref,
            max_pair_distance=(max_pair_distance
                               if max_pair_distance is not None
                               else pairs_mod.MAX_PAIR_DISTANCE),
            max_sent_tokens=(max_sent_tokens if max_sent_tokens is not None
                             else pairs_mod.MAX_SENT_TOKENS),
            kb_fills_ref=kb_fills_ref,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def score_stage(pairs: ray.data.Dataset, model: LRModel,
                keep_threshold: float = 0.5) -> ray.data.Dataset:
    """S5: per-mention classification; broadcasts the model's compact
    ``(dims, Wc, bias)`` view (~0.2 MB, not the 42 MB dense matrix), fetched
    once per worker process.  Drops non-relation mentions before the bag
    shuffle."""
    return pairs.map_batches(
        MentionScorer(ray.put(model.compact()), keep_threshold=keep_threshold),
        batch_format="pyarrow",
        batch_size=MAP_BATCH_SIZE,
    )


def bag_stage(scored: ray.data.Dataset, n_buckets: int | None = None,
              est_rows: int | None = None, bag_reduce=bag_reduce_bucket,
              combine=partial_bag_combine) -> ray.data.Dataset:
    """S6 on its own: bag formation + label aggregation
    (Featurizer.java:38-70 / OneVsAllRelationExtractor.classifyRelations).

    A map-side ``combine`` (fused into the scorer's task chain) collapses
    each batch to one row per (pair, rel); one shuffle keyed by entity
    moves the partials and ``bag_reduce``
    (``bag_reduce_bucket``, ``hoffmann_bag_reduce`` or a
    ``miml_bag_reducer``; Arrow group → Arrow typed as ``schema.TRIPLES``)
    merges them per bucket.  Quantized int64 scores
    keep every merge associative → bit-identical results at any
    parallelism.  ``kg_tail`` runs the same reduce fused with S7.

    ``n_buckets`` is size-derived when an ``est_rows`` (expected scored
    mentions) hint is given — bucket count is output-invariant here
    because every merge is associative, so scaling it only widens the
    reduce."""
    return bucket_reduce(scored.map_batches(combine, batch_format="pyarrow"),
                         ENTITY_KEY, bag_reduce, n_buckets=n_buckets,
                         est_rows=est_rows)


def consistency_stage(triples: ray.data.Dataset,
                      n_buckets: int | None = None,
                      city_to_country: dict[str, str] | None = None,
                      max_slot_len: int | None = None,
                      enforce_cardinality: bool = True,
                      enforce_incompatibilities: bool = True,
                      extra_pass=None,
                      gibbs_mixing_time: int | None = None,
                      est_rows: int | None = None,
                      ) -> ray.data.Dataset:
    """S7 on its own: unary filters/rewrites map-side, then entity-local
    greedy consistency (bucketed by entity; greedy remains
    per-entity inside; optional gazetteer geo-consistency via
    ``city_to_country``; optional ``extra_pass`` = pass-2 chain, e.g.
    ``consistency.pass2_chain()``).  ``n_buckets`` size-derived from
    ``est_rows`` (candidate triples) when given; bucketing is by subject
    hash so any count is output-invariant."""
    msl = max_slot_len if max_slot_len is not None else MAX_SLOT_LEN
    return bucket_reduce(
        triples.map_batches(partial(unary_filter_batch, max_slot_len=msl),
                            batch_format="pyarrow"),
        ENTITY_KEY,
        partial(greedy_consistency_bucket, city_to_country=city_to_country,
                enforce_cardinality=enforce_cardinality,
                enforce_incompatibilities=enforce_incompatibilities,
                extra_pass=extra_pass, gibbs_mixing_time=gibbs_mixing_time),
        n_buckets=n_buckets, est_rows=est_rows)


def kg_tail(scored: ray.data.Dataset, bag_reduce=bag_reduce_bucket,
            combine=partial_bag_combine, n_buckets: int | None = None,
            est_rows: int | None = None, max_slot_len: int | None = None,
            **greedy) -> ray.data.Dataset:
    """S6 + S7 in ONE shuffle: scored mentions → consistent TRIPLES.

    The bag partials are bucketed by entity (``ENTITY_KEY``), and
    PAIR_KEY starts with the entity, so one bucket holds every bag of each
    of its entities.  One ``map_groups`` then runs, per bucket, the bag
    reduce (``bag_reduce``: ``bag_reduce_bucket``, ``hoffmann_bag_reduce``
    or a ``miml_bag_reducer``, with its matching ``combine``), the unary
    filter and the per-entity greedy pass (``greedy``: the
    ``consistency_stage`` options) — the reference's per-query-entity
    classifyRelations + HeuristicSlotfillPostProcessor.  Output equals
    ``consistency_stage(bag_stage(scored))`` row for row, typed as
    ``schema.TRIPLES``."""
    msl = max_slot_len if max_slot_len is not None else MAX_SLOT_LEN

    def reduce(g: pa.Table) -> pa.Table:
        return greedy_consistency_bucket(
            unary_filter_batch(bag_reduce(g), msl), **greedy)

    return bucket_reduce(scored.map_batches(combine, batch_format="pyarrow"),
                         ENTITY_KEY, reduce, n_buckets=n_buckets,
                         est_rows=est_rows)


def _names_of_triples(batch: pa.Table) -> pa.Table:
    subj = pa.table(
        {"name": batch.column("subj"), "type": batch.column("subj_type")}
    )
    obj = pa.table({"name": batch.column("obj"), "type": batch.column("obj_type")})
    return pa.concat_tables([subj, obj])


def nodes_stage(
    triples: ray.data.Dataset, n_salt: int = 1, max_cluster: int = 150
) -> ray.data.Dataset:
    """S8a: entity canonicalization — shuffle #4, key = blocking key.

    ``n_salt > 1`` splits each block by a hash of the *full* normalized
    surface, so identical surfaces always colocate and only near-duplicate
    linking across salt buckets is (knowingly) given up on hot keys —
    the skew guardrail of SURVEY.md §7.4.
    """
    from ray.data.aggregate import Count

    names = triples.map_batches(_names_of_triples, batch_format="pyarrow")
    counted = names.groupby(["name", "type"]).aggregate(Count(alias_name="n_mentions"))

    def add_block(batch: pa.Table) -> pa.Table:
        import zlib

        keys = []
        for name, etype in zip(
            batch.column("name").to_pylist(), batch.column("type").to_pylist()
        ):
            bk = canon.block_key(name, etype)
            if n_salt > 1:
                salt = zlib.crc32(canon.normalize_surface(name).encode()) % n_salt
                bk = f"{bk}#{salt}"
            keys.append(bk)
        return batch.append_column("block", pa.array(keys, pa.string()))

    blocked = counted.map_batches(add_block, batch_format="pyarrow")
    return blocked.groupby("block").map_groups(
        lambda g: canon.link_cluster(g, max_cluster=max_cluster),
        batch_format="pandas",
    )


def edges_stage(
    triples: ray.data.Dataset, name_to_id: dict[tuple[str, str], str]
) -> ray.data.Dataset:
    """S8b: name→id resolution + noisy-OR edge merge — shuffle #3, key =
    (src, pred, dst).

    ``name_to_id`` is broadcast (ray.put) — fine while the node table fits a
    worker (fixtures/bench).  Scale path at 10^12 docs: replace the
    broadcast with a hash join of triples against the exploded
    nodes.members table on (name, type).
    """
    ref = ray.put(name_to_id)

    class Resolve:
        def __init__(self):
            self._ref = ref

        @property
        def m(self):
            from ..state.broadcast import fetch

            return fetch(self._ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            src = [
                self.m.get((n, t), canon.entity_id(n, t))
                for n, t in zip(
                    batch.column("subj").to_pylist(),
                    batch.column("subj_type").to_pylist(),
                )
            ]
            dst = [
                self.m.get((n, t), canon.entity_id(n, t))
                for n, t in zip(
                    batch.column("obj").to_pylist(),
                    batch.column("obj_type").to_pylist(),
                )
            ]
            return pa.table(
                {
                    "src_id": pa.array(src, pa.string()),
                    "pred": batch.column("pred"),
                    "dst_id": pa.array(dst, pa.string()),
                    "score": batch.column("score"),
                    "doc_id": batch.column("doc_id"),
                    "sent_idx": batch.column("sent_idx"),
                }
            )

    resolved = triples.map_batches(Resolve(), batch_format="pyarrow")

    return merge_edges(resolved)


def merge_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Noisy-OR edge merge (``canon.noisy_or_merge_bucket``) in one
    shuffle keyed by ``canon.EDGE_KEY`` — S8b's merge, and the re-merge
    after graph operators add derived edges."""
    return bucket_reduce(edges, canon.EDGE_KEY, canon.noisy_or_merge_bucket,
                         batch_format="pandas")


def explode_node_members(nodes: ray.data.Dataset) -> ray.data.Dataset:
    """nodes (entity_id, type, members) → one (name, type, entity_id) row
    per member surface — the join side of the scale-path name resolution."""

    def explode(batch: pa.Table) -> pa.Table:
        names, types, eids = [], [], []
        for eid, etype, members in zip(
            batch.column("entity_id").to_pylist(),
            batch.column("type").to_pylist(),
            batch.column("members").to_pylist(),
        ):
            for name in members:
                names.append(name)
                types.append(etype)
                eids.append(eid)
        return pa.table(
            {
                "name": pa.array(names, pa.string()),
                "type": pa.array(types, pa.string()),
                "entity_id": pa.array(eids, pa.string()),
            }
        )

    return nodes.map_batches(explode, batch_format="pyarrow")


def edges_stage_join(
    triples: ray.data.Dataset, nodes: ray.data.Dataset
) -> ray.data.Dataset:
    """S8b scale path: name→id resolution as TWO hash joins of the triples
    against the exploded nodes.members table on (name, type) — no broadcast
    of the node map, so it holds when the node table outgrows a worker.
    Same output as ``edges_stage`` (the noisy-OR merge is shared)."""
    members = explode_node_members(nodes)
    members_src = members.map_batches(
        lambda b: b.rename_columns(["name", "type", "src_id"]),
        batch_format="pyarrow",
    )
    members_dst = members.map_batches(
        lambda b: b.rename_columns(["name", "type", "dst_id"]),
        batch_format="pyarrow",
    )

    def subj_key(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "name": batch.column("subj"),
                "type": batch.column("subj_type"),
                "obj": batch.column("obj"),
                "obj_type": batch.column("obj_type"),
                "pred": batch.column("pred"),
                "score": batch.column("score"),
                "doc_id": batch.column("doc_id"),
                "sent_idx": batch.column("sent_idx"),
            }
        )

    with_src = hash_join(
        triples.map_batches(subj_key, batch_format="pyarrow"),
        members_src, on=["name", "type"], how="left",
    )

    def resolve_src(batch: pa.Table) -> pa.Table:
        src = [
            s if s is not None else canon.entity_id(n, t)
            for s, n, t in zip(batch.column("src_id").to_pylist(),
                               batch.column("name").to_pylist(),
                               batch.column("type").to_pylist())
        ]
        return pa.table(
            {
                "name": batch.column("obj"),
                "type": batch.column("obj_type"),
                "pred": batch.column("pred"),
                "score": batch.column("score"),
                "doc_id": batch.column("doc_id"),
                "sent_idx": batch.column("sent_idx"),
                "src_id": pa.array(src, pa.string()),
            }
        )

    keyed_obj = with_src.map_batches(resolve_src, batch_format="pyarrow")
    with_dst = hash_join(keyed_obj, members_dst, on=["name", "type"],
                         how="left")

    def resolve_dst(batch: pa.Table) -> pa.Table:
        dst = [
            s if s is not None else canon.entity_id(n, t)
            for s, n, t in zip(batch.column("dst_id").to_pylist(),
                               batch.column("name").to_pylist(),
                               batch.column("type").to_pylist())
        ]
        return pa.table(
            {
                "src_id": batch.column("src_id"),
                "pred": batch.column("pred"),
                "dst_id": pa.array(dst, pa.string()),
                "score": batch.column("score"),
                "doc_id": batch.column("doc_id"),
                "sent_idx": batch.column("sent_idx"),
            }
        )

    resolved = with_dst.map_batches(resolve_dst, batch_format="pyarrow")

    return merge_edges(resolved)


def dataset_to_table(ds: ray.data.Dataset) -> pa.Table:
    """Collect a SMALL dataset into one Arrow table (driver-side).  Only for
    results that are provably small (nodes, aggregates, test outputs)."""
    import pandas as pd

    blocks = ray.get(ds.to_arrow_refs())
    tables = []
    for b in blocks:
        # groupby operators emit column-less EMPTY pandas blocks for
        # dataless partitions, and to_arrow_refs passes them through
        # unconverted — drop those, convert any non-empty pandas block
        if isinstance(b, pd.DataFrame):
            if len(b.columns) == 0:
                continue
            b = pa.Table.from_pandas(b, preserve_index=False)
        tables.append(b)
    if not tables:
        return pa.table({})
    # keep empty Arrow blocks: they carry the schema (to_pandas() on an
    # empty Dataset silently returns a column-less frame)
    return pa.concat_tables(tables, promote_options="default")


def name_map_from_nodes(nodes_tbl: pa.Table) -> dict[tuple[str, str], str]:
    """Explode nodes.members → (name, type) → entity_id lookup."""
    out: dict[tuple[str, str], str] = {}
    if "entity_id" not in nodes_tbl.column_names:
        return out
    for eid, etype, members in zip(
        nodes_tbl.column("entity_id").to_pylist(),
        nodes_tbl.column("type").to_pylist(),
        nodes_tbl.column("members").to_pylist(),
    ):
        for name in members:
            out[(name, etype)] = eid
    return out


#: ``schema.NODES`` plus the ``members`` surfaces the name map is built from
NODES_MEMBERS = pa.schema(list(NODES) + [("members", pa.list_(pa.string()))])


def _graph_small_path(triples_tbl: pa.Table, max_cluster: int = 150):
    """Driver-side S8 for small triple sets (same functions, no Ray
    operators): canonicalize + noisy-OR merge in-process.  Semantics are
    identical to nodes_stage/edges_stage — the group functions are shared —
    but skips ~7 streaming operators whose fixed latency dominates when the
    triple set is tiny relative to the corpus."""
    import pandas as pd

    if not triples_tbl.num_rows:  # zero triples extracted
        return NODES_MEMBERS.empty_table(), EDGES.empty_table()
    names = pd.DataFrame(
        {
            "name": triples_tbl.column("subj").to_pylist()
            + triples_tbl.column("obj").to_pylist(),
            "type": triples_tbl.column("subj_type").to_pylist()
            + triples_tbl.column("obj_type").to_pylist(),
        }
    )
    counted = names.groupby(["name", "type"], sort=True).size().rename(
        "n_mentions").reset_index()
    counted["block"] = [
        canon.block_key(n, t) for n, t in zip(counted["name"], counted["type"])
    ]
    parts = [
        canon.link_cluster(g, max_cluster=max_cluster)
        for _, g in counted.groupby("block", sort=True)
    ]
    nodes_tbl = conform(pa.Table.from_pandas(
        pd.concat(parts, ignore_index=True), preserve_index=False),
        NODES_MEMBERS)
    name_map = name_map_from_nodes(nodes_tbl)
    tdf = triples_tbl.to_pandas()
    tdf["src_id"] = [
        name_map.get((n, t), canon.entity_id(n, t))
        for n, t in zip(tdf["subj"], tdf["subj_type"])
    ]
    tdf["dst_id"] = [
        name_map.get((n, t), canon.entity_id(n, t))
        for n, t in zip(tdf["obj"], tdf["obj_type"])
    ]
    edges_tbl = canon.noisy_or_merge_bucket(
        tdf[["src_id", "pred", "dst_id", "score", "doc_id", "sent_idx"]]
    )
    return nodes_tbl, conform(edges_tbl, EDGES)


#: below this many triples, S8 runs driver-side (one process beats ~7
#: streaming operators of fixed latency); above it, the distributed
#: blocked/salted path runs.  Analogous to a broadcast-join threshold —
#: kept conservative (200k triples × wide columns ≈ tens of MB on the
#: driver; 2M was already ~GBs).
SMALL_GRAPH_THRESHOLD = 200_000

#: above this many NODE rows, edge name-resolution switches from the
#: ray.put broadcast map to the hash-join path (edges_stage_join) — the
#: node map must not be assumed to fit one worker at scale.
BROADCAST_NODE_LIMIT = 1_000_000


def _score(pairs: ray.data.Dataset, model, keep_threshold: float):
    """S5 for ``model``'s type, with the S6 bag reducer (and combiner)
    ``kg_tail`` needs for its scores — the ModelType switch
    (ModelType.java:12-92):

    - ``LRModel``: ``score_stage`` (p > ``keep_threshold``), summed bags;
    - ``HoffmannModel`` (AT_LEAST_ONCE): ``HoffmannScorer`` (argmax over
      averaged weights, NIL dropped, RAW unbounded scores as in
      classifyMentions) and ``hoffmann_bag_reduce``, a per-(pair, rel)
      MAX — the reference's deterministic-OR Y layer;
    - ``MimlModel`` (JOINT_BAYES): ``miml_score_stage`` and the y-layer
      bag reduce (InferentialSlotFiller)."""
    if isinstance(model, LRModel):
        return score_stage(pairs, model, keep_threshold=keep_threshold), {}
    if isinstance(model, HoffmannModel):
        return pairs.map_batches(HoffmannScorer(ray.put(model)),
                                 batch_format="pyarrow",
                                 batch_size=MAP_BATCH_SIZE), {
            "bag_reduce": hoffmann_bag_reduce}
    if isinstance(model, MimlModel):
        return miml_score_stage(pairs, model), {
            "bag_reduce": miml_bag_reducer(model), "combine": miml_bag_combine}
    raise TypeError(f"no relation scorer for a {type(model).__name__}: "
                    "expected an LRModel, HoffmannModel or MimlModel")


def triples_stage(
    pages: ray.data.Dataset,
    model,
    cfg: PipelineConfig | None = None,
    dicts: Dictionaries | None = None,
    clusters: dict[str, str] | None = None,
    rules=None,
) -> ray.data.Dataset:
    """S1–S7 as one lazy Dataset: pages → consistent TRIPLES, typed as
    ``schema.TRIPLES``.  ``model``'s type picks S5 and S6 (``_score``);
    ``cfg`` (``PipelineConfig()`` when None) sets the rest: language
    filter, NLP mode, pair caps, keep threshold, rule additions unioned
    into the bag input (``rules``, else ``DEFAULT_RULES`` —
    SimpleSlotFiller.java:257-279), within-sentence competition, the
    relation filter, S7's toggles and pass-2 chain, and the bucket
    count."""
    cfg = cfg or PipelineConfig()
    docs = extract_stage(pages, lang=cfg.lang)
    sentences = nlp_stage(docs, dicts, concurrency=cfg.nlp_concurrency,
                          mode=cfg.nlp_mode,
                          max_sentences=cfg.max_sentences_per_doc)
    pairs = pairs_stage(sentences,
                        clusters if cfg.use_cluster_features else None,
                        max_pair_distance=cfg.max_pair_distance,
                        max_sent_tokens=cfg.max_sent_tokens)
    scored, bags = _score(pairs, model, cfg.keep_threshold)
    if cfg.use_rules:
        from ..stages.rules import DEFAULT_RULES, RuleExtractor

        rule_hits = sentences.map_batches(
            RuleExtractor(rules or DEFAULT_RULES), batch_format="pyarrow"
        )
        scored = scored.union(rule_hits)
    if cfg.sentence_competition:
        from ..stages.rules import sentence_competition

        scored = scored.map_batches(sentence_competition,
                                    batch_format="pyarrow")
    if cfg.relation_filter_components:
        from ..stages.rules import relation_filter_stage

        scored = relation_filter_stage(scored,
                                       cfg.relation_filter_components,
                                       n_buckets=cfg.n_buckets,
                                       est_rows=cfg.est_rows)
    extra = None
    if cfg.entailment:
        from ..stages.consistency import GeoMaps, pass2_chain

        extra = pass2_chain(GeoMaps())
    return kg_tail(
        scored,
        **bags,
        n_buckets=cfg.n_buckets,
        est_rows=cfg.est_rows,
        max_slot_len=cfg.max_slot_len,
        enforce_cardinality=cfg.enforce_cardinality,
        enforce_incompatibilities=cfg.enforce_incompatibilities,
        extra_pass=extra,
        gibbs_mixing_time=(cfg.gibbs_mixing_time
                           if cfg.gibbs_objective == "sum" else None),
    )


def run_kg_pipeline(
    pages: ray.data.Dataset,
    model,
    cfg: PipelineConfig | None = None,
    dicts: Dictionaries | None = None,
    clusters: dict[str, str] | None = None,
    rules=None,
) -> dict[str, Any]:
    """Full pages → {triples, nodes, edges} run: ``triples_stage``, then
    S8 and the optional graph completion (``cfg.symmetrize``,
    ``cfg.add_inverses``).

    ``triples`` is returned materialized (it is the size anchor for the S8
    path choice); nodes/edges come back as Datasets either way.
    ``PipelineConfig(lang="")`` keeps every page — the right setting for
    sources without language metadata (WARC)."""
    cfg = cfg or PipelineConfig()
    triples = triples_stage(pages, model, cfg, dicts, clusters,
                            rules).materialize()
    graph = _graph_stage(triples, n_salt=cfg.n_salt,
                         max_cluster=cfg.max_cluster)
    edges = graph["edges"]
    if cfg.symmetrize:
        from .graph_ops import symmetrize

        edges = symmetrize(edges)
    if cfg.add_inverses:
        from .graph_ops import add_inverses

        edges = add_inverses(edges)
    return {"triples": triples, "nodes": graph["nodes"], "edges": edges}


def _graph_stage(triples: ray.data.Dataset, n_salt: int = 1,
                 max_cluster: int = 150) -> dict[str, ray.data.Dataset]:
    """S8 on materialized triples → {nodes, edges}: driver-side up to
    SMALL_GRAPH_THRESHOLD triples, else the distributed blocked/salted
    path, resolving names by broadcast map or, above
    BROADCAST_NODE_LIMIT nodes, by hash join."""
    import ray.data as rd

    if triples.count() <= SMALL_GRAPH_THRESHOLD:
        nodes_tbl, edges_tbl = _graph_small_path(dataset_to_table(triples),
                                                 max_cluster=max_cluster)
        return {"nodes": rd.from_arrow(nodes_tbl),
                "edges": rd.from_arrow(edges_tbl)}
    nodes = nodes_stage(triples, n_salt=n_salt,
                        max_cluster=max_cluster).materialize()
    if nodes.count() > BROADCAST_NODE_LIMIT:
        edges = edges_stage_join(triples, nodes)
    else:
        edges = edges_stage(triples,
                            name_map_from_nodes(dataset_to_table(nodes)))
    return {"nodes": nodes, "edges": edges}
