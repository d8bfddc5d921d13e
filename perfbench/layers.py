"""Per-layer measurements for the traced run.

Spans are taken here, around calls into each module's public functions,
and from the structured summary behind ``Dataset.stats()``; nothing is
added inside ``stanford_re_ray``.  Each function returns a flat dict of
metric name → value, named after the module that does the work.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib

import pyarrow as pa

import checks


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _stage(build):
    """Build a dataset and run it to the end: (dataset, rows, seconds).
    Building is timed too, since some operators execute eagerly."""
    t0 = time.perf_counter()
    out = build().materialize()
    return out, out.count(), time.perf_counter() - t0


def _batches(table: pa.Table, size: int):
    for off in range(0, table.num_rows, size):
        yield table.slice(off, size)


# --- Ray Data stats ----------------------------------------------------------

def _op_tree(ds) -> list:
    """Operator summaries of ``ds``'s execution, root (last operator) first,
    parents after their children."""
    out, todo = [], [ds._get_stats_summary()]
    while todo:
        s = todo.pop(0)
        out.extend(s.operators_stats)
        todo.extend(s.parents)
    return out


def stage_ops(out_ds, in_ds) -> list:
    """The operators that ran to produce ``out_ds`` from the materialized
    ``in_ds`` (the lineage ``in_ds`` already carries is left out)."""
    seen = {(o.operator_name, o.earliest_start_time) for o in _op_tree(in_ds)}
    return [o for o in _op_tree(out_ds)
            if (o.operator_name, o.earliest_start_time) not in seen]


def _span(ops) -> float:
    """Wall-clock time covered by the operators' [start, end] intervals."""
    iv = sorted((o.earliest_start_time, o.latest_end_time) for o in ops)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in iv:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def _tasks(ops) -> int:
    return int(sum((o.task_rows or {}).get("count", 0) for o in ops))


def _rows_out(op) -> int:
    return int((op.output_num_rows or {}).get("sum", 0))


def shuffle_split(ops) -> dict:
    """Split a shuffle stage's operators into the map side before the last
    exchange, the exchange (all-to-all sub-operators) and the reduce after
    it.  ``ops`` is root first, so the reduce comes before the last
    exchange in the list."""
    first_sub = next(i for i, o in enumerate(ops) if o.is_sub_operator)
    reduce_ops = ops[:first_sub]
    exchange = [o for o in ops[first_sub:] if o.is_sub_operator]
    map_side = [o for o in ops[first_sub:] if not o.is_sub_operator]
    return {"map": map_side, "exchange": exchange, "reduce": reduce_ops}


# --- KG stages S1–S8 ------------------------------------------------------

def kg_layers(page_paths, corpus, model, min_page_paths) -> tuple[dict, dict]:
    """S1–S8 each run alone and materialized, the S6/S7 step split from the
    stats, the single-process kernels on the same inputs, and one
    ``run_kg_pipeline`` on a minimal input, whose Ray tasks are counted.
    Returns (metrics, outputs)."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import resolve_n_buckets
    from stanford_re_ray.pipelines import kg
    from stanford_re_ray.stages.classify import (MentionScorer,
                                                 bag_reduce_bucket,
                                                 partial_bag_combine)
    from stanford_re_ray.stages.consistency import (greedy_consistency_bucket,
                                                    unary_filter_batch)
    from stanford_re_ray.stages.extract import extract_batch, filter_lang
    from stanford_re_ray.stages.nlp import NlpAnnotator
    from stanford_re_ray.stages.pairs import PairFeaturizer

    m: dict = {}
    t_all = time.perf_counter()
    pages, _, m["sources.read_s"] = _stage(
        lambda: rd.read_parquet(page_paths))
    docs, m["stages.extract.rows_out"], m["stages.extract.s"] = _stage(
        lambda: kg.extract_stage(pages))
    sents, m["stages.nlp.rows_out"], m["stages.nlp.s"] = _stage(
        lambda: kg.nlp_stage(docs, corpus.dicts))
    pairs, m["stages.pairs.rows_out"], m["stages.pairs.s"] = _stage(
        lambda: kg.pairs_stage(sents, corpus.clusters))
    scored, n_scored, m["stages.classify.score_s"] = _stage(
        lambda: kg.score_stage(pairs, model))
    m["stages.classify.score_rows_out"] = n_scored

    cands, n_cands, _ = _stage(lambda: kg.bag_stage(scored))
    ops = stage_ops(cands, scored)
    split = shuffle_split(ops)
    m["pipelines.kg.bag.combine_s"] = _span(split["map"])
    m["pipelines.kg.bag.exchange_s"] = _span(split["exchange"])
    m["pipelines.kg.bag.reduce_s"] = _span(split["reduce"])
    m["pipelines.kg.bag.tasks"] = _tasks(ops)
    m["pipelines.kg.bag.rows_in"] = n_scored
    m["pipelines.kg.bag.rows_out"] = n_cands
    combine = split["map"]          # root first: tree-combine before partial
    m["pipelines.kg.bag.combine_yield"] = (
        _rows_out(combine[0]) / max(1, _rows_out(combine[-1])))

    triples, n, _ = _stage(lambda: kg.consistency_stage(cands))
    ops = stage_ops(triples, cands)
    split = shuffle_split(ops)
    m["pipelines.kg.consistency.filter_s"] = _span(split["map"])
    m["pipelines.kg.consistency.exchange_s"] = _span(split["exchange"])
    m["pipelines.kg.consistency.reduce_s"] = _span(split["reduce"])
    m["pipelines.kg.consistency.tasks"] = _tasks(ops)
    m["pipelines.kg.consistency.rows_out"] = n

    t0 = time.perf_counter()
    triples_tbl = kg.dataset_to_table(triples)
    if triples_tbl.num_rows <= kg.SMALL_GRAPH_THRESHOLD:
        nodes_tbl, edges_tbl = kg._graph_small_path(triples_tbl)
    else:
        nodes_ds = kg.nodes_stage(triples).materialize()
        nodes_tbl = kg.dataset_to_table(nodes_ds)
        edges_tbl = kg.dataset_to_table(
            kg.edges_stage(triples, kg.name_map_from_nodes(nodes_tbl)))
    m["stages.canonicalize.s"] = time.perf_counter() - t0
    m["stages.canonicalize.nodes"] = nodes_tbl.num_rows
    m["stages.canonicalize.edges"] = edges_tbl.num_rows
    traced_total = time.perf_counter() - t_all

    # single-process kernels over the same rows, in the stages' batch size
    bs = kg.MAP_BATCH_SIZE
    pages_tbl = kg.dataset_to_table(pages)
    t0 = time.perf_counter()
    docs_tbl = pa.concat_tables(
        [filter_lang(extract_batch(b), "en") for b in _batches(pages_tbl, bs)])
    m["stages.extract.kernel_s"] = time.perf_counter() - t0
    annot = NlpAnnotator(corpus.dicts)
    sents_tbl, m["stages.nlp.kernel_s"] = _timed(
        lambda: pa.concat_tables([annot(b) for b in _batches(docs_tbl, bs)]))
    feat = PairFeaturizer(corpus.clusters)
    pairs_tbl, m["stages.pairs.kernel_s"] = _timed(
        lambda: pa.concat_tables([feat(b) for b in _batches(sents_tbl, bs)]))
    scorer = MentionScorer(model)
    scored_tbl, m["stages.classify.score_kernel_s"] = _timed(
        lambda: pa.concat_tables([scorer(b) for b in _batches(pairs_tbl, bs)]))

    n_buckets = resolve_n_buckets(None, None)
    partials = pa.concat_tables(
        [partial_bag_combine(b.to_pandas(), n_buckets)
         for b in _batches(scored_tbl, 1024)]).to_pandas()
    groups = [g for _, g in partials.groupby("__bucket", sort=True)]
    cand_parts, m["stages.classify.bag_reduce_kernel_s"] = _timed(
        lambda: [bag_reduce_bucket(g) for g in groups])
    cand_tbl = unary_filter_batch(pa.concat_tables(cand_parts))
    cand_df = cand_tbl.to_pandas()
    cand_df["__bucket"] = [
        zlib.crc32(f"{s}\x00{t}".encode("utf-8", "surrogatepass")) % n_buckets
        for s, t in zip(cand_df["subj"], cand_df["subj_type"])]
    groups = [g for _, g in cand_df.groupby("__bucket", sort=True)]
    _, m["stages.consistency.kernel_s"] = _timed(
        lambda: [greedy_consistency_bucket(g, None) for g in groups])

    t0 = time.perf_counter()
    res = kg.run_kg_pipeline(rd.read_parquet(min_page_paths), model,
                             dicts=corpus.dicts, clusters=corpus.clusters)
    for key in ("triples", "nodes", "edges"):
        kg.dataset_to_table(res[key])
    m["pipelines.kg.fixed_s"] = time.perf_counter() - t0
    m["pipelines.kg.tasks"] = _tasks(_op_tree(res["triples"]))
    return m, {"triples": triples_tbl, "nodes": nodes_tbl, "edges": edges_tbl,
               "traced_total_s": traced_total}


# --- checkpointed shards ----------------------------------------------------

def checkpoint_layers(out_dir: str, skip_scan, resume_result: dict) -> dict:
    """Checkpoint-layer figures of a finished resume pass in ``out_dir``:
    the program's own manifests, the bytes it wrote, one pass with no
    shard changed (``skip_scan`` runs it), and the write path timed by
    rewriting the same tables through ``CheckpointManager``."""
    import pyarrow.parquet as pq

    from stanford_re_ray.state.checkpoint import CheckpointManager

    mgr = CheckpointManager(out_dir)
    m = {"state.checkpoint.shard_s": statistics.median(
        mm["wall_s"] for mm in mgr.manifests())}
    files = sorted(checks.partition_files(out_dir))
    m["state.checkpoint.write_mb"] = sum(
        os.path.getsize(os.path.join(out_dir, f, "data.parquet"))
        for f in files) / 1e6
    tables = [(f.split("/")[0], f.split("part=")[1],
               pq.read_table(os.path.join(out_dir, f, "data.parquet")))
              for f in files]
    probe = CheckpointManager(os.path.join(out_dir, "_write_probe"))
    t0 = time.perf_counter()
    for name, pid, tbl in tables:
        probe.write_table_atomic(tbl, name, pid)
    m["state.checkpoint.write_s"] = time.perf_counter() - t0
    scan, m["state.checkpoint.skip_scan_s"] = _timed(skip_scan)
    if scan["processed"] or scan["failed"]:
        raise checks.CheckFailed(
            f"unchanged shards reprocessed: {scan['processed']}")
    m["state.checkpoint.shards_processed"] = len(resume_result["processed"])
    m["state.checkpoint.shards_skipped"] = len(
        resume_result["completed_previously"])
    return m


# --- corpus dedup -------------------------------------------------------------

def dedup_layers(table: pa.Table, expected: list[int], n_blocks: int) -> dict:
    """The steps of ``dedup_corpus`` run one at a time on one corpus."""
    import ray.data as rd

    from stanford_re_ray.functions.dedup import (connected_components,
                                                 minhash_lsh_groups,
                                                 ngram_jaccard_pairs)
    from stanford_re_ray.functions.relational import semi_anti_filter

    def docs():
        return rd.from_arrow(list(_batches(
            table, -(-table.num_rows // n_blocks))))

    m: dict = {}
    # the pair step runs LSH itself; LSH alone is timed after it, warm, and
    # the verification is the difference
    pairs, n_pairs, pairs_s = _stage(
        lambda: ngram_jaccard_pairs(docs(), threshold=0.8))
    buckets, _, m["functions.dedup.lsh_s"] = _stage(
        lambda: minhash_lsh_groups(docs()))
    cand = set()
    for b in buckets.iter_batches(batch_format="pyarrow"):
        for ids in b.column("doc_ids").to_pylist():
            cand.update((a, c) for i, a in enumerate(ids) for c in ids[i + 1:])
    m["functions.dedup.candidate_pairs"] = len(cand)
    m["functions.dedup.verify_s"] = pairs_s - m["functions.dedup.lsh_s"]
    m["functions.dedup.verified_pairs"] = n_pairs
    m["functions.dedup.verify_yield"] = n_pairs / max(1, len(cand))
    comp, _, m["functions.dedup.components_s"] = _stage(
        lambda: connected_components(pairs))
    comp_tbl = pa.concat_tables(_tables(comp))
    labels = comp_tbl.column("component").to_pylist()
    m["functions.dedup.components"] = len(set(labels))
    losers = {d for d, c in zip(comp_tbl.column("doc_id").to_pylist(), labels)
              if d != c}
    kept, n_kept, m["functions.dedup.filter_s"] = _stage(
        lambda: semi_anti_filter(docs(), losers, "doc_id",
                                 keep_matching=False))
    m["functions.dedup.survivors"] = n_kept
    checks.check_survivors(
        [d for t in _tables(kept) for d in t.column("doc_id").to_pylist()],
        expected)
    return m


def _tables(ds) -> list[pa.Table]:
    return list(ds.iter_batches(batch_format="pyarrow", batch_size=None))


# --- relational ---------------------------------------------------------------

JOIN_LEFT_ROWS = 20_000
JOIN_RIGHT_ROWS = 5_000


def relational_layers(seed: int) -> dict:
    """One fixed-shape int-key ``hash_join`` with full-range int64 payloads
    (as content digests are), checked row by row against
    ``pyarrow.Table.join``."""
    import random

    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join

    rng = random.Random(seed)
    right = pa.table({
        "k": pa.array(range(JOIN_RIGHT_ROWS), pa.int64()),
        "r_payload": pa.array([rng.getrandbits(62) for _ in
                               range(JOIN_RIGHT_ROWS)], pa.int64())})
    left = pa.table({
        "k": pa.array([rng.randrange(JOIN_RIGHT_ROWS) for _ in
                       range(JOIN_LEFT_ROWS)], pa.int64()),
        "l_payload": pa.array([rng.getrandbits(62) for _ in
                               range(JOIN_LEFT_ROWS)], pa.int64())})
    t0 = time.perf_counter()
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right), on="k")
    got_tbl = pa.concat_tables(_tables(got.materialize()))
    m = {"functions.relational.hash_join_s": time.perf_counter() - t0}
    got_tbl = got_tbl.select(sorted(got_tbl.column_names))
    m["functions.relational.hash_join_wrong_rows"] = checks.join_wrong_rows(
        got_tbl, left, right, ["k"])
    return m
