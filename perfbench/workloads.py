"""The workloads: inputs, one round of timed operations, output checks,
and the traced per-layer pass.

A round is the unit the harness repeats: every run attempts whole rounds,
so the share of failed operations is the same in every run.
``kg_bulk`` and ``corpus_dedup`` are the benchmark's workloads (listed in
BENCHMARK.json); ``kg_shards`` runs only when named (see README.md).
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

import checks
import inputs
import layers

#: pages of the one large ``kg_bulk`` corpus, and the Parquet files it is
#: written to
BULK_PAGES = 3000
BULK_FILES = 4
#: ``kg_shards``: small shards of one corpus, and the shards the resume
#: pass finds rewritten (same bytes, new mtime)
SHARD_PAGES = 100
N_SHARDS = 2
REWRITTEN = ["shard-000"]
#: pages of the minimal input (warm pass and ``pipelines.kg.fixed_s``)
MIN_PAGES = 8
#: documents of each dedup corpus.  The 64-bit-id corpus fails at 1,000,
#: 1,400 and 1,999 documents; an earlier generator's did not at 600.  Do not
#: shrink it below the size where the fault shows
DEDUP_DOCS = 1000
DEDUP_BLOCKS = 4
#: seed of the 64-bit-id corpus: fixed, so its known failure does not
#: depend on ``--seed``
WIDE_SEED = 20240601
#: inputs of the probes a traced run adds for layers its workload does not
#: drive
PROBE_PAGES = 200
PROBE_DOCS = 300


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Op:
    """One timed operation: its work, wall time and outcome."""

    def __init__(self, docs: int, seconds: float, failed: bool = False,
                 known_fault: bool = False, **extra):
        self.docs, self.seconds = docs, seconds
        self.failed, self.known_fault = failed, known_fault
        self.extra = extra


def train():
    """``train_model`` on the training corpus (disjoint entity ranges)."""
    import ray.data as rd

    from stanford_re_ray.pipelines.train import train_model

    tc = inputs.train_corpus()
    return train_model(rd.from_arrow(tc.pages), tc.kb, dicts=tc.dicts,
                       clusters=tc.clusters, negative_subsample=1.0,
                       epochs=inputs.TRAIN_EPOCHS)


def kg_run(paths, corpus, model) -> dict:
    """One ``run_kg_pipeline`` with every output collected."""
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import dataset_to_table, run_kg_pipeline

    res = run_kg_pipeline(rd.read_parquet(paths), model, dicts=corpus.dicts,
                          clusters=corpus.clusters)
    return {k: dataset_to_table(res[k]) for k in ("triples", "nodes", "edges")}


def read_partitions(out_dir: str, table: str, pids=None) -> pa.Table:
    base = os.path.join(out_dir, table)
    parts = [pq.read_table(os.path.join(base, p, "data.parquet"))
             for p in sorted(os.listdir(base))
             if pids is None or p.split("=", 1)[1] in pids]
    return pa.concat_tables(parts, promote_options="default")


def check_partitions(out_dir: str, gold: pa.Table | None) -> str:
    """Edges of each partition against its own triples and nodes; quality
    over the union when ``gold`` is given.  Returns the digest of all
    triples."""
    base = os.path.join(out_dir, "triples")
    for part in sorted(os.listdir(base)):
        pid = part.split("=", 1)[1]
        checks.check_edges(*(read_partitions(out_dir, t, [pid])
                             for t in ("triples", "nodes", "edges")))
    triples = read_partitions(out_dir, "triples")
    if gold is not None:
        checks.check_quality(triples, gold)
    return checks.triples_digest(triples)


def checkpointed_round(shards: list[str], model, corpus, out: str,
                       gold: pa.Table | None) -> dict:
    """A first ``run_kg_checkpointed`` pass into a fresh ``out``, then a
    resume pass after the ``REWRITTEN`` shard files are rewritten with the
    same bytes.  Checks both passes; returns their wall times, the resume
    result and the triples digest."""
    from stanford_re_ray.state.checkpoint import run_kg_checkpointed

    def run():
        return run_kg_checkpointed(shards, model, out, dicts=corpus.dicts,
                                   clusters=corpus.clusters)

    pids = [os.path.splitext(os.path.basename(p))[0] for p in shards]
    t0 = time.perf_counter()
    first = run()
    first_s = time.perf_counter() - t0
    if first["failed"] or sorted(first["processed"]) != pids:
        raise checks.CheckFailed(f"first pass processed {first['processed']}"
                                 f", failed {first['failed']}")
    digest = check_partitions(out, gold)
    before = checks.partition_files(out)
    for path, pid in zip(shards, pids):
        if pid in REWRITTEN:
            inputs.rewrite_same_bytes(path)
    t0 = time.perf_counter()
    resumed = run()
    resume_s = time.perf_counter() - t0
    checks.check_resume(resumed, REWRITTEN, pids, before,
                        checks.partition_files(out))
    if check_partitions(out, gold) != digest:
        raise checks.CheckFailed("resume changed the triples")
    return {"first_s": first_s, "resume_s": resume_s, "resumed": resumed,
            "digest": digest, "skip_scan": run}


class Workload:
    name = ""

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.digest = None

    def same_digest(self, digest: str) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise checks.CheckFailed("triples digest changed between "
                                     f"repetitions: {digest} != {self.digest}")

    def setup(self) -> None:
        """Inputs and model: timed as part of ``setup_s``."""
        raise NotImplementedError

    def warm(self) -> None:
        """One pass of the operation on a minimal input, before the rounds."""
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def metrics(self, ops: list[Op]) -> dict:
        """End-to-end figures of this run's operations: name → (value,
        unit)."""
        return {"docs_per_s": (statistics.median(o.docs / o.seconds
                                                 for o in ops), "1/s")}

    def trace(self, ops: list[Op]) -> dict:
        raise NotImplementedError

    # probes for layers a workload does not drive itself
    def kg_inputs(self, n_pages: int, tag: str):
        pages, corpus = inputs.kg_corpus(n_pages, self.seed)
        paths = inputs.write_shards(pages, os.path.join(self.work, tag),
                                    BULK_FILES)
        mini = inputs.write_shards(pages.slice(0, MIN_PAGES),
                                   os.path.join(self.work, tag + "_min"), 1)
        return pages, corpus, paths, mini

    def probe_checkpoint(self, model) -> dict:
        """One minimal shard through a first pass, a rewrite and a resume
        (each shard costs a full pipeline run, so one keeps a traced run
        well inside its time limit)."""
        pages, corpus = inputs.kg_corpus(MIN_PAGES, self.seed)
        shards = inputs.write_shards(
            pages, os.path.join(self.work, "probe_shards"), 1)
        out = os.path.join(self.work, "probe_ckpt")
        r = checkpointed_round(shards, model, corpus, out, None)
        return layers.checkpoint_layers(out, r["skip_scan"], r["resumed"])

    def probe_dedup(self) -> dict:
        table, expected = inputs.dedup_corpus(PROBE_DOCS, self.seed)
        return layers.dedup_layers(table, expected, DEDUP_BLOCKS)


class KgBulk(Workload):
    """One ``run_kg_pipeline`` over one large corpus read from Parquet."""

    name = "kg_bulk"

    def setup(self) -> None:
        self.model = train()
        self.pages, self.corpus, self.paths, self.mini = self.kg_inputs(
            BULK_PAGES, "bulk")

    def warm(self) -> None:
        kg_run(self.mini, self.corpus, self.model)

    def round(self) -> list[Op]:
        t0 = time.perf_counter()
        out = kg_run(self.paths, self.corpus, self.model)
        op = Op(self.pages.num_rows, time.perf_counter() - t0)
        self.same_digest(checks.check_kg(out["triples"], out["nodes"],
                                         out["edges"], self.corpus.gold))
        return [op]

    def trace(self, ops):
        m, out = layers.kg_layers(self.paths, self.corpus, self.model,
                                  self.mini)
        self.same_digest(checks.check_kg(out["triples"], out["nodes"],
                                         out["edges"], self.corpus.gold))
        m["trace.overhead_s"] = out["traced_total_s"] - statistics.median(
            o.seconds for o in ops)
        m.update(self.probe_checkpoint(self.model))
        m.update(self.probe_dedup())
        m.update(layers.relational_layers(self.seed))
        return m


class KgShards(Workload):
    """``run_kg_checkpointed`` over small shards, then a resume pass after a
    fixed subset of shard files is rewritten.  Not in BENCHMARK.json: one
    round costs ~31 s of per-shard fixed cost on one CPU, and its single
    resume sample per run spread 8–16 s under host CPU steal."""

    name = "kg_shards"

    def setup(self) -> None:
        self.model = train()
        pages, self.corpus = inputs.kg_corpus(SHARD_PAGES * N_SHARDS,
                                              self.seed)
        self.n_pages = pages.num_rows
        self.shards = inputs.write_shards(
            pages, os.path.join(self.work, "shards"), N_SHARDS)
        self.mini = inputs.write_shards(
            pages.slice(0, MIN_PAGES), os.path.join(self.work, "min"), 1)
        self.n_op = 0

    def warm(self) -> None:
        kg_run(self.mini, self.corpus, self.model)

    def round(self) -> list[Op]:
        if self.n_op:
            shutil.rmtree(self.last_out)
        self.n_op += 1
        self.last_out = os.path.join(self.work, f"out{self.n_op}")
        r = checkpointed_round(self.shards, self.model, self.corpus,
                               self.last_out, self.corpus.gold)
        self.same_digest(r["digest"])
        self.last = r
        return [Op(self.n_pages, r["first_s"], resume_s=r["resume_s"])]

    def metrics(self, ops):
        return dict(super().metrics(ops), resume_s=(statistics.median(
            o.extra["resume_s"] for o in ops), "s"))

    def trace(self, ops):
        m = layers.checkpoint_layers(self.last_out, self.last["skip_scan"],
                                     self.last["resumed"])
        # the unit of work here is one shard: trace the first one
        m_kg, out = layers.kg_layers(self.shards[:1], self.corpus,
                                     self.model, self.mini)
        m.update(m_kg)
        first = os.path.splitext(os.path.basename(self.shards[0]))[0]
        want = checks.triples_digest(
            read_partitions(self.last_out, "triples", [first]))
        if checks.triples_digest(out["triples"]) != want:
            raise checks.CheckFailed("traced triples differ from the "
                                     "checkpointed shard's")
        checks.check_edges(out["triples"], out["nodes"], out["edges"])
        m["trace.overhead_s"] = (out["traced_total_s"]
                                 - m["state.checkpoint.shard_s"])
        m.update(self.probe_dedup())
        m.update(layers.relational_layers(self.seed))
        return m


class CorpusDedup(Workload):
    """``dedup_corpus`` over two corpora with planted near-duplicate
    clusters: one keyed by sequential ids (from ``--seed``), one by 64-bit
    ids ≥ 2^60 (fixed)."""

    name = "corpus_dedup"

    def setup(self) -> None:
        self.seq, self.seq_expected = inputs.dedup_corpus(DEDUP_DOCS,
                                                          self.seed)
        self.wide, self.wide_expected = inputs.dedup_corpus(
            DEDUP_DOCS, WIDE_SEED, id_base=inputs.WIDE_ID_BASE)
        self.mini, self.mini_expected = inputs.dedup_corpus(
            PROBE_DOCS, self.seed + 1)

    def _dedup(self, table: pa.Table) -> list[int]:
        import ray.data as rd

        from stanford_re_ray.functions.dedup import dedup_corpus

        per = -(-table.num_rows // DEDUP_BLOCKS)
        ds = rd.from_arrow([table.slice(o, per)
                            for o in range(0, table.num_rows, per)])
        kept = dedup_corpus(ds, threshold=0.8)
        return [d for b in kept.iter_batches(batch_format="pyarrow",
                                             batch_size=None)
                for d in b.column("doc_id").to_pylist()]

    def warm(self) -> None:
        checks.check_survivors(self._dedup(self.mini), self.mini_expected)

    def round(self) -> list[Op]:
        ops = []
        for table, expected, wide in ((self.seq, self.seq_expected, False),
                                      (self.wide, self.wide_expected, True)):
            t0 = time.perf_counter()
            got = self._dedup(table)
            op = Op(table.num_rows, time.perf_counter() - t0,
                    known_fault=wide)
            try:
                checks.check_survivors(got, expected)
            except checks.CheckFailed as e:
                if not wide:
                    raise
                op.failed = True
                log(f"corpus_dedup: 64-bit-id corpus failed: {e}. Cause: "
                    "functions.relational.hash_join pads both join sides "
                    "into one table and passes int64 payloads >= 2^53 "
                    "through float64, so connected_components labels are "
                    "corrupted")
            ops.append(op)
        return ops

    def trace(self, ops):
        m = layers.dedup_layers(self.seq, self.seq_expected, DEDUP_BLOCKS)
        staged = sum(m[k] for k in ("functions.dedup.lsh_s",
                                    "functions.dedup.verify_s",
                                    "functions.dedup.components_s",
                                    "functions.dedup.filter_s"))
        m["trace.overhead_s"] = staged - statistics.median(
            o.seconds for o in ops if not o.known_fault)
        m.update(layers.relational_layers(self.seed))
        # KG layers this workload does not drive: a small corpus of its own
        model = train()
        _, corpus, paths, mini = self.kg_inputs(PROBE_PAGES, "probe_kg")
        m_kg, out = layers.kg_layers(paths, corpus, model, mini)
        checks.check_kg(out["triples"], out["nodes"], out["edges"],
                        corpus.gold)
        m.update(m_kg)
        m.update(self.probe_checkpoint(model))
        return m


WORKLOADS = {w.name: w for w in (KgBulk, KgShards, CorpusDedup)}
