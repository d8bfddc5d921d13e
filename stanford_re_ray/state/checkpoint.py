"""Per-partition checkpoint / resume with lineage + counters.

The reference's only resume mechanism is Postgres KV caches keyed by
query/datum (kbp/sf/common/PostgresUtils.java:167-743; toggles
Props.java:371-384).  The Ray-native replacement (SURVEY.md §4
"Checkpoint / resume"): each input shard is one PARTITION; every stage
output is written as Parquet under ``out_dir/<table>/part=<pid>/`` via an
atomic tmp-dir rename, and a manifest
``out_dir/_manifest/part-<pid>.json`` records

- the input **lineage fingerprint** (shard path + size + mtime, or a
  caller-provided content fingerprint) and the code versions that
  produced the output (extractor version, model fingerprint),
- **counters** (rows in/out per stage) for observability,
- wall time and status.

A resumed run recomputes only partitions whose manifest is missing or
whose fingerprint no longer matches — "any stage resumes without
reprocessing completed shards" at shard granularity.  Output is
partitioned Parquet (never one giant file), so downstream readers can
stream it shard by shard.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq


def file_fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"path": os.path.abspath(path), "size": st.st_size,
            "mtime_ns": st.st_mtime_ns}


@dataclass
class PartitionManifest:
    partition: str
    fingerprint: dict
    versions: dict
    counters: dict
    wall_s: float
    status: str = "complete"
    finished_at: float = 0.0


class CheckpointManager:
    """Manifest bookkeeping for one output root."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def _manifest_path(self, pid: str) -> str:
        return os.path.join(self.manifest_dir, f"part-{pid}.json")

    def completed(self, pid: str, fingerprint: dict, versions: dict) -> bool:
        """True iff this partition finished with the SAME input lineage and
        code versions."""
        p = self._manifest_path(pid)
        if not os.path.exists(p):
            return False
        try:
            with open(p) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            return False
        return (
            m.get("status") == "complete"
            and m.get("fingerprint") == fingerprint
            and m.get("versions") == versions
        )

    def record(self, m: PartitionManifest) -> None:
        m.finished_at = time.time()
        tmp = self._manifest_path(m.partition) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(m.__dict__, f, indent=1, sort_keys=True)
        os.replace(tmp, self._manifest_path(m.partition))

    def write_table_atomic(self, table: pa.Table, name: str, pid: str) -> str:
        """Write one partition of one logical table atomically
        (tmp dir → rename)."""
        final = os.path.join(self.out_dir, name, f"part={pid}")
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(table, os.path.join(tmp, "data.parquet"))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        return final

    def manifests(self) -> list[dict]:
        out = []
        for fn in sorted(os.listdir(self.manifest_dir)):
            if fn.startswith("part-") and fn.endswith(".json"):
                with open(os.path.join(self.manifest_dir, fn)) as f:
                    out.append(json.load(f))
        return out

    def counters_table(self) -> pa.Table:
        """All partitions' counters as one table (the stage-metrics side
        dataset)."""
        rows = []
        for m in self.manifests():
            row = {"partition": m["partition"], "status": m["status"],
                   "wall_s": m["wall_s"]}
            row.update({f"n_{k}": v for k, v in m.get("counters", {}).items()})
            rows.append(row)
        if not rows:
            return pa.table({"partition": pa.array([], pa.string())})
        keys = sorted({k for r in rows for k in r})
        return pa.table({k: [r.get(k) for r in rows] for k in keys})


def run_kg_checkpointed(
    shards: list[str],
    model,
    out_dir: str,
    dicts=None,
    clusters=None,
    partition_of: Callable[[str], str] | None = None,
    reader: Callable[[str], Any] | None = None,
    lang: str = "en",
) -> dict[str, Any]:
    """Checkpointed KG run over a list of pages-Parquet shards.

    Each shard is processed through the full pipeline independently and its
    triples/nodes/edges land in ``out_dir/<table>/part=<pid>/``.  Re-running
    with the same arguments skips every shard whose manifest matches; a
    changed shard file (size/mtime) or extractor/model version invalidates
    just that shard.

    Partition-level isolation also bounds failure blast radius: a poison
    shard fails alone and the run is re-submittable.

    ``reader`` maps a shard path to a pages Dataset (default Parquet;
    pass ``sources.warc.read_warc`` / ``read_pages_jsonl`` for crawl
    formats); ``lang=""`` disables the language filter for sources
    without language metadata.
    """
    import ray.data as rd

    from ..config import PipelineConfig
    from ..pipelines.kg import dataset_to_table, run_kg_pipeline
    from ..stages.extract import EXTRACTOR_VERSION

    mgr = CheckpointManager(out_dir)
    model_fp = f"lr:{int(model.weights.astype('float64').sum() * 1e6)}:" \
               f"{int((model.weights != 0).sum())}"
    versions = {"extractor": EXTRACTOR_VERSION, "model": model_fp}
    done, ran, failed = [], [], []
    for shard in shards:
        pid = (partition_of(shard) if partition_of
               else os.path.splitext(os.path.basename(shard))[0])
        fp = file_fingerprint(shard)
        if mgr.completed(pid, fp, versions):
            done.append(pid)
            continue
        t0 = time.time()
        try:
            pages = (reader(shard) if reader is not None
                     else rd.read_parquet(shard))
            n_pages = pages.count()
            res = run_kg_pipeline(pages, model, PipelineConfig(lang=lang),
                                  dicts=dicts, clusters=clusters)
            triples_tbl = dataset_to_table(res["triples"])
            nodes_tbl = dataset_to_table(res["nodes"])
            edges_tbl = dataset_to_table(res["edges"])
            if "members" in nodes_tbl.column_names:
                nodes_tbl = nodes_tbl.drop_columns(["members"])
            mgr.write_table_atomic(triples_tbl, "triples", pid)
            mgr.write_table_atomic(nodes_tbl, "nodes", pid)
            mgr.write_table_atomic(edges_tbl, "edges", pid)
            mgr.record(PartitionManifest(
                partition=pid,
                fingerprint=fp,
                versions=versions,
                counters={
                    "pages": n_pages,
                    "triples": triples_tbl.num_rows,
                    "nodes": nodes_tbl.num_rows,
                    "edges": edges_tbl.num_rows,
                },
                wall_s=round(time.time() - t0, 3),
            ))
            ran.append(pid)
        except Exception as e:  # poison shard: record failure, keep going
            mgr.record(PartitionManifest(
                partition=pid, fingerprint=fp, versions=versions,
                counters={}, wall_s=round(time.time() - t0, 3),
                status=f"failed: {type(e).__name__}: {e}",
            ))
            failed.append(pid)
    return {"completed_previously": done, "processed": ran, "failed": failed,
            "counters": mgr.counters_table()}
