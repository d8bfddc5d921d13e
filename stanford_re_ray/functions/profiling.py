"""Table profiling / audit operators.

- ``profile_table``: per-column row/null/EXACT-distinct counts, numeric
  min/max (timestamps as epoch-µs), lexicographic string min/max.  Two
  passes: a streaming partial-stats map (O(blocks × columns) tiny rows to
  the driver) and ONE shared (column, value) groupby for every column's
  exact distinct count — values canonicalize through Arrow's injective
  value→string cast so no per-column shuffle is needed.  At 100 TB swap
  the distinct pass for the HLL sketch (``functions.sketch``); exact is
  the small-table / audit mode.
- ``hot_keys``: top-k heaviest keys per candidate partition column with
  exact ppm row shares — run BEFORE choosing a shuffle key (the
  ``hash_join`` salting dial wants exactly this table; cf.
  ``relational.detect_hot_keys`` for the sampled in-flight variant).

Both are exposed as driver queries (q112/q125) and the ``profile`` CLI.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import pd_to_arrow
from .relational import bucket_reduce


def infer_spec(schema: pa.Schema) -> list[tuple[str, str]]:
    """Map an Arrow schema to (column, kind) pairs: num | ts | str.
    Unsupported types (nested lists, binary payloads) are skipped —
    profile what is scalar, leave the rest to typed operators."""
    spec = []
    for field in schema:
        t = field.type
        if pa.types.is_timestamp(t):
            spec.append((field.name, "ts"))
        elif (pa.types.is_integer(t) or pa.types.is_floating(t)
              or pa.types.is_boolean(t)):
            spec.append((field.name, "num"))
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            spec.append((field.name, "str"))
    return spec


def profile_table(
    ds: ray.data.Dataset,
    spec: list[tuple[str, str]],
) -> pa.Table:
    from ray.data.aggregate import Count

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"col_name": [], "n": [], "n_null": [], "min_num": [],
                "max_num": [], "min_str": [], "max_str": []}
        for c, kind in spec:
            arr = batch.column(c)
            rows["col_name"].append(c)
            rows["n"].append(batch.num_rows)
            rows["n_null"].append(arr.null_count)
            if kind == "ts":
                arr = pc.cast(arr, pa.int64())
            elif kind == "num" and pa.types.is_boolean(arr.type):
                arr = pc.cast(arr, pa.int64())
            if kind in ("num", "ts"):
                mm = pc.min_max(arr)
                rows["min_num"].append(
                    None if mm["min"].as_py() is None
                    else float(mm["min"].as_py()))
                rows["max_num"].append(
                    None if mm["max"].as_py() is None
                    else float(mm["max"].as_py()))
                rows["min_str"].append(None)
                rows["max_str"].append(None)
            else:
                mm = pc.min_max(arr)
                rows["min_num"].append(None)
                rows["max_num"].append(None)
                rows["min_str"].append(mm["min"].as_py())
                rows["max_str"].append(mm["max"].as_py())
        return pa.table({
            "col_name": pa.array(rows["col_name"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "n_null": pa.array(rows["n_null"], pa.int64()),
            "min_num": pa.array(rows["min_num"], pa.float64()),
            "max_num": pa.array(rows["max_num"], pa.float64()),
            "min_str": pa.array(rows["min_str"], pa.string()),
            "max_str": pa.array(rows["max_str"], pa.string()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    # a block whose column is entirely null emits a None partial; pandas
    # min/max over an object column mixing str and NaN raises, so reduce
    # NaN-safe (all-None → None)
    def _nsafe(fn):
        return lambda s: (None if s.dropna().empty else fn(s.dropna()))

    agg = parts.groupby("col_name").agg(
        n_rows=("n", "sum"), n_null=("n_null", "sum"),
        min_num=("min_num", "min"), max_num=("max_num", "max"),
        min_str=("min_str", _nsafe(pd.Series.min)),
        max_str=("max_str", _nsafe(pd.Series.max)),
    ).reset_index()

    # exact distincts via ONE hash-bucket shuffle: equal (col, value)
    # pairs always share a bucket (collisions only co-locate, never
    # merge), so per-bucket drop_duplicates + per-column counts are
    # exact partials and the final fold is a tiny driver sum.  A
    # sort-based (col, value) groupby here paid per distinct key — 3x
    # slower at 600k keys.
    def emit_vals(batch: pa.Table) -> pa.Table:
        names, vals = [], []
        for c, kind in spec:
            arr = batch.column(c)
            if kind == "ts":
                arr = pc.cast(arr, pa.int64())
            s = pc.cast(arr, pa.string())
            s = s.drop_null() if s.null_count else s
            s = (s.combine_chunks()
                 if isinstance(s, pa.ChunkedArray) else s)
            names.append(pa.array([c] * len(s), pa.string()))
            vals.append(s)
        return pa.table({
            "col_name": pa.concat_arrays(names),
            "sval": pa.concat_arrays(vals),
        })

    def bucket_distinct(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["col_name", "sval"])
               .groupby("col_name", sort=False)
               .size().reset_index(name="nd"))
        out["nd"] = out["nd"].astype("int64")
        return out

    nd = (bucket_reduce(ds.map_batches(emit_vals, batch_format="pyarrow"),
                        ["col_name", "sval"], bucket_distinct,
                        batch_format="pandas")
          .to_pandas()
          .groupby("col_name", as_index=False)["nd"].sum()
          .rename(columns={"nd": "n_distinct"}))

    out = agg.merge(nd, on="col_name").sort_values("col_name")
    return pd_to_arrow(pd.DataFrame({
        "col_name": out["col_name"],
        "n_rows": out["n_rows"].astype("int64"),
        "n_null": out["n_null"].astype("int64"),
        "n_distinct": out["n_distinct"].astype("int64"),
        "min_num": np.round(out["min_num"].astype("float64"), 6),
        "max_num": np.round(out["max_num"].astype("float64"), 6),
        "min_str": out["min_str"],
        "max_str": out["max_str"],
    }))


def hot_keys(
    ds: ray.data.Dataset,
    columns: list[str],
    total_rows: int,
    k: int = 10,
) -> pa.Table:
    from ray.data.aggregate import Count

    from .relational import grouped_topk

    def emit(batch: pa.Table) -> pa.Table:
        names, vals = [], []
        for c in columns:
            s = pc.cast(batch.column(c), pa.string())
            s = s.drop_null() if s.null_count else s
            names.append(pa.array([c] * len(s), pa.string()))
            vals.append(s.combine_chunks()
                        if isinstance(s, pa.ChunkedArray) else s)
        return pa.table({
            "col_name": pa.concat_arrays(names),
            "key_str": pa.concat_arrays(vals),
        })

    counts = (ds.map_batches(emit, batch_format="pyarrow")
              .groupby(["col_name", "key_str"])
              .aggregate(Count(alias_name="cnt")))
    out = (grouped_topk(counts, key="col_name", order_by="cnt", k=k,
                        descending=True, tiebreak=["key_str"])
           .to_pandas().sort_values(["col_name", "rank"])
           .reset_index(drop=True))
    cnt = out["cnt"].to_numpy(np.int64)
    return pd_to_arrow(pd.DataFrame({
        "col_name": out["col_name"],
        "rnk": out["rank"].astype("int64"),
        "key_str": out["key_str"],
        "cnt": cnt,
        "share_ppm": cnt * 1_000_000 // total_rows,
    }))
