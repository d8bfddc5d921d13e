"""Relational operator kit: distributed joins and helpers the Dataset API
does not (portably) provide.

``bucket_reduce`` is the one hash-bucketed shuffle: it routes rows by a
hash of their key columns (``key_buckets``) into
``resolve_n_buckets`` buckets, always Arrow on the map side, and runs a
vectorized reducer once per bucket — the pattern for million-key
reductions that a per-key groupby would pay for key by key.  Every
keyed bucket shuffle in the package calls it; callers pre-combine with
``map_batches`` before the call.  ``hash_join`` is the join on the same
routing: union-with-side-tag, bucket by key, and join each bucket with
the one Arrow kernel ``_join_tables`` (shared with ``broadcast_join`` and
``smb_join``); it adds skew salting.  Broadcast (small-side) joins
should NOT shuffle: ship the small side via ``ray.put`` and join inside
``map_batches`` (see ``broadcast_join``).  ``resolve_n_blocks`` sizes the
block count of small tables that feed a shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


#: Target per-bucket row budget for the size-derived ``n_buckets``
#: default.  The memory bound: one bucket (left + right rows of its keys)
#: is joined inside a single map_groups task, so TARGET_ROWS_PER_BUCKET ×
#: avg-row-width must fit one worker's heap with the join's copies.
#: 250k rows × ~200 B ≈ 50 MB Arrow — comfortable for 4 GB workers.
TARGET_ROWS_PER_BUCKET = 250_000

#: n_buckets ceiling: reduce-task metadata and the driver's group planning
#: cost scale with bucket count; 4096 buckets × 250k rows ≈ 1e9 rows per
#: join before the cap binds.
MAX_BUCKETS = 4096


def resolve_n_buckets(n_buckets: int | None, est_rows: int | None) -> int:
    """Size-derived bucket count: explicit wins; with an ``est_rows`` hint
    scale to TARGET_ROWS_PER_BUCKET per bucket (min 64 so small joins keep
    full reduce parallelism, max MAX_BUCKETS); with no information, 64 —
    right for ≤16M-row joins, under-parallel beyond (pass est_rows!)."""
    if n_buckets is not None:
        return n_buckets
    if est_rows is None:
        return 64
    return int(max(64, min(MAX_BUCKETS,
                           est_rows // TARGET_ROWS_PER_BUCKET + 1)))


def resolve_n_blocks(n_rows: int) -> int:
    """Block count for a small table of ~``n_rows`` that feeds a join,
    groupby or iterative round: Ray's sort-based shuffles pay per BLOCK,
    not per row, so a few blocks at small ``n_rows`` and one more per
    TARGET_ROWS_PER_BUCKET rows at scale."""
    return max(4, n_rows // TARGET_ROWS_PER_BUCKET + 1)


def detect_hot_keys(
    ds: ray.data.Dataset,
    on: list[str] | str,
    threshold: float = 0.05,
    sample_mod: int = 16,
    max_salt: int = 32,
) -> dict[tuple, int]:
    """Sampled key-frequency pre-pass for skew-join salting: hash-sample
    ~1/``sample_mod`` of rows (content hash of the key + a row counter, so
    every batch contributes), count keys per batch, and keep keys whose
    sampled frequency exceeds ``threshold``.  Returns {key_tuple: k} with
    split factor k ≈ sampled_fraction / threshold (capped at
    ``max_salt``), ready to pass as ``hash_join(salt_keys=...)``.

    Scale shape: only per-batch partial count dicts (pre-filtered to
    locally-frequent keys) reach the driver — never rows.  Approximate by
    design: a key needs ≥ threshold/4 local frequency in a batch to be
    counted there, which any globally-hot key has in essentially every
    batch.  Salting choice does not affect join OUTPUT (only bucket
    routing), so approximation costs performance at worst, never
    correctness."""
    import zlib as _z

    on = [on] if isinstance(on, str) else list(on)
    local_frac = threshold / 4.0

    def count_batch(batch: pa.Table) -> pa.Table:
        keys = list(zip(*(batch.column(c).to_pylist() for c in on))) \
            if batch.num_rows else []
        sampled: dict[tuple, int] = {}
        n_sampled = 0
        for i, row in enumerate(keys):
            h = _z.crc32(("\x00".join(str(v) for v in row)
                          + f"\x01{i}").encode("utf-8", "surrogatepass"))
            if h % sample_mod:
                continue
            n_sampled += 1
            sampled[row] = sampled.get(row, 0) + 1
        cut = max(2, int(n_sampled * local_frac))
        # "k\x01" / "t\x01" prefixes make the total row unambiguous even
        # if a real key value starts with a control character
        out_keys = ["k\x01" + "\x00".join(str(v) for v in k)
                    for k, c in sampled.items() if c >= cut]
        out_counts = [c for c in sampled.values() if c >= cut]
        out_keys.append("t\x01total")
        out_counts.append(n_sampled)
        return pa.table({"key": pa.array(out_keys, pa.string()),
                         "count": pa.array(out_counts, pa.int64())})

    partials = ds.map_batches(count_batch, batch_format="pyarrow").to_pandas()
    if not len(partials):
        return {}
    agg = partials.groupby("key")["count"].sum()
    total = int(agg.get("t\x01total", 0))
    if total == 0:
        return {}
    hot: dict[tuple, int] = {}
    for key, cnt in agg.items():
        if not key.startswith("k\x01"):
            continue
        key = key[2:]
        frac = cnt / total
        if frac > threshold:
            hot[tuple(key.split("\x00"))] = int(
                min(max_salt, max(2, round(frac / threshold))))
    return hot


def _tag_and_align(
    ds: ray.data.Dataset, side: str, all_cols: list[str], types: dict
) -> ray.data.Dataset:
    def tag(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in all_cols:
            if c in batch.column_names:
                cols[c] = batch.column(c)
            else:
                cols[c] = pa.nulls(batch.num_rows, types[c])
        cols["__side"] = pa.array([side] * batch.num_rows, pa.string())
        return pa.table(cols)

    return ds.map_batches(tag, batch_format="pyarrow")


#: default Bloom sizing for ``hash_join(bloom_prune=True)``: 4 Mbit
#: (512 KB broadcast once per job), k=4 probes — false-positive rate
#: ~7e-5 at 100k distinct build keys, ~2% at 1M; FPs only cost shuffle
#: bytes, never correctness (no false negatives by construction)
JOIN_BLOOM_BITS = 1 << 22
JOIN_BLOOM_K = 4


def _column_u64(c) -> np.ndarray:
    """Per-row 64-bit hash of one key column, by value: an integer of
    any width hashes its value, a string or binary (dictionary-encoded
    or not) its bytes — each distinct value once (``dictionary_encode``)
    — and any other type goes through ``pd.util.hash_array``."""
    from .hashing import bytes_u64_vec, mix64

    c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    t = c.type.value_type if pa.types.is_dictionary(c.type) else c.type
    if pa.types.is_integer(t):
        c = c.dictionary_decode() if pa.types.is_dictionary(c.type) else c
        return mix64(pc.fill_null(c, 0).to_numpy().astype(np.uint64))
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        d = c if pa.types.is_dictionary(c.type) else pc.dictionary_encode(c)
        hd = np.append(bytes_u64_vec(d.dictionary), np.uint64(0))
        return hd[pc.fill_null(d.indices, len(d.dictionary)).to_numpy()]
    if pa.types.is_null(t):
        return np.zeros(len(c), np.uint64)
    return pd.util.hash_array(c.to_numpy(zero_copy_only=False))


def _join_key_u64(batch: pa.Table, on: list[str]) -> np.ndarray:
    """Process-independent vectorized 64-bit key hash — stability is what
    matters, not the particular value, because every side of a shuffle
    or Bloom probe computes it identically.  The key columns' hashes
    (``_column_u64``) fold through ``hashing.mix64``; a row with a null
    key gets 0 (a null key never matches)."""
    from .hashing import MIX_K, mix64

    h = np.zeros(batch.num_rows, np.uint64)
    valid = np.ones(batch.num_rows, bool)
    for k in on:
        c = batch.column(k)
        if c.null_count:
            valid &= pc.is_valid(c).to_numpy(zero_copy_only=False)
        h = mix64(h * MIX_K + _column_u64(c))
    h[~valid] = 0
    return h


def _bloom_prune_probe(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    m_bits: int = JOIN_BLOOM_BITS,
    k: int = JOIN_BLOOM_K,
) -> ray.data.Dataset:
    """Semi-join reduction for selective joins: build a Bloom filter of
    the RIGHT side's join keys (one streaming pass; per batch only the
    DISTINCT set-bit indices move), broadcast the packed bitmap once
    (``m_bits/8`` bytes via ray.put), and drop LEFT rows whose key
    cannot match BEFORE the join's all-to-all shuffle.  Double hashing
    ``bit_i = (h1 + i·h2) % m`` with both hashes vectorized (numpy +
    ``_join_key_u64``), probe is a packed-bit gather — no Python row
    loop.  At 100 TB this is the difference between shuffling the whole
    fact table and shuffling only the ~matching fraction."""
    from ..state import broadcast
    from .hashing import fnv1a_u64_vec

    m = np.uint64(m_bits)

    def _bits(h1: np.ndarray) -> np.ndarray:
        h2 = fnv1a_u64_vec(h1) | np.uint64(1)
        i = np.arange(k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + i * h2[None, :]) % m).astype(np.int64)

    def build(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"bit": pa.array([], pa.int64())})
        h1 = np.unique(_join_key_u64(batch, on))
        return pa.table({"bit": pa.array(np.unique(_bits(h1).ravel()))})

    set_bits = np.asarray(
        sorted(right.map_batches(build,
                                 batch_format="pyarrow").unique("bit")),
        dtype=np.int64)
    bitmap = np.zeros(m_bits, dtype=bool)
    if len(set_bits):
        bitmap[set_bits] = True
    ref = ray.put(np.packbits(bitmap))

    def probe(batch: pa.Table, _ref=ref) -> pa.Table:
        from ..state.broadcast import fetch

        if batch.num_rows == 0:
            return batch
        bm = fetch(_ref)
        idx = _bits(_join_key_u64(batch, on))
        hit = ((bm[idx >> 3] >> (7 - (idx & 7))) & 1).astype(bool)
        return batch.filter(pa.array(hit.all(axis=0)))

    return left.map_batches(probe, batch_format="pyarrow")


#: ``how`` → Acero join type for ``_join_tables``
_ACERO_JOIN_TYPES = {"inner": "inner", "left": "left outer",
                     "outer": "full outer", "semi": "left semi",
                     "anti": "left anti"}


def _join_tables(left: pa.Table, right: pa.Table, on: list[str],
                 how: str) -> pa.Table:
    """The engine's one local equi-join: Acero joins the key columns plus
    a row index per side, and every payload column is ``take``n from its
    own side — so payloads keep their declared Arrow types (no float64
    round-trip; list payloads, which Acero rejects as non-key join
    fields, ride along too).  Rows come out in (left row, right row)
    order with unmatched right rows last — pandas' inner/left merge
    order, so a bucket's output is deterministic.  Null keys never match
    (SQL semantics); left/anti/outer keep those rows.  Output columns:
    ``left``'s in order, then ``right``'s non-key columns, which the
    caller has checked are disjoint from ``left``'s."""
    lk = left.select(on)
    rk = right.select(on)
    for i, c in enumerate(on):
        lt, rt = lk.field(c).type, rk.field(c).type
        if lt != rt:   # e.g. int32 vs int64: Acero needs one key type
            t = pa.unify_schemas([pa.schema([(c, lt)]),
                                  pa.schema([(c, rt)])],
                                 promote_options="permissive").field(c).type
            lk = lk.set_column(i, c, lk.column(c).cast(t))
            rk = rk.set_column(i, c, rk.column(c).cast(t))
    m = lk.append_column("__l", pa.array(np.arange(left.num_rows))).join(
        rk.append_column("__r", pa.array(np.arange(right.num_rows))),
        keys=on, join_type=_ACERO_JOIN_TYPES[how], use_threads=False)
    m = m.take(pc.sort_indices(
        m, [(c, "ascending") for c in ("__l", "__r") if c in m.column_names],
        null_placement="at_end"))
    li = m.column("__l")
    cols = {c: m.column(c) if c in on else left.column(c).take(li)
            for c in left.column_names}
    if how not in ("semi", "anti"):
        ri = m.column("__r")
        cols.update((c, right.column(c).take(ri))
                    for c in right.column_names if c not in on)
    return pa.table(cols)


def _row_hash_u64(batch: pa.Table, cols: list[str]) -> np.ndarray:
    """Content hash of each row over ``cols``, null-tolerant: every
    column hashes on its own (a null gets 0), then the per-column hashes
    combine — so a null never zeroes the row, and one row's null never
    changes another row's hash in its batch."""
    return pd.util.hash_pandas_object(
        pd.DataFrame({c: _join_key_u64(batch, [c]) for c in cols}),
        index=False).to_numpy()


def key_buckets(batch: pa.Table, on: list[str], n_buckets: int) -> pa.Array:
    """The bucket of each row's key, int32 in [0, n_buckets): the one
    routing rule of ``bucket_reduce`` and ``hash_join``.  A single
    integer key column routes by ``key % n_buckets``; any other key by
    the vectorized fixed-key hash ``_join_key_u64`` (process-independent,
    so the determinism rule holds).  Routing only co-locates a key's
    rows; it never affects OUTPUT, so it needs stability across batches
    and processes, not any particular value."""
    if len(on) == 1 and pa.types.is_integer(batch.column(on[0]).type):
        # fill nulls first: a null makes to_numpy float64, which would
        # route a key ≥ 2^53 away from its non-null-batch twin; every
        # null key lands in bucket 0, as in the hashed branch
        b = pc.fill_null(batch.column(on[0]), 0).to_numpy() % n_buckets
    else:
        b = _join_key_u64(batch, on) % np.uint64(n_buckets)
    return pa.array(b.astype(np.int32), pa.int32())


def _route_buckets(batch: pa.Table, on: list[str], n_buckets: int,
                   salt_keys: dict, max_salt: int,
                   spread_cols: list[str]) -> pa.Table:
    """``hash_join``'s routing: append ``__bucket`` to a tagged batch.
    Unsalted, it is ``key_buckets``.  Salted hot keys spread their left
    rows over k sub-buckets by a content hash of the row's non-nested
    ``spread_cols`` (the left side's own columns: the right-only ones are
    null on every left row) and replicate their right rows to all k."""
    if not salt_keys:
        return batch.append_column("__bucket",
                                   key_buckets(batch, on, n_buckets))
    h = _join_key_u64(batch, on)
    b0 = (h % np.uint64(n_buckets)).astype(np.int32)
    # skew salting: resolve each DISTINCT key hash's split factor once
    # (rows of one key share its hash, so every row of a key gets the
    # same k); hot left rows spread by a row content hash, hot
    # right rows replicate to all k sub-buckets
    _, first, inv = np.unique(h, return_index=True, return_inverse=True)
    reps = batch.select(on).take(pa.array(first)).to_pylist()
    k = np.array([salt_keys.get(tuple(str(r[c]) for c in on), 1)
                  for r in reps], np.int64)[inv]
    is_l = pc.equal(batch.column("__side"), "l").to_numpy()
    salt = np.zeros(batch.num_rows, np.int64)
    spread = np.flatnonzero(is_l & (k > 1))
    if len(spread):
        # list columns do not hash; the spread needs determinism,
        # not a distinct sub-bucket per row
        flat = [c for c in spread_cols
                if not pa.types.is_nested(batch.schema.field(c).type)]
        h_row = _row_hash_u64(batch.take(pa.array(spread)), flat)
        salt[spread] = (h_row % k[spread].astype(np.uint64)).astype(np.int64)
    copies = np.where(is_l, 1, k)
    ends = np.cumsum(copies)
    idx = np.repeat(np.arange(batch.num_rows), copies)
    nth = np.arange(len(idx)) - np.repeat(ends - copies, copies)
    bucket = np.repeat(b0.astype(np.int64) * max_salt + salt, copies) + nth
    return batch.take(pa.array(idx)).append_column(
        "__bucket", pa.array(bucket.astype(np.int32), pa.int32()))


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str] | str,
    how: str = "inner",
    n_buckets: int | None = None,
    salt_keys: dict | None = None,
    right_schema: "pa.Schema | None" = None,
    est_rows: int | None = None,
    auto_salt: bool = False,
    left_schema: "pa.Schema | None" = None,
    bloom_prune: bool = False,
) -> ray.data.Dataset:
    """Key-partitioned hash join (both sides large).

    ``n_buckets`` defaults size-derived: ``resolve_n_buckets(None,
    est_rows)`` — pass ``est_rows`` (cheap from Parquet metadata or a
    materialized input's count) so reduce parallelism scales with the
    data; bare default is 64.  ``auto_salt=True`` runs
    ``detect_hot_keys`` over the LEFT side first (one extra streaming
    pass; only small count partials reach the driver) and salts any key
    holding > 5% of sampled rows — for joins where skew is possible but
    the hot keys aren't known a priori.

    Implementation: tag each side, align schemas (missing columns →
    nulls), union, add ``__bucket = hash(key) % n_buckets``, group by the
    BUCKET (not the key — per-key groups pay per-group overhead for
    every distinct key), and join the two sides inside each bucket with
    the Arrow kernel ``_join_tables``.  One shuffle; bucket size ≈
    |rows| / n_buckets.
    ``how``: inner | left | outer (full) | semi | anti (left-anti).
    Bucket-local outer is globally correct because every row of a key
    lands in exactly one bucket.  Payloads keep their declared Arrow
    types (exact int64 at any magnitude, list columns included); null
    keys never match, as in SQL — left/anti/outer keep those rows.

    ``bloom_prune=True`` (inner/semi only): one streaming pass builds a
    Bloom filter of the right side's keys (512 KB broadcast), and left
    rows that cannot match are dropped BEFORE the shuffle — the standard
    semi-join reduction for selective joins; false positives only cost
    shuffle bytes, false negatives cannot occur.

    Skew guardrail: every row of one key must land in one bucket, so a
    pathologically hot key's bucket must fit a worker.  ``salt_keys``
    maps key tuples → split factor k: LEFT rows of a hot key spread over
    k sub-buckets by a content hash of the row's own non-nested columns
    (deterministic under any partitioning); RIGHT rows of that key
    replicate to all k sub-buckets — the standard skew join.  Only inner/left support
    salting (semi/anti would double-count replicated right rows).
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r} (inner | left | outer "
                         "| semi | anti)")
    on = [on] if isinstance(on, str) else list(on)
    n_buckets = resolve_n_buckets(n_buckets, est_rows)
    if auto_salt and not salt_keys and how in ("inner", "left"):
        salt_keys = detect_hot_keys(left, on)
    # keys normalized to their str() rendering so callers may pass raw
    # values or detect_hot_keys' stringified tuples interchangeably
    salt_keys = {
        tuple(str(x) for x in (k if isinstance(k, tuple) else (k,))): int(v)
        for k, v in (salt_keys or {}).items()
    }
    if salt_keys and how in ("semi", "anti", "outer"):
        raise ValueError(
            "salt_keys unsupported for semi/anti/outer joins "
            "(replicated right rows would duplicate outputs)")
    max_salt = max(salt_keys.values(), default=1)
    ls = left.schema()
    rs = right.schema()
    # an empty dataset downstream of a transform has no inferable schema;
    # resolve the join degenerately rather than crash.  NOTE the schema
    # asymmetry in the fallbacks below: the unknowable side's columns are
    # OMITTED (a schema-known empty side null-pads them).  Callers that
    # select the other side's columns downstream — in particular EVERY
    # ``how="outer"`` caller, whose output by definition carries both
    # sides' columns — must pass ``right_schema`` / ``left_schema`` so
    # the degenerate case takes the normal (null-padding) path.
    if ls is None and left_schema is not None:
        arrow_schema = (left_schema.base_schema
                        if hasattr(left_schema, "base_schema")
                        else left_schema)
        left = ray.data.from_arrow(arrow_schema.empty_table())
        ls = left.schema()
    if ls is None:
        if how == "outer":
            return right       # outer keeps the right rows (left cols
                               # omitted — the documented degenerate-
                               # schema asymmetry; pass left_schema to
                               # get the full outer schema instead)
        return left            # no left rows → no output rows
    if rs is None and right_schema is not None:
        arrow_schema = (right_schema.base_schema
                        if hasattr(right_schema, "base_schema")
                        else right_schema)
        right = ray.data.from_arrow(arrow_schema.empty_table())
        rs = right.schema()
    if rs is None:
        if how in ("left", "anti", "outer"):
            return left        # every left row survives (right is empty);
                               # the unknowable right columns are omitted
        return left.limit(0)   # inner/semi with empty right → empty
    if bloom_prune:
        # semi-join reduction: only inner/semi may drop unmatched left
        # rows early, and salting replicates rows the filter would
        # mis-route — restrict accordingly rather than silently change
        # semantics
        if how not in ("inner", "semi"):
            raise ValueError("bloom_prune only applies to inner/semi "
                             "joins (other kinds keep unmatched rows)")
        if salt_keys:
            raise ValueError("bloom_prune is incompatible with "
                             "salt_keys; prune first, then salt")
        right = right.materialize()   # consumed by the build AND the join
        left = _bloom_prune_probe(left, right, on)
    l_cols = list(ls.names)
    r_cols = list(rs.names)
    types = {n: t for n, t in zip(ls.names, ls.types)}
    for n, t in zip(rs.names, rs.types):
        types.setdefault(n, t)
    shared = [c for c in r_cols if c in l_cols and c not in on]
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}; rename first")
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]
    tagged = _tag_and_align(left, "l", all_cols, types).union(
        _tag_and_align(right, "r", all_cols, types)
    )
    bucketed = tagged.map_batches(
        _route_buckets, batch_format="pyarrow",
        fn_kwargs=dict(on=on, n_buckets=n_buckets, salt_keys=salt_keys,
                       max_salt=max_salt, spread_cols=l_cols))
    l_keep = on + [c for c in l_cols if c not in on]
    r_keep = on + [c for c in r_cols if c not in on]

    def join_bucket(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g.column("__side"), "l")
        return _join_tables(g.filter(is_l).select(l_keep),
                            g.filter(pc.invert(is_l)).select(r_keep),
                            on, how)

    return bucketed.groupby("__bucket").map_groups(
        join_bucket, batch_format="pyarrow"
    )


def segment_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Row offsets where ``keys`` change in a non-empty key-sorted table;
    nulls equal each other, as in GROUP BY."""
    n = t.num_rows
    new = np.zeros(n, bool)
    new[0] = True
    for k in keys:
        c = t.column(k)
        a, b = c.slice(1), c.slice(0, n - 1)
        ne = pc.not_equal(a, b)
        if c.null_count:
            ne = pc.coalesce(ne, pc.xor(pc.is_null(a), pc.is_null(b)))
        new[1:] |= ne.to_numpy(zero_copy_only=False)
    return np.flatnonzero(new)


def bucket_reduce(
    ds: ray.data.Dataset,
    key: list[str] | str,
    reduce,
    *,
    n_buckets: int | None = None,
    est_rows: int | None = None,
    batch_format: str = "pyarrow",
) -> ray.data.Dataset:
    """One hash-bucketed shuffle: every row goes to bucket
    ``key_buckets(key)`` of ``resolve_n_buckets(n_buckets, est_rows)``,
    and ``reduce`` runs once per bucket over all rows of the bucket's
    keys — the pattern for reductions over many distinct keys, where a
    Ray group per key would pay per-group overhead key by key.

    The map side is Arrow without schema metadata, so no pandas block
    (an empty one included) enters the exchange.  ``reduce`` gets the bucket in ``batch_format``
    (Ray's ``map_groups`` option, passed through) without the routing
    column, and may return Arrow or pandas: the output is Arrow without
    schema metadata either way.  Rows of one key always share a bucket,
    so a per-key reducer's output does not depend on the bucket count.
    Pre-combine with ``map_batches`` before the call; Ray fuses it with
    the routing map.  Ray skips ``reduce`` on an empty sort partition
    and emits a column-less block there."""
    from ..schema import pd_to_arrow

    on = [key] if isinstance(key, str) else list(key)
    n = resolve_n_buckets(n_buckets, est_rows)

    def route(batch: pa.Table) -> pa.Table:
        # a pandas block upstream arrives with pandas' dict metadata,
        # which the exchange's schema unification cannot hash
        return batch.replace_schema_metadata(None).append_column(
            "__bucket", key_buckets(batch, on, n))

    def run(g):
        g = (g.drop_columns(["__bucket"]) if isinstance(g, pa.Table)
             else g.drop(columns="__bucket"))
        out = reduce(g)
        return (out.replace_schema_metadata(None)
                if isinstance(out, pa.Table) else pd_to_arrow(out))

    return ds.map_batches(route, batch_format="pyarrow").groupby(
        "__bucket").map_groups(run, batch_format=batch_format)


def grouped_topk(
    ds: ray.data.Dataset,
    key: list[str] | str,
    order_by: str,
    k: int,
    descending: bool = True,
    tiebreak: list[str] | None = None,
    n_buckets: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Top-k rows per group with a rank column — the distributed form of
    ``row_number() OVER (PARTITION BY key ORDER BY order_by) <= k``
    (a window Ray Data has no operator for).

    Two stages: a map-side PARTIAL keeps each batch's own per-key top-k
    (correct because a key's global top-k is a subset of the union of its
    per-batch top-ks), so at most k rows per (batch, key) enter the
    shuffle; then one hash(key) bucket shuffle and a vectorized per-key
    head(k) + rank.  ``tiebreak`` columns (ascending) make the order
    total — REQUIRED for deterministic output when ``order_by`` has
    duplicates.  Both steps are one Arrow stable sort and a cut at the
    key's segment starts, so every column keeps its type (a nullable
    int64 key stays exact above 2^53) and null keys form one group, as
    in SQL's PARTITION BY; nulls in ``order_by`` sort last."""
    key = [key] if isinstance(key, str) else list(key)
    sort_keys = ([(c, "ascending") for c in key]
                 + [(order_by, "descending" if descending else "ascending")]
                 + [(c, "ascending") for c in tiebreak or []])

    def top(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
        """The first k rows of each key in sort order, and their ranks."""
        t = t.sort_by(sort_keys)
        starts = (segment_starts(t, key) if t.num_rows
                  else np.zeros(0, np.int64))
        rank = (np.arange(1, t.num_rows + 1)
                - np.repeat(starts, np.diff(starts, append=t.num_rows)))
        keep = rank <= k
        return t.filter(keep), rank[keep]

    def final(g: pa.Table) -> pa.Table:
        t, rank = top(g)
        return t.append_column("rank", pa.array(rank, pa.int64()))

    return bucket_reduce(ds.map_batches(lambda t: top(t)[0],
                                        batch_format="pyarrow"),
                         key, final, n_buckets=n_buckets, est_rows=est_rows)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    direction: str = "backward",
    n_buckets: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Distributed as-of join: for every left row, attach the right row
    with the greatest ``on`` ≤ left's ``on`` (direction="backward";
    "forward" = smallest ≥) within the same ``by`` key.  An operator the
    Dataset API lacks; composition: tag sides → union → bucket by
    hash(by) → per-bucket ``pandas.merge_asof(by=..., on=...)``.

    Partitioning assumption: all rows of one ``by`` key land in one
    bucket (same guarantee as ``hash_join``), so a key's full timeline is
    visible to its merge; a pathologically hot key must fit one worker.
    One shuffle total; within-bucket work is a vectorized sort + asof
    merge.

    Determinism note: when several right rows share (by, on), which one
    wins is engine-dependent (pandas keeps the last in sort order) —
    dedupe the right side to one row per (by, on) first for reproducible
    output (as q27 does with max(event_id))."""
    ls, rs = left.schema(), right.schema()
    if ls is None:
        return left
    l_cols = list(ls.names)
    r_cols = list(rs.names) if rs is not None else []
    types = {n: t for n, t in zip(ls.names, ls.types)}
    if rs is not None:
        for n, t in zip(rs.names, rs.types):
            types.setdefault(n, t)
    shared = [c for c in r_cols if c in l_cols and c not in (by, on)]
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}; rename first")
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]
    if rs is None:
        # empty right: null-pad nothing (unknown schema) — left rows pass
        return left
    tagged = _tag_and_align(left, "l", all_cols, types).union(
        _tag_and_align(right, "r", all_cols, types)
    )

    l_only = [c for c in l_cols if c not in (by, on)]
    r_only = [c for c in r_cols if c not in (by, on)]

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"][[by, on] + l_only]
        rg = g[g["__side"] == "r"][[by, on] + r_only]
        # merge_asof requires both frames sorted by `on`; stable secondary
        # order on the by key keeps ties deterministic given deduped input
        lg = lg.sort_values([on, by], kind="mergesort").reset_index(drop=True)
        rg = rg.sort_values([on, by], kind="mergesort").reset_index(drop=True)
        if not len(lg):
            out = lg.assign(**{c: pd.Series([], dtype=rg[c].dtype)
                               for c in r_only})
        else:
            # merge_asof handles an empty right (all-NaN right columns) —
            # same shape as a non-empty bucket with unmatched rows
            out = pd.merge_asof(lg, rg, on=on, by=by, direction=direction,
                                suffixes=("", "__r"))
        # declared-dtype restoration (same trap as hash_join's: unmatched
        # rows turn integer right columns float64 in SOME buckets only —
        # restore every bucket to one consistent dtype)
        for c in r_only:
            t = types.get(c)
            if (t is not None and pa.types.is_integer(t)
                    and out[c].dtype.kind == "f"):
                nullable = str(t).replace("int", "Int").replace("uInt",
                                                                "UInt")
                out = out.assign(**{c: out[c].astype(nullable)})
        return out

    return bucket_reduce(tagged, by, merge_bucket, n_buckets=n_buckets,
                         est_rows=est_rows, batch_format="pandas")


def broadcast_join(
    left: ray.data.Dataset,
    small_df: pd.DataFrame,
    on: list[str] | str,
    how: str = "inner",
) -> ray.data.Dataset:
    """Small-side join: convert ``small_df`` to Arrow once on the driver,
    ship it via ray.put and ``_join_tables`` it onto every batch inside
    map_batches.  No shuffle (SURVEY.md §2.5 mapping for KB / gazetteer
    / query joins)."""
    from ..schema import pd_to_arrow

    on = [on] if isinstance(on, str) else list(on)
    ls = left.schema()
    shared = sorted(({*ls.names} & {*small_df.columns}) - {*on}) if ls else []
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}; rename first")
    ref = ray.put(pd_to_arrow(small_df))

    def merge(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        return _join_tables(batch, fetch(ref), on, how)

    return left.map_batches(merge, batch_format="pyarrow")


def semi_anti_filter(
    left: ray.data.Dataset,
    keys: set | pa.Array,
    key_col: str,
    keep_matching: bool,
) -> ray.data.Dataset:
    """Semi/anti join against a broadcast key set (Bloom-filter slot at
    scale) — the "already known slot" anti-join analog
    (HeuristicSlotfillPostProcessors.java:101-134).  The set ships once
    as one Arrow array; each batch is one vectorized ``is_in``."""
    ref = ray.put(keys if isinstance(keys, pa.Array)
                  else pa.array(list(keys)))

    def flt(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        hit = pc.is_in(batch.column(key_col), value_set=fetch(ref))
        return batch.filter(hit if keep_matching else pc.invert(hit))

    return left.map_batches(flt, batch_format="pyarrow")


def _distinct(ds: ray.data.Dataset, on: list[str]) -> ray.data.Dataset:
    """Distinct ``on`` rows with a map-side combine: per-batch Arrow
    ``group_by`` collapses each batch to its own distinct rows before the
    global groupby, so the exchange carries distinct-per-batch keys."""
    def local(batch: pa.Table) -> pa.Table:
        return batch.select(on).group_by(on).aggregate([])

    return (ds.map_batches(local, batch_format="pyarrow")
            .groupby(on).count()
            .map_batches(lambda t: t.drop_columns(["count()"]),
                         batch_format="pyarrow"))


def intersect_distinct(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str] | str,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """SQL ``INTERSECT`` (distinct): the distinct ``on`` rows present on
    BOTH sides — distinct-ify the left (map-side-combined groupby), then
    one key-partitioned SEMI ``hash_join`` against the right (which
    needs no dedup: semi joins emit each left row at most once)."""
    on = [on] if isinstance(on, str) else list(on)
    return hash_join(_distinct(left, on), right.select_columns(on),
                     on=on, how="semi", est_rows=est_rows)


def except_distinct(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str] | str,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """SQL ``EXCEPT`` (distinct): the distinct ``on`` rows present on the
    left and absent from the right — ``intersect_distinct``'s ANTI
    twin."""
    on = [on] if isinstance(on, str) else list(on)
    return hash_join(_distinct(left, on), right.select_columns(on),
                     on=on, how="anti", est_rows=est_rows)


def rollup_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    all_token: str = "ALL",
    scale: int | None = None,
) -> ray.data.Dataset:
    """GROUP BY ROLLUP(keys): sums and counts at every key-prefix level
    (full keys, each prefix, grand total), subtotal levels marked by
    ``all_token`` in the rolled-up key columns (string keys only).

    Scale shape: a map-side combiner first collapses each batch to its
    distinct full-key rows, the (levels+1)x row explosion happens on
    those TINY partials, and ONE groupby over all key columns finishes —
    the input never shuffles more than once and never amplifies.

    Determinism: pass ``scale`` (e.g. 100 for cents) to quantize each
    VALUE to int64 units before the shuffle — the reduction then sums
    integers, which is associative, and ``sum_value`` comes back as
    ``int_sum / scale``.  Without ``scale`` the partials ship float64
    and the final Sum is subject to float non-associativity across
    block orders: only use that path when ``value_col`` is exactly
    representable (integers, or dyadic fractions) so every sum is
    exact."""
    sets = [tuple(keys[:lvl]) for lvl in range(len(keys) + 1)]
    return _grouping_sets_sum(ds, keys, value_col, sets, all_token, scale)


def cube_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    all_token: str = "ALL",
    scale: int | None = None,
) -> ray.data.Dataset:
    """GROUP BY CUBE(keys): sums and counts at every key SUBSET (2^n
    grouping sets), rolled-up columns marked by ``all_token``.  Same
    scale shape and determinism contract as ``rollup_sum`` — the 2^n
    explosion happens only on per-batch combiner partials (distinct
    full-key rows), never on the input, and ONE groupby finishes.  Keep
    ``len(keys)`` small (2-4): the shuffle carries partials × 2^n."""
    import itertools

    sets = [subset
            for r in range(len(keys) + 1)
            for subset in itertools.combinations(keys, r)]
    return _grouping_sets_sum(ds, keys, value_col, sets, all_token, scale)


def grouping_sets_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    sets: list[tuple[str, ...]] | list[list[str]],
    all_token: str = "ALL",
    scale: int | None = None,
) -> ray.data.Dataset:
    """GROUP BY GROUPING SETS(...): sums and counts at an ARBITRARY list
    of grouping sets (each a subset of ``keys``), rolled-up columns
    masked with ``all_token`` — the general form behind ``rollup_sum``
    (prefixes) and ``cube_sum`` (all subsets).  Same scale shape and
    determinism contract: the per-batch combiner collapses each batch to
    its distinct full-key rows, the |sets|× explosion happens on those
    tiny partials, one groupby finishes; pass ``scale`` to quantize the
    value to integer units so the shuffle Sum is associative.

    Duplicate sets are rejected: two identical sets produce identical
    mask patterns, and the single final groupby would silently merge
    them into doubled sums (SQL emits two result rows instead)."""
    norm = [tuple(s) for s in sets]
    for st in norm:
        unknown = set(st) - set(keys)
        if unknown:
            raise ValueError(f"grouping set {st} has non-key columns "
                             f"{sorted(unknown)}")
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate grouping sets")
    return _grouping_sets_sum(ds, keys, value_col, norm, all_token, scale)


def _grouping_sets_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    sets: list[tuple[str, ...]],
    all_token: str,
    scale: int | None,
) -> ray.data.Dataset:
    """Shared GROUPING SETS engine behind ``rollup_sum``/``cube_sum``:
    each grouping set keeps its listed key columns and masks the rest
    with ``all_token``; distinct mask patterns keep the sets disjoint in
    the single final groupby."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(keys + [value_col]).to_pandas()
        if scale is not None:
            df[value_col] = (
                np.floor(df[value_col].to_numpy(dtype=np.float64)
                         * scale + 0.5).astype(np.int64))
        # a real key value equal to the subtotal marker would silently
        # merge with subtotal rows in the final groupby (SQL ROLLUP/CUBE
        # use NULL and are immune) — refuse instead
        for k in keys:
            if (df[k] == all_token).any():
                raise ValueError(
                    f"grouping_sets: key column {k!r} contains the "
                    f"all_token value {all_token!r}; pass a different "
                    "all_token")
        g = (df.groupby(keys, sort=False, dropna=False)[value_col]
             .agg(["sum", "count"]).reset_index())
        levels = []
        for kept in sets:
            d = g.copy()
            for k in keys:
                if k not in kept:
                    d[k] = all_token
            levels.append(d)
        out = pd.concat(levels, ignore_index=True)
        out = out.rename(columns={"sum": "__sum", "count": "__n"})
        out["__n"] = out["__n"].astype("int64")
        from ..schema import pd_to_arrow

        return pd_to_arrow(out)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(keys)
           .aggregate(Sum("__sum", alias_name="sum_value"),
                      Sum("__n", alias_name="n_rows")))
    if scale is None:
        return agg

    def unscale(batch: pa.Table) -> pa.Table:
        sv = batch.column("sum_value").to_numpy(zero_copy_only=False)
        return batch.set_column(
            batch.column_names.index("sum_value"), "sum_value",
            pa.array(sv.astype(np.float64) / scale, pa.float64()))

    return agg.map_batches(unscale, batch_format="pyarrow")


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    value_col: str,
    start_col: str,
    end_col: str,
    n_buckets: int | None = None,
    bounds: tuple[float, float] | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Keyless interval join: every (left, right) pair with
    ``start_col <= value_col <= end_col`` — the band/range join neither
    Ray Data nor a hash join can express (no equality key).

    Distributed shape: partition the VALUE DOMAIN into ``n_buckets``
    equal ranges (global min/max of the left column from one streaming
    aggregate unless ``bounds`` is given).  A left row routes to exactly
    ONE bucket — so no output dedup is ever needed — while a right
    interval replicates to every bucket it overlaps (amplification
    ≈ span/bucket_width + 1; the operator suits short-interval
    workloads, the classic band-join assumption).  Inside a bucket the
    left values are sorted once and each interval finds its matches by
    binary search (searchsorted), never an all-pairs scan.  Bucket
    routing uses the same arithmetic on both sides, so float fuzz can
    only co-locate a pair, never separate it; the exact predicate is
    re-checked by the searchsorted bounds.

    Column names must not overlap between the two sides."""
    from ray.data.aggregate import Max, Min

    n_buckets = resolve_n_buckets(n_buckets, est_rows)
    l_schema = left.schema()
    r_schema = right.schema()
    shared = set(l_schema.names) & set(r_schema.names)
    if shared:
        raise ValueError(f"overlapping columns: {sorted(shared)}; rename first")
    if bounds is None:
        mm = left.aggregate(Min(value_col), Max(value_col))
        lo_raw = mm.get(f"min({value_col})") if mm else None
        if lo_raw is None:                   # empty left → empty join
            empty = pa.schema(
                list(zip(l_schema.names, l_schema.types))
                + list(zip(r_schema.names, r_schema.types))).empty_table()
            return ray.data.from_arrow(empty)
        lo, hi = float(lo_raw), float(mm[f"max({value_col})"])
    else:
        lo, hi = float(bounds[0]), float(bounds[1])
    width = (hi - lo) / n_buckets if hi > lo else 1.0

    def bucket_of(v: np.ndarray) -> np.ndarray:
        # clip in FLOAT space before the int cast: an interval end far
        # outside the value domain (e.g. tiny width from a degenerate
        # domain) would overflow int64 and wrap to INT64_MIN, silently
        # dropping matches (hypothesis-found)
        return np.clip((v - lo) / width, 0, n_buckets - 1).astype(np.int64)

    def route_left(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        out = batch.append_column(
            "__bucket", pa.array(bucket_of(v.astype(np.float64)),
                                 pa.int32()))
        # explicit string type: an untyped empty pa.array infers Arrow
        # null and breaks block-schema consistency
        return out.append_column(
            "__side", pa.array(["l"] * batch.num_rows, pa.string()))

    def route_right(batch: pa.Table) -> pa.Table:
        s = batch.column(start_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        e = batch.column(end_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        b0 = bucket_of(s)
        b1 = bucket_of(e)
        # clamp: an inverted interval (end < start) whose endpoints land
        # in different buckets would give negative reps and crash
        # np.repeat — SQL BETWEEN semantics say such rows match nothing,
        # so route them nowhere (join_bucket already clamps its side)
        reps = np.maximum((b1 - b0 + 1).astype(np.int64), 0)
        idx = np.repeat(np.arange(batch.num_rows), reps)
        buckets = (np.arange(int(reps.sum()))
                   - np.repeat(np.concatenate([[0],
                                               np.cumsum(reps)[:-1]]), reps)
                   + np.repeat(b0, reps)).astype(np.int32)
        out = batch.take(pa.array(idx))
        out = out.append_column("__bucket", pa.array(buckets, pa.int32()))
        return out.append_column(
            "__side", pa.array(["r"] * len(idx), pa.string()))

    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    all_cols = l_cols + r_cols
    types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    types.update({n: t for n, t in zip(r_schema.names, r_schema.types)})

    def align(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in all_cols:
            cols[c] = (batch.column(c) if c in batch.column_names
                       else pa.nulls(batch.num_rows, types[c]))
        cols["__bucket"] = batch.column("__bucket")
        cols["__side"] = batch.column("__side")
        return pa.table(cols)

    tagged = left.map_batches(route_left, batch_format="pyarrow") \
        .map_batches(align, batch_format="pyarrow").union(
            right.map_batches(route_right, batch_format="pyarrow")
            .map_batches(align, batch_format="pyarrow"))

    target = pa.schema([(c, types[c]) for c in all_cols])

    def join_bucket(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g.column("__side"), "l")
        lg = g.filter(is_l).select(l_cols).sort_by(value_col)
        rg = g.filter(pc.invert(is_l)).select(r_cols)
        if not lg.num_rows or not rg.num_rows:
            return target.empty_table()

        def f64(t: pa.Table, c: str) -> np.ndarray:
            return t.column(c).to_numpy().astype(np.float64)

        v = f64(lg, value_col)
        a = np.searchsorted(v, f64(rg, start_col), side="left")
        b = np.searchsorted(v, f64(rg, end_col), side="right")
        reps = np.maximum(b - a, 0)
        r_idx = np.repeat(np.arange(rg.num_rows), reps)
        off = np.concatenate([[0], np.cumsum(reps)[:-1]])
        l_idx = (np.arange(int(reps.sum())) - np.repeat(off, reps)
                 + np.repeat(a, reps))
        return pa.table({**{c: lg.column(c).take(l_idx) for c in l_cols},
                         **{c: rg.column(c).take(r_idx) for c in r_cols}})

    return tagged.groupby("__bucket").map_groups(
        lambda g: join_bucket(g.drop_columns(["__bucket"])),
        batch_format="pyarrow")


#: SCD2 open-interval sentinel: 9999-12-31T00:00:00Z in microseconds —
#: keeps valid_to a plain int64 (nullable ints float-promote in pandas
#: and break the driver's dtype-sensitive hash).
SCD2_OPEN_END_US = 253402214400000000


def scd2_intervals(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    state_col: str,
    tiebreak_col: str | None = None,
    sentinel: int = SCD2_OPEN_END_US,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Slowly-changing-dimension type-2 interval construction from a
    change-event stream: per key, order events by (ts, tiebreak), drop
    rows whose state equals the previous state (no-op updates), and
    emit one validity interval per surviving change —
    ``[valid_from, valid_to)`` with ``valid_to`` = the next change's
    timestamp, or ``sentinel`` for the current (open) version.  The
    warehouse dimension-history primitive (and the engine's
    latest-snapshot q118 is its last row).

    One hash(key) bucket shuffle co-locates each key's full timeline;
    inside a bucket everything is vectorized pandas (sort + per-key
    shift compare + per-key shift(-1) fill).  ``ts_col`` must be an
    integer column (epoch micros by convention) so interval arithmetic
    and the sentinel stay exact int64 cross-engine.  Ties: two changes
    of one key at the SAME (ts, tiebreak) have no defined order — pass
    a unique ``tiebreak_col`` (event id) to make the output a total
    function of the input.  Returns (key, state, valid_from, valid_to).
    """
    order = [key_col, ts_col] + ([tiebreak_col] if tiebreak_col else [])

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort").reset_index(drop=True)
        prev = g.groupby(key_col, sort=False)[state_col].shift(1)
        g = g[prev.isna() | (prev != g[state_col])]
        nxt = g.groupby(key_col, sort=False)[ts_col].shift(-1)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            state_col: g[state_col].to_numpy(),
            "valid_from": g[ts_col].to_numpy(np.int64),
            "valid_to": nxt.fillna(sentinel).astype("int64").to_numpy(),
        })

    return bucket_reduce(ds, key_col, build, n_buckets=n_buckets,
                         batch_format="pandas")


def forward_fill_daily(
    ds: ray.data.Dataset,
    key_col: str,
    us_col: str,
    value_col: str,
    tiebreak_col: str | None = None,
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Dense daily panel with last-observation-carried-forward: for
    every key and every day from the key's FIRST observation through
    the GLOBAL max day, the most recent observed value on or before
    that day — the gap-fill that turns sparse event streams into the
    rectangular panels downstream feature/trend jobs expect (q102's
    dense counts, with state instead of counts).

    ``value_col`` must already be integer (quantize currency to cents
    first — the q61 policy); the day index is pure integer floor
    ``us // day_us``.  Global [min, max] day comes from one O(blocks)
    partial pass (two ints to the driver, never rows); then one
    hash(key) bucket shuffle co-locates each key's timeline and the
    fill is vectorized per key (sorted observed days +
    ``searchsorted`` gather over the dense range).  Last observation
    per (key, day) is the max (us, tiebreak) row — pass a unique
    ``tiebreak_col`` so same-timestamp updates resolve
    deterministically.  Output rows = keys × days by contract (a dense
    panel), emitted from inside the bucket tasks — the operator itself
    never materializes them on the driver."""
    def day_minmax(batch: pa.Table) -> pa.Table:
        us = batch.column(us_col).to_numpy(zero_copy_only=False)
        if len(us) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        d = us.astype(np.int64) // day_us
        return pa.table({"lo": pa.array([int(d.min())], pa.int64()),
                         "hi": pa.array([int(d.max())], pa.int64())})

    parts = ds.map_batches(day_minmax, batch_format="pyarrow").take_all()
    if not parts:
        return ray.data.from_arrow(pa.table({
            key_col: pa.array([], pa.int64()),
            "day": pa.array([], pa.int64()),
            value_col: pa.array([], pa.int64())}))
    gmax = max(r["hi"] for r in parts)

    order = [key_col, us_col] + ([tiebreak_col] if tiebreak_col else [])

    def fill(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(order, kind="mergesort").reset_index(drop=True)
        g["day"] = g[us_col].to_numpy(np.int64) // day_us
        last = g.groupby([key_col, "day"], sort=False).tail(1)
        keys_out, days_out, vals_out = [], [], []
        for key, sub in last.groupby(key_col, sort=False):
            od = sub["day"].to_numpy(np.int64)
            ov = sub[value_col].to_numpy(np.int64)
            days = np.arange(od[0], gmax + 1, dtype=np.int64)
            idx = np.searchsorted(od, days, side="right") - 1
            keys_out.append(np.full(len(days), key, np.int64))
            days_out.append(days)
            vals_out.append(ov[idx])
        if not keys_out:
            return pa.table({key_col: pa.array([], pa.int64()),
                             "day": pa.array([], pa.int64()),
                             value_col: pa.array([], pa.int64())})
        return pa.table({
            key_col: pa.array(np.concatenate(keys_out), pa.int64()),
            "day": pa.array(np.concatenate(days_out), pa.int64()),
            value_col: pa.array(np.concatenate(vals_out), pa.int64())})

    return bucket_reduce(ds, key_col, fill, n_buckets=n_buckets,
                         batch_format="pandas")


def snake_pack(
    ds: ray.data.Dataset,
    weight_col: str,
    id_col: str,
    n_shards: int,
    n_bins: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Balanced shard assignment by snake (boustrophedon) packing:
    rank all rows by (weight DESC, id), then fold the rank sequence
    across the shards — ``pos = (rank−1) mod 2S``, ``shard = pos`` if
    ``pos < S`` else ``2S−1−pos`` — so each consecutive window of 2S
    heavy rows spreads one row to every shard in alternating order.
    The deterministic equal-work partitioner for heterogeneous row
    costs (per-shard totals land within one max-weight of each other
    on sorted-ish data), used to plan token-balanced training shards
    or skew-free work files.  Returns (id, weight, shard).

    The global rank is a HISTOGRAM-RANKED two-pass scan, never a
    full all-to-all sort: pass 1 buckets weights into ``n_bins``
    equi-width integer bins (global min/max from an O(blocks)
    two-int pre-pass) and reduces per-bin counts to the driver
    (≤ n_bins ints); the driver prefix-sums them into per-bin rank
    offsets; pass 2 shuffles once on the bin key and resolves exact
    ranks inside each bin with a vectorized (weight DESC, id) sort —
    bin populations are corpus-sized/n_bins on anything non-degenerate,
    and correctness never depends on balance (a single hot bin just
    sorts more rows locally)."""
    import pyarrow.compute as pc

    from ..schema import pd_to_arrow

    def minmax(batch: pa.Table) -> pa.Table:
        w = batch.column(weight_col).to_numpy(zero_copy_only=False)
        if len(w) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"lo": pa.array([int(w.min())], pa.int64()),
                         "hi": pa.array([int(w.max())], pa.int64())})

    parts = ds.map_batches(minmax, batch_format="pyarrow").take_all()
    if not parts:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            weight_col: pa.array([], pa.int64()),
            "shard": pa.array([], pa.int64())}))
    lo = min(r["lo"] for r in parts)
    hi = max(r["hi"] for r in parts)
    if n_bins is None:
        n_bins = int(max(64, min(4096, (est_rows or 0) // 250_000 + 64)))
    span = hi - lo + 1

    def binned(batch: pa.Table) -> pa.Table:
        w = batch.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # bin 0 holds the LARGEST weights so bin order == rank order
        b = (hi - w) * np.int64(n_bins) // np.int64(span)
        return pa.table({"__bin": pa.array(b.astype(np.int32)),
                         "n": pa.array(np.ones(len(w), np.int64))})

    cnt = (ds.map_batches(binned, batch_format="pyarrow")
           .groupby("__bin").sum("n").take_all())
    counts = np.zeros(n_bins, np.int64)
    for r in cnt:
        counts[r["__bin"]] = r["sum(n)"]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def tag(batch: pa.Table) -> pa.Table:
        w = batch.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        b = (hi - w) * np.int64(n_bins) // np.int64(span)
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            weight_col: pa.array(w),
            "__bin": pa.array(b.astype(np.int32))})

    two_s = 2 * n_shards

    def rank_bin(g: pd.DataFrame):
        g = g.sort_values([weight_col, id_col],
                          ascending=[False, True], kind="mergesort")
        base = int(offsets[int(g["__bin"].iloc[0])])
        rank = base + np.arange(1, len(g) + 1, dtype=np.int64)
        pos = (rank - 1) % two_s
        shard = np.where(pos < n_shards, pos, two_s - 1 - pos)
        out = pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            weight_col: g[weight_col].to_numpy(np.int64),
            "shard": shard.astype(np.int64)})
        return pd_to_arrow(out)

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__bin")
            .map_groups(rank_bin, batch_format="pandas"))


def peak_concurrency(
    intervals: ray.data.Dataset,
    start_col: str = "a",
    end_col: str = "b",
    n_bins: int = 256,
) -> int:
    """Maximum number of simultaneously-open half-open intervals
    [start, end) — peak concurrent sessions / bookings / GPU leases.
    The classic +1/−1 breakpoint sweep, distributed as a two-pass
    RANGE-BUCKETED scan (the snake_pack rank idiom applied to a prefix
    SUM): pass 1 equi-width-bins breakpoint times and reduces each
    bin's delta sum to the driver (≤ n_bins ints); the driver
    prefix-sums them into per-bin running-total offsets; pass 2
    shuffles once on the bin key, cumsums inside each bin from its
    offset, and returns per-bin maxima (≤ n_bins ints again) — the
    global peak is their max.  End breakpoints sort before starts at
    the same time (d = −1 first), the half-open convention; a start's
    running value includes all its time peers, matching a windowed
    ``SUM ... ORDER BY t, d`` with peers, so the maxima agree with the
    SQL frame semantics row-for-row."""
    from ..schema import pd_to_arrow

    def breakpoints(batch: pa.Table) -> pa.Table:
        a = batch.column(start_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        b = batch.column(end_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "t": pa.array(np.concatenate([a, b])),
            "d": pa.array(np.concatenate([
                np.ones(len(a), np.int64),
                -np.ones(len(b), np.int64)]))})

    bp = intervals.map_batches(
        breakpoints, batch_format="pyarrow").materialize()

    def minmax(batch: pa.Table) -> pa.Table:
        t = batch.column("t").to_numpy(zero_copy_only=False)
        if len(t) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"lo": pa.array([int(t.min())], pa.int64()),
                         "hi": pa.array([int(t.max())], pa.int64())})

    parts = bp.map_batches(minmax, batch_format="pyarrow").take_all()
    if not parts:
        return 0
    lo = min(r["lo"] for r in parts)
    hi = max(r["hi"] for r in parts)
    span = hi - lo + 1

    def binned(batch: pa.Table) -> pa.Table:
        t = batch.column("t").to_numpy(zero_copy_only=False)
        b = (t - lo) * np.int64(n_bins) // np.int64(span)
        out = batch.append_column("__bin",
                                  pa.array(b.astype(np.int32)))
        return out

    tagged = bp.map_batches(binned, batch_format="pyarrow").materialize()

    sums = (tagged.groupby("__bin").sum("d").take_all())
    deltas = np.zeros(n_bins, np.int64)
    for r in sums:
        deltas[r["__bin"]] = r["sum(d)"]
    offsets = np.concatenate([[0], np.cumsum(deltas)[:-1]])

    def local_max(g: pd.DataFrame):
        g = g.sort_values(["t", "d"], kind="mergesort")
        run = int(offsets[int(g["__bin"].iloc[0])]) + np.cumsum(
            g["d"].to_numpy(np.int64))
        return pd_to_arrow(pd.DataFrame(
            {"m": [int(run.max())]}))

    maxima = (tagged.groupby("__bin")
              .map_groups(lambda g: local_max(g), batch_format="pandas")
              .take_all())
    return max(r["m"] for r in maxima)


# --- sort-merge-bucket (SMB) layout join ------------------------------------
#
# The lakehouse bucketed-table pattern (Spark/Iceberg/Hive SMB): pay ONE
# hash-partitioned write per table (the layout), then every subsequent
# equi-join on the bucket key runs with ZERO shuffle — each task reads
# exactly one (left bucket, right bucket) pair from storage and joins it
# locally, because co-bucketing guarantees every occurrence of a key sits
# in the same bucket id on both sides.  At 100 TB this turns the join's
# all-to-all exchange into an embarrassingly-parallel map over bucket
# pairs; the layout cost amortizes over every downstream join on that key.

SMB_LAYOUT_VERSION = 1


def smb_bucket_ids(col, n_buckets: int) -> np.ndarray:
    """Deterministic bucket id per key (int64 → vectorized FNV-1a;
    strings → md5-derived u64).  Both sides of a future join MUST use
    the same function — this is the co-partitioning contract."""
    from .hashing import fnv1a_u64_vec, str_hash_u64_vec

    if pa.types.is_integer(col.type):
        k = col.to_numpy(zero_copy_only=False).astype(np.int64)
        h = fnv1a_u64_vec(k.view(np.uint64))
    else:
        h = str_hash_u64_vec(col.to_pylist())
    return (h % np.uint64(n_buckets)).astype(np.int32)


def smb_write(ds: ray.data.Dataset, out_dir: str, on: str,
              n_buckets: int = 64) -> None:
    """Write ``ds`` as Parquet hash-bucketed on ``on`` (hive-partitioned
    one directory per bucket).  Streaming: the bucket id is a stateless
    per-batch map; ``write_parquet(partition_cols=...)`` splits blocks by
    bucket at the sink, so nothing materializes."""

    def tag(batch: pa.Table, _n=n_buckets, _on=on) -> pa.Table:
        return batch.append_column(
            "__smb_bucket", pa.array(smb_bucket_ids(batch.column(_on), _n)))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["__smb_bucket"])


def _smb_read_bucket(base: str, bucket: int) -> "pa.Table | None":
    import os

    import pyarrow.parquet as pq

    d = f"{base}/__smb_bucket={bucket}"
    if not os.path.isdir(d):
        return None
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f"{d}/{f}") for f in files])


def smb_join(left_dir: str, right_dir: str, on: str,
             n_buckets: int = 64) -> ray.data.Dataset:
    """Zero-shuffle equi-join of two ``smb_write`` layouts bucketed on
    ``on`` with the SAME ``n_buckets``: one Ray task per bucket reads its
    (left, right) directory pair straight from storage and merges
    locally.  Inner join; non-key column names must be disjoint.

    Partitioning assumption (documented per the custom-operator policy):
    correctness requires both layouts co-bucketed by ``smb_bucket_ids``
    with equal ``n_buckets`` — a key's rows all meet in exactly one task.
    """
    import pyarrow.parquet as pq

    def first_schema(base: str) -> pa.Schema:
        import glob

        files = sorted(glob.glob(f"{base}/__smb_bucket=*/*.parquet"))
        if not files:
            raise FileNotFoundError(f"no SMB layout under {base}")
        return pq.read_schema(files[0])

    lsch, rsch = first_schema(left_dir), first_schema(right_dir)
    r_only = [f for f in rsch if f.name != on]
    overlap = ({f.name for f in lsch} - {on}) & {f.name for f in r_only}
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")
    out_schema = pa.schema(list(lsch) + r_only)

    def join_bucket(batch: pa.Table) -> pa.Table:
        parts = []
        for b in batch.column("id").to_pylist():
            lt = _smb_read_bucket(left_dir, int(b))
            rt = _smb_read_bucket(right_dir, int(b))
            if lt is None or rt is None or not lt.num_rows \
                    or not rt.num_rows:
                continue
            parts.append(_join_tables(lt, rt, [on], "inner"))
        if not parts:
            return out_schema.empty_table()
        return pa.concat_tables(parts)

    return (ray.data.range(n_buckets, override_num_blocks=n_buckets)
            .map_batches(join_bucket, batch_format="pyarrow"))
