"""Arrow schemas for every logical table that flows between stages.

The reference's data model is object-oriented (KBPEntity / KBPair / KBTriple /
KBPSlotFill / SentenceGroup — SURVEY.md §1.1); here each becomes one Arrow
table schema, and every inter-stage record is Arrow-native (no pickled
objects between stages).  ``Maybe<T>`` (kbp/sf/common/Maybe.java) maps to
Arrow nullability.
"""

from __future__ import annotations

import pyarrow as pa

# Primary input (authoritative shape from BASELINE.json input_hint)
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# After S1 extract (html dropped immediately — it dominates row width)
DOCS = pa.schema(
    [
        ("url", pa.string()),
        ("doc_id", pa.string()),      # stable content-addressed id (sha1 of url)
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# After S2 NLP annotate: one row per sentence, token-parallel list columns
# (the CoreNLP CoreMap analog — SURVEY.md §1.4)
SENTENCES = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
        ("text", pa.string()),
        ("tokens", pa.list_(pa.string())),
        ("lemmas", pa.list_(pa.string())),
        ("pos", pa.list_(pa.string())),
        ("ner", pa.list_(pa.string())),
        # coref surrogate: representative antecedent per token ("" = none)
        ("antecedents", pa.list_(pa.string())),
    ]
)

# After S3 mention detection: entity + slot-candidate mentions
MENTIONS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("sent_idx", pa.int32()),
        ("span_begin", pa.int32()),
        ("span_end", pa.int32()),      # half-open token span (Span semantics)
        ("surface", pa.string()),
        ("canonical", pa.string()),    # antecedent-resolved surface
        ("ner", pa.string()),
        ("is_entity", pa.bool_()),     # PERSON/ORG head mention (potential subject)
    ]
)

# After S4 pair generation + featurization (the KBPair + Datum analog)
PAIRS = pa.schema(
    [
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("doc_id", pa.string()),
        ("sent_idx", pa.int32()),
        ("subj_begin", pa.int32()),
        ("subj_end", pa.int32()),
        ("obj_begin", pa.int32()),
        ("obj_end", pa.int32()),
        ("features", pa.list_(pa.int64())),   # hashed feature ids
    ]
)

# After S6 scoring + S7 consistency (the KBPSlotFill analog)
TRIPLES = pa.schema(
    [
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("score", pa.float64()),
        ("doc_id", pa.string()),
        ("sent_idx", pa.int32()),
        ("subj_begin", pa.int32()),
        ("subj_end", pa.int32()),
        ("obj_begin", pa.int32()),
        ("obj_end", pa.int32()),
    ]
)

# S8 graph materialization (EntityGraph → two datasets, SURVEY.md §1.4)
NODES = pa.schema(
    [
        ("entity_id", pa.string()),
        ("name", pa.string()),
        ("type", pa.string()),
        ("alt_names", pa.list_(pa.string())),
        ("n_mentions", pa.int64()),
    ]
)

EDGES = pa.schema(
    [
        ("src_id", pa.string()),
        ("pred", pa.string()),
        ("dst_id", pa.string()),
        ("score", pa.float64()),       # noisy-OR merged (EntityGraph.java:85-98)
        ("n_support", pa.int64()),
        ("doc_id", pa.string()),       # best provenance (argmax score)
        ("sent_idx", pa.int32()),
    ]
)

# Training knowledge base (KB TSV → KBTriple, KBPIR.java:141-188)
KB = pa.schema(
    [
        ("entity_id", pa.string()),
        ("entity_name", pa.string()),
        ("rel", pa.string()),
        ("slot_value", pa.string()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Reorder/cast a table's columns to a schema (missing columns become
    nulls). Keeps stage outputs stable regardless of construction order."""
    cols = []
    for f in schema:
        if f.name in table.column_names:
            cols.append(table.column(f.name).cast(f.type))
        else:
            cols.append(pa.nulls(table.num_rows, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def pd_to_arrow(df) -> pa.Table:
    """pandas → Arrow without pandas schema metadata.

    Group/join functions that run under ``map_groups(batch_format=
    "pandas")`` must return Arrow: pandas-formatted blocks force every
    downstream sort/aggregate through the (much slower) pandas block path
    — measured 6x on a 600k-row join→aggregate chain.
    """
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def untagged(batch) -> pa.Table:
    """A shuffle group or batch as Arrow without its ``__bucket`` tag.
    Reducers run on Arrow groups; a pandas DataFrame (direct callers and
    the single-process benchmark kernels pass them) is converted first."""
    t = batch if isinstance(batch, pa.Table) else pd_to_arrow(batch)
    return t.drop_columns(["__bucket"]) if "__bucket" in t.column_names else t


def str_lists(table: pa.Table, name: str) -> list:
    """``table.column(name).to_pylist()`` for a list<string> column, ~6x
    faster on token-like data: the flat values are dictionary-encoded so
    each DISTINCT string becomes a Python object once (webtext token
    columns are Zipfian — ~1.75M occurrences of ~10-100k distinct words);
    per-sentence lists are then rebuilt from the index array.  Output is
    element-identical to to_pylist; columns with nulls fall back to it."""
    col = table.column(name).combine_chunks()
    flat = col.flatten()
    if flat.null_count or col.null_count:
        return col.to_pylist()
    d = flat.dictionary_encode()
    vocab = d.dictionary.to_pylist()
    idx = d.indices.to_numpy(zero_copy_only=False).tolist()
    # flatten() covers offsets[0]:offsets[-1]; normalize so a sliced array
    # (non-zero first offset) indexes correctly — combine_chunks happens
    # to rebase today, but that is an implementation detail
    offs = col.offsets.to_numpy() - col.offsets[0].as_py()
    return [
        [vocab[i] for i in idx[offs[j]:offs[j + 1]]]
        for j in range(len(offs) - 1)
    ]
