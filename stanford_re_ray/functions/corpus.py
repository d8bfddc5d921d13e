"""Corpus-level statistics and rewriting operators for web-scale
training-data pipelines: vocabulary heavy-hitters, per-document TF-IDF
top terms, and C4-style cross-document line deduplication.

All three follow the engine's standard scale shapes:

- tokenization is zero-copy-vectorized Arrow C++ (``split_pattern_regex``
  + ``list_parent_indices`` — no Python per-token loop);
- every global aggregation is preceded by an explicit map-side combiner
  so only per-batch DISTINCT partials enter the shuffle, never
  per-occurrence rows;
- cross-document matching shuffles fixed-width digests, not line/document
  payloads; payloads move at most once (the final reassembly).

Word tokens are the explicit ASCII class ``[0-9A-Za-z_]+`` (see
``textstats._BPE_RE`` rationale: Python ``re`` is Unicode-aware, DuckDB's
RE2 is ASCII-only, so an explicit class keeps the cross-engine oracles
corpus-independent).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import pd_to_arrow
from .relational import bucket_reduce, resolve_n_blocks

_WORD_SPLIT_RE = r"[^0-9A-Za-z_]+"


def _tokenize_column(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """text column → list<string> of lowercased ASCII word tokens,
    entirely in Arrow C++ kernels.  Splitting on the NEGATED word class
    yields the same token stream as ``findall('[0-9A-Za-z_]+')`` once
    empty strings are dropped."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern_regex(
        pc.utf8_lower(pc.coalesce(texts, "")), pattern=_WORD_SPLIT_RE
    )
    # drop the empty strings split() leaves at boundaries
    flat = toks.flatten()
    keep = pc.not_equal(flat, "")
    parent = pc.list_parent_indices(toks)
    return parent.filter(keep), flat.filter(keep)


def term_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Map-side combiner for global term frequency: one (token, n) row per
    DISTINCT token of the batch.  At web scale this is what makes the
    vocabulary groupby feasible — a 10^12-doc corpus has ~10^15 token
    occurrences but each batch emits at most its distinct-token count
    (Zipf: tens of thousands), so the shuffle moves ~1e5× fewer rows."""
    _, flat = _tokenize_column(batch.column(text_col))
    if len(flat) == 0:
        return pa.table({"token": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    vc = flat.value_counts()
    return pa.table({"token": vc.field("values"),
                     "n": pc.cast(vc.field("counts"), pa.int64())})


def vocab_heavy_hitters(docs: ray.data.Dataset, top_n: int = 40,
                        text_col: str = "text") -> ray.data.Dataset:
    """Corpus vocabulary heavy-hitters: the ``top_n`` most frequent word
    tokens with exact global counts.

    Shape: vectorized per-batch ``value_counts`` combiner (above) → one
    hash groupby over (token) partials → global sort on
    (n_occurrences DESC, token ASC) → limit.  The sort input is one row
    per distinct token (vocab-sized, not corpus-sized); ties are broken
    by token text so output is a total order."""
    from ray.data.aggregate import Sum

    counts = (
        docs.map_batches(lambda b: term_count_partial(b, text_col),
                         batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n_occurrences"))
    )
    return counts.sort(["n_occurrences", "token"],
                       descending=[True, False]).limit(top_n)


def doc_term_freq(docs: ray.data.Dataset, text_col: str = "text",
                  id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, token, tf) — per-document term frequencies.  The
    (doc, token) grouping happens inside the batch with Arrow's native
    group_by (C++, no shuffle); output rows are per-batch exact since a
    document never spans batches (one input row = one document)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column(text_col))
        if len(flat) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        pairs = pa.table({id_col: batch.column(id_col).take(parent),
                          "token": flat})
        g = pairs.group_by([id_col, "token"]).aggregate([([], "count_all")])
        cnt = g.column(g.schema.names[-1])  # count_all's name varies by version
        return pa.table({id_col: g.column(id_col),
                         "token": g.column("token"),
                         "tf": pc.cast(cnt, pa.int64())})

    return docs.map_batches(per_batch, batch_format="pyarrow")


def tfidf_topk(docs: ray.data.Dataset, n_docs: int, k: int = 3,
               text_col: str = "text", id_col: str = "doc_id",
               est_rows: int | None = None) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms.

    Pipeline: ``doc_term_freq`` (in-batch, no shuffle) → document
    frequency via a (token) groupby over DISTINCT (doc, token) rows
    (already distinct by construction — no per-occurrence explosion) →
    both-sides-large ``hash_join`` tf⋈df on token → quantized integer
    score ``round(tf·ln(N/df)·1e6)`` → ``grouped_topk`` per document.

    The score is quantized to int64 IN the operator (not just for
    oracles): ranking on a float product of two engines'/libms' ``ln``
    would be tie-unstable; the integer score plus the token tiebreak is a
    total order at any parallelism.  Rounding is half-away-from-zero
    (``floor(x+0.5)`` — scores are non-negative) to match SQL ROUND
    rather than numpy's banker's rounding.

    ``n_docs`` is the corpus document count — pass it from Parquet
    footer metadata (free) rather than a ``count()`` pass."""
    from ray.data.aggregate import Count

    from .relational import grouped_topk, hash_join

    tf = doc_term_freq(docs, text_col=text_col, id_col=id_col)
    df = tf.groupby("token").aggregate(Count(alias_name="df"))
    joined = hash_join(tf, df, on="token", how="inner", est_rows=est_rows)

    def score(batch: pa.Table) -> pa.Table:
        tfv = batch.column("tf").to_numpy().astype(np.float64)
        dfv = batch.column("df").to_numpy().astype(np.float64)
        s = np.floor(tfv * np.log(float(n_docs) / dfv) * 1e6 + 0.5)
        return batch.append_column("score_q", pa.array(s.astype(np.int64)))

    scored = joined.map_batches(score, batch_format="pyarrow")
    return grouped_topk(scored, key=id_col, order_by="score_q", k=k,
                        descending=True, tiebreak=["token"],
                        est_rows=est_rows)


# --- C4-style line-level dedup ---------------------------------------------


def _split_lines(batch: pa.Table, text_col: str,
                 id_col: str) -> tuple[pa.Array, pa.Array, pa.Array]:
    """text column → (doc_id, line_no, line) flattened, Arrow-vectorized."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lists = pc.split_pattern(pc.coalesce(texts, ""), pattern="\n")
    parent = pc.list_parent_indices(lists)
    flat = lists.flatten()
    # line_no = position within the parent list
    offsets = np.asarray(lists.offsets)
    line_no = np.arange(len(flat), dtype=np.int64) - offsets[
        np.asarray(parent, dtype=np.int64)]
    return (batch.column(id_col).take(parent), pa.array(line_no), flat)


def line_dedup(docs: ray.data.Dataset, min_line_chars: int = 30,
               text_col: str = "text", id_col: str = "doc_id",
               est_rows: int | None = None) -> ray.data.Dataset:
    """C4-style cross-document line deduplication: every line of
    ``min_line_chars`` or more that occurs verbatim anywhere else in the
    corpus is kept only at its FIRST occurrence (smallest
    (doc_id, line_no)); shorter lines always survive.  Returns one row
    per surviving document: (doc_id, n_lines_kept, clean_md5) where
    clean_md5 is the md5 hex of the kept lines rejoined with
    newlines.  C4 (Raffel et al., JMLR 2020 §2.2) applies exactly this
    filter with a three-sentence threshold; the character threshold
    keeps the operator tokenizer-independent.

    Scale shape — the document text crosses the wire at most once:

    1. split to lines in-batch (Arrow kernels);
    2. dedup decisions shuffle only (md5_digest, doc_id, line_no) — a
       fixed 48-byte row regardless of line length — hash-bucketed by
       digest, min-keeper per digest found per bucket (one shuffle);
    3. removals (typically a tiny fraction) anti-join back against the
       full line table on (doc_id, line_no) via ``hash_join``;
    4. per-document reassembly groupby — the single payload shuffle.

    md5 (128-bit) keying makes digest collisions ~1e-18 even at 10^10
    distinct lines; decisions are exact otherwise (no within-group
    re-verify needed).
    """
    from .relational import hash_join

    def to_lines(batch: pa.Table) -> pa.Table:
        ids, line_no, lines = _split_lines(batch, text_col, id_col)
        return pa.table({id_col: ids, "line_no": line_no, "line": lines})

    lines = docs.map_batches(to_lines, batch_format="pyarrow")

    def digest_partial(batch: pa.Table) -> pa.Table:
        ln = batch.column("line")
        long_mask = pc.greater_equal(pc.utf8_length(ln), min_line_chars)
        part = batch.filter(long_mask)
        texts = part.column("line").to_pylist()
        digests = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        return pa.table({"h": pa.array(digests, pa.string()),
                         id_col: part.column(id_col),
                         "line_no": part.column("line_no")})

    def removals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", id_col, "line_no"], kind="mergesort")
        dup = g.duplicated("h", keep="first")
        return g.loc[dup, [id_col, "line_no"]]

    remove = bucket_reduce(
        lines.map_batches(digest_partial, batch_format="pyarrow"), "h",
        removals, est_rows=est_rows, batch_format="pandas")
    kept = hash_join(lines, remove, on=[id_col, "line_no"], how="anti",
                     est_rows=est_rows)

    def reassemble(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("line_no", kind="mergesort")
        text = "\n".join(g["line"])
        return pd_to_arrow(pd.DataFrame({
            id_col: [g[id_col].iloc[0]],
            "n_lines_kept": np.array([len(g)], dtype=np.int64),
            "clean_md5": [hashlib.md5(text.encode("utf-8")).hexdigest()],
        }))

    return kept.groupby(id_col).map_groups(reassemble, batch_format="pandas")


def boilerplate_clean(docs: ray.data.Dataset, max_docs: int,
                      min_line_chars: int = 30,
                      text_col: str = "text", id_col: str = "doc_id",
                      est_rows: int | None = None,
                      broadcast_limit: int = 5_000_000) -> ray.data.Dataset:
    """CCNet/C4-style boilerplate-line removal: every line of
    ``min_line_chars`` or more that occurs in MORE than ``max_docs``
    distinct documents is removed from ALL of them (navigation bars,
    cookie banners, shared footers); shorter lines always survive.
    Unlike ``line_dedup`` (keep-first), boilerplate is dropped at every
    occurrence — the CCNet §3.1 / C4 §2.2 companion pass.  Returns one
    row per document that keeps at least one line: (doc_id,
    n_lines_kept, n_lines_removed, clean_md5).

    Scale shape — document text NEVER crosses the wire:

    1. counting pass: per batch, split to lines (Arrow kernels), md5 the
       long ones, dedup (doc, digest) in-batch (a doc's rows never span
       batches), emit per-digest partial doc-counts — only (digest,
       count) rows shuffle into one groupby-sum;
    2. the frequent-digest table is by construction tiny (each entry
       already occurs in > ``max_docs`` documents, so there can be at
       most n_docs/max_docs of them) — it is collected and broadcast
       via ``ray.put``; a corpus whose frequent set tops
       ``broadcast_limit`` raises rather than silently OOMing
       (raise the threshold — a frequent set that size means the
       threshold is below the corpus's natural duplication floor);
    3. removal pass: a second in-batch map over the ORIGINAL docs
       filters against the broadcast set and rejoins — no reassembly
       shuffle, because lines never left their document.
    """
    from ..state import broadcast as bcast

    def count_partial(batch: pa.Table) -> pa.Table:
        ids, _ln, lines = _split_lines(batch, text_col, id_col)
        long_mask = pc.greater_equal(pc.utf8_length(lines), min_line_chars)
        ids = ids.filter(long_mask).to_pylist()
        texts = lines.filter(long_mask).to_pylist()
        seen = dict.fromkeys(
            (i, hashlib.md5(t.encode("utf-8")).hexdigest())
            for i, t in zip(ids, texts))
        counts: dict[str, int] = {}
        for _i, h in seen:
            counts[h] = counts.get(h, 0) + 1
        hs = list(counts)
        return pa.table({
            "h": pa.array(hs, pa.string()),
            "c": pa.array([counts[h] for h in hs], pa.int64()),
        })

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("h", sort=True)["c"].sum().reset_index()
        return agg.loc[agg["c"] > max_docs, ["h"]]

    freq = bucket_reduce(
        docs.map_batches(count_partial, batch_format="pyarrow"), "h",
        bucket_sum, est_rows=est_rows, batch_format="pandas").materialize()
    n_freq = freq.count()
    if n_freq > broadcast_limit:
        raise ValueError(
            f"boilerplate_clean: {n_freq} distinct lines exceed the "
            f"max_docs={max_docs} threshold (> broadcast_limit="
            f"{broadcast_limit}); raise the threshold")
    freq_set = (frozenset(freq.to_pandas()["h"]) if n_freq
                else frozenset())
    ref = bcast.put(freq_set)

    def clean(batch: pa.Table, _ref=ref) -> pa.Table:
        gone = bcast.fetch(_ref)
        ids_out, kept_out, removed_out, md5_out = [], [], [], []
        for did, text in zip(batch.column(id_col).to_pylist(),
                             batch.column(text_col).to_pylist()):
            kept, removed = [], 0
            for line in (text or "").split("\n"):
                if (len(line) >= min_line_chars and
                        hashlib.md5(line.encode("utf-8")).hexdigest()
                        in gone):
                    removed += 1
                else:
                    kept.append(line)
            if not kept:
                continue
            ids_out.append(did)
            kept_out.append(len(kept))
            removed_out.append(removed)
            md5_out.append(hashlib.md5(
                "\n".join(kept).encode("utf-8")).hexdigest())
        return pa.table({
            id_col: pa.array(ids_out, batch.schema.field(id_col).type),
            "n_lines_kept": pa.array(kept_out, pa.int64()),
            "n_lines_removed": pa.array(removed_out, pa.int64()),
            "clean_md5": pa.array(md5_out, pa.string()),
        })

    return docs.map_batches(clean, batch_format="pyarrow")


def inverted_index(docs: ray.data.Dataset, max_df: int | None = None,
                   text_col: str = "text", id_col: str = "doc_id",
                   est_rows: int | None = None) -> ray.data.Dataset:
    """Inverted index construction: one row per token with its document
    frequency and the ascending-sorted posting list (comma-joined string —
    a stable, engine-neutral representation; a real sink would write the
    rows Parquet-partitioned by hash(token) so lookups prune at the
    directory level).

    Shape: ``doc_term_freq`` emits DISTINCT (doc, token) in-batch (no
    per-occurrence rows) → one hash(token)-bucket shuffle → per-bucket
    vectorized sort + groupby-join.  ``max_df`` drops tokens appearing in
    more than that many documents (stopword posting lists are the skew
    hazard: a token in every one of 10^12 docs is one giant row — real
    deployments segment such lists; capping df is the standard pruning
    since stopword postings carry no retrieval signal)."""
    pairs = doc_term_freq(docs, text_col=text_col, id_col=id_col)

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", id_col], kind="mergesort")
        agg = g.groupby("token", sort=True)[id_col].agg(
            df="size", postings=lambda s: ",".join(map(str, s)))
        agg = agg.reset_index()
        if max_df is not None:
            agg = agg[agg["df"] <= max_df]
        agg["df"] = agg["df"].astype("int64")
        return agg

    return bucket_reduce(pairs, "token", build, est_rows=est_rows,
                         batch_format="pandas")


def bigram_lm_topk(docs: ray.data.Dataset, top_n: int = 50,
                   text_col: str = "text",
                   est_rows: int | None = None) -> ray.data.Dataset:
    """Bigram language-model counts: for the ``top_n`` most frequent
    within-document bigrams, the conditional probability
    ``P(w2|w1) = c(w1,w2) / c(w1,·)`` as a quantized integer
    (``round(p·1e6)``, half-away like the TF-IDF score).

    Shape: bigrams pair consecutive tokens WITHIN a document (vectorized:
    adjacent flattened tokens with equal parent index), per-batch Arrow
    group_by combiner → one (w1, w2) groupby SUM; the denominator
    ``c(w1,·)`` re-derives from the bigram table itself (a second, much
    smaller groupby) — no separate pass over the corpus — and joins back
    via ``hash_join``.  Final sort+limit runs over bigram-vocab-sized
    counts, never occurrences."""
    from ray.data.aggregate import Sum

    from .relational import hash_join

    def partial(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column(text_col))
        p = np.asarray(parent, dtype=np.int64)
        if len(p) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        adj = p[:-1] == p[1:]
        pairs = pa.table({"w1": flat.slice(0, len(flat) - 1).filter(
                              pa.array(adj)),
                          "w2": flat.slice(1).filter(pa.array(adj))})
        g = pairs.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": g.column("w1"), "w2": g.column("w2"),
                         "n": pc.cast(g.column(g.schema.names[-1]),
                                      pa.int64())})

    c12 = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="c12")))
    c1 = c12.groupby("w1").aggregate(Sum("c12", alias_name="c1"))
    joined = hash_join(c12, c1, on="w1", how="inner", est_rows=est_rows)

    def prob(batch: pa.Table) -> pa.Table:
        a = batch.column("c12").to_numpy().astype(np.float64)
        b = batch.column("c1").to_numpy().astype(np.float64)
        p_q = np.floor(a * 1e6 / b + 0.5).astype(np.int64)
        return batch.append_column("p_q", pa.array(p_q))

    return (joined.map_batches(prob, batch_format="pyarrow")
            .sort(["c12", "w1", "w2"], descending=[True, False, False])
            .limit(top_n))


def _doc_bigram_counts(docs: ray.data.Dataset, parity: int | None,
                       id_col: str, text_col: str,
                       per_doc: bool) -> ray.data.Dataset:
    """(w1, w2[, doc_id], n) within-document bigram occurrence counts,
    optionally restricted to ``id_col % 2 == parity`` rows.  Vectorized:
    adjacent flattened tokens with equal parent index, one Arrow
    group_by combiner per batch."""

    def partial(batch: pa.Table) -> pa.Table:
        if parity is not None:
            ids = np.asarray(batch.column(id_col).combine_chunks())
            batch = batch.filter(pa.array(ids % 2 == parity))
        keys = (["doc_id", "w1", "w2"] if per_doc else ["w1", "w2"])
        empty = {k: pa.array([], pa.int64() if k == "doc_id"
                             else pa.string()) for k in keys}
        empty["n"] = pa.array([], pa.int64())
        parent, flat = _tokenize_column(batch.column(text_col))
        p = np.asarray(parent, dtype=np.int64)
        if len(p) < 2:
            return pa.table(empty)
        adj = p[:-1] == p[1:]
        cols = {"w1": flat.slice(0, len(flat) - 1).filter(pa.array(adj)),
                "w2": flat.slice(1).filter(pa.array(adj))}
        if per_doc:
            cols["doc_id"] = batch.column(id_col).take(
                pa.array(p[:-1][adj], pa.int64()))
        g = pa.table(cols).group_by(keys).aggregate([([], "count_all")])
        out = {k: g.column(k) for k in keys}
        out["n"] = pc.cast(g.column(g.schema.names[-1]), pa.int64())
        return pa.table(out)

    return docs.map_batches(partial, batch_format="pyarrow")


_TOKH_CACHE: dict[str, np.int64] = {}


def _token_hash_vec(tokens: list) -> np.ndarray:
    """Per-token stable 64-bit hashes (md5-derived, the repo hash), one
    md5 per DISTINCT token per worker (Zipfian vocabularies make the
    cache hit rate ~99%)."""
    from .hashing import stable_u64

    if len(_TOKH_CACHE) > (1 << 20):
        _TOKH_CACHE.clear()
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, t in enumerate(tokens):
        h = _TOKH_CACHE.get(t)
        if h is None:
            h = _TOKH_CACHE[t] = np.uint64(stable_u64(t))
        out[i] = h
    return out


def _mix_bigram(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit combine of two token hashes (splitmix-style
    multiply + xor-shift) — vectorized, no per-pair string building."""
    with np.errstate(over="ignore"):
        x = h1 * np.uint64(0x9E3779B97F4A7C15) ^ h2
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
    return x


def _doc_bigram_hash_counts(docs: ray.data.Dataset, parity: int | None,
                            id_col: str, text_col: str,
                            per_doc: bool) -> ray.data.Dataset:
    """Digest-keyed twin of ``_doc_bigram_counts``: bigrams ride shuffles
    as 64-bit combines of per-token hashes, never as strings — the
    q56-CDC/q129 digest-key rule.  Emits per-batch combiner rows
    (h12, h1[, doc_id], n).  64-bit collisions are
    negligible below ~10^8 distinct bigrams; swap ``_mix_bigram`` for a
    128-bit digest beyond (same note as CDC)."""

    def partial(batch: pa.Table) -> pa.Table:
        if parity is not None:
            ids = np.asarray(batch.column(id_col).combine_chunks())
            batch = batch.filter(pa.array(ids % 2 == parity))
        parent, flat = _tokenize_column(batch.column(text_col))
        p = np.asarray(parent, dtype=np.int64)
        cols: dict = {"h12": pa.array([], pa.int64()),
                      "h1": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())}
        if per_doc:
            cols["doc_id"] = pa.array([], pa.int64())
        if len(p) < 2:
            return pa.table(cols)
        th = _token_hash_vec(flat.to_pylist())
        adj = p[:-1] == p[1:]
        h1 = th[:-1][adj]
        h12 = _mix_bigram(h1, th[1:][adj])
        df = pd.DataFrame({"h12": h12.view(np.int64),
                           "h1": h1.view(np.int64)})
        if per_doc:
            df["doc_id"] = np.asarray(
                batch.column(id_col).combine_chunks())[p[:-1][adj]]
            g = df.groupby(["doc_id", "h12"], as_index=False) \
                .agg(h1=("h1", "first"), n=("h1", "size"))
        else:
            g = df.groupby("h12", as_index=False) \
                .agg(h1=("h1", "first"), n=("h1", "size"))
        out = {"h12": pa.array(g["h12"].to_numpy(np.int64)),
               "h1": pa.array(g["h1"].to_numpy(np.int64)),
               "n": pa.array(g["n"].to_numpy(np.int64))}
        if per_doc:
            out["doc_id"] = pa.array(g["doc_id"].to_numpy(np.int64))
        return pa.table(out)

    return docs.map_batches(partial, batch_format="pyarrow")


def perplexity_scores(docs: ray.data.Dataset,
                      id_col: str = "doc_id",
                      text_col: str = "text",
                      quantum: int = 1_000_000,
                      est_rows: int | None = None) -> ray.data.Dataset:
    """CCNet-style LM quality scoring: train a bigram LM on the even-id
    half of the corpus, score every odd-id document under it.  Returns
    (doc_id, lp_total_q, n_bigrams, n_oov) — the total log-probability
    as an INTEGER (per-bigram ``floor(ln(c12/c1)·quantum + 0.5)`` times
    the occurrence count), so every shuffle reduction is an associative
    int SUM and the score is bit-deterministic cross-engine.  Consumers
    derive perplexity as ``exp(-lp_total_q / (quantum·n_bigrams))`` and
    filter on it; OOV bigrams are counted, not scored (no smoothing —
    the scoring twin of ``bigram_lm_topk``).

    Scale shape (round-5 rewrite, ~6x): bigrams ride every shuffle as
    64-bit DIGESTS of per-token hashes, never as strings, and the
    bigram-vocabulary reductions run in hash-BUCKET ``map_groups`` with
    vectorized pandas reducers (the million-distinct-key rule) — the
    string-keyed sort groupbys this replaces spent ~85% of q52's wall
    time sorting pair strings.  The LM ⋈ scores join is an int-keyed
    ``hash_join`` on the digest (the LM table at web scale is itself
    too large to broadcast); scoring-side combiner rows join WITHOUT a
    prior global (doc, bigram) reduce — per-doc folding is additive.
    64-bit digests are collision-safe below ~10^8 distinct bigrams;
    swap ``_mix_bigram`` for 128 bits beyond (the CDC note)."""
    from .relational import hash_join

    # ONE h1-bucket shuffle finishes the c12 sums AND resolves c1/lp
    # in-bucket — no join: every copy of an h12 shares its h1, so rows
    # sharing h1 are already co-located and a hash_join here would only
    # add a second shuffle.
    def reduce_lp(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(["h1", "h12"], as_index=False).agg(c12=("n", "sum"))
        c1 = r.groupby("h1")["c12"].transform("sum").to_numpy(np.float64)
        a = r["c12"].to_numpy(np.float64)
        lp = np.floor(np.log(a / c1) * quantum + 0.5).astype(np.int64)
        return pd.DataFrame({"h12": r["h12"].to_numpy(np.int64),
                             "lp_q": lp})

    lm_q = bucket_reduce(
        _doc_bigram_hash_counts(docs, 0, id_col, text_col, per_doc=False),
        "h1", reduce_lp, n_buckets=256, batch_format="pandas")

    # scoring side: per-batch combiner rows join the LM directly — no
    # global (doc, bigram) groupby first; the per-doc fold is additive
    side = (_doc_bigram_hash_counts(docs, 1, id_col, text_col,
                                    per_doc=True)
            .map_batches(lambda t: t.select(["doc_id", "h12", "n"]),
                         batch_format="pyarrow"))
    joined = hash_join(side, lm_q, on="h12", how="left",
                       est_rows=est_rows)

    def fold(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch.column("n"), pa.int64(), safe=False) \
            .to_numpy().astype(np.int64)
        lp = pc.fill_null(batch.column("lp_q"), 0)
        lp = pc.cast(lp, pa.int64(), safe=False).to_numpy()
        oov = pc.is_null(batch.column("lp_q")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        did = pc.cast(batch.column("doc_id"), pa.int64(), safe=False) \
            .to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pa.array(did),
            "lp_part": pa.array(n * lp * (1 - oov)),
            "n_part": pa.array(n),
            "oov_part": pa.array(n * oov),
        })

    def reduce_doc(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("doc_id", as_index=False).agg(
            lp_total_q=("lp_part", "sum"), n_bigrams=("n_part", "sum"),
            n_oov=("oov_part", "sum"))
        return pd.DataFrame({
            c: r[c].to_numpy(np.int64)
            for c in ("doc_id", "lp_total_q", "n_bigrams", "n_oov")})

    return bucket_reduce(joined.map_batches(fold, batch_format="pyarrow"),
                         "doc_id", reduce_doc, n_buckets=256,
                         batch_format="pandas").sort("doc_id")


def bpe_train(docs: ray.data.Dataset, n_merges: int = 8,
              text_col: str = "text") -> pa.Table:
    """Distributed BPE tokenizer training: learn ``n_merges`` merge rules
    over the corpus.  Returns (rank, left, right, pair_count) — the merge
    table a tokenizer consumes, most frequent pair first, ties broken
    lexicographically (fully deterministic; pinned against a serial
    reference implementation in tests — iterative argmax is not
    SQL-expressible, so this is a pytest-gated operator like the model
    queries).

    Scale shape (the standard trick): the merge loop runs over the
    WORD-FREQUENCY table, not the corpus — one corpus pass builds
    (word, n) via the ``term_count_partial`` combiner, and each of the
    ``n_merges`` iterations is then vocab-sized: a map emits weighted
    symbol-pair partials, one (a, b) groupby SUMs them, a sort+limit(1)
    yields the winning pair (int counts → associative, deterministic),
    and a broadcast map rewrites the symbol sequences.  The vocab is
    materialized once per round (iterative-lineage rule, see
    ``pipelines.graph_ops.pagerank``)."""
    from ray.data.aggregate import Sum

    words = (docs.map_batches(lambda b: term_count_partial(b, text_col),
                              batch_format="pyarrow")
             .groupby("token").aggregate(Sum("n", alias_name="n")))
    vocab = words.map_batches(
        lambda b: pa.table({
            "syms": pa.array([list(w) for w in
                              b.column("token").to_pylist()],
                             pa.list_(pa.string())),
            "n": b.column("n"),
        }),
        batch_format="pyarrow").materialize()

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        def pair_partial(batch: pa.Table) -> pa.Table:
            from collections import Counter

            acc: Counter = Counter()
            ns = batch.column("n").to_pylist()
            for syms, n in zip(batch.column("syms").to_pylist(), ns):
                for a, b2 in zip(syms, syms[1:]):
                    acc[(a, b2)] += n
            if not acc:
                return pa.table({"a": pa.array([], pa.string()),
                                 "b": pa.array([], pa.string()),
                                 "c": pa.array([], pa.int64())})
            ks = list(acc)
            return pa.table({"a": pa.array([k[0] for k in ks]),
                             "b": pa.array([k[1] for k in ks]),
                             "c": pa.array([acc[k] for k in ks],
                                           pa.int64())})

        top = (vocab.map_batches(pair_partial, batch_format="pyarrow")
               .groupby(["a", "b"]).aggregate(Sum("c", alias_name="c"))
               .sort(["c", "a", "b"], descending=[True, False, False])
               .limit(1).take_all())
        if not top or top[0]["c"] < 2:
            break
        a, b, c = top[0]["a"], top[0]["b"], int(top[0]["c"])
        merges.append((rank, a, b, c))

        def apply_merge(batch: pa.Table, _a=a, _b=b) -> pa.Table:
            out = []
            for syms in batch.column("syms").to_pylist():
                i, new = 0, []
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == _a
                            and syms[i + 1] == _b):
                        new.append(_a + _b)
                        i += 2
                    else:
                        new.append(syms[i])
                        i += 1
                out.append(new)
            return pa.table({"syms": pa.array(out, pa.list_(pa.string())),
                             "n": batch.column("n")})

        vocab = vocab.map_batches(apply_merge,
                                  batch_format="pyarrow").materialize()

    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "pair_count": pa.array([m[3] for m in merges], pa.int64()),
    })


# --- BM25 retrieval ---------------------------------------------------------


def bm25_topk(docs: ray.data.Dataset, query_terms: list[str], n_docs: int,
              k: int = 10, k1: float = 1.25, b: float = 0.75,
              text_col: str = "text", id_col: str = "doc_id",
              quantum: int = 1_000_000) -> ray.data.Dataset:
    """BM25 retrieval: the ``k`` highest-scoring documents for a fixed
    query-term set (Robertson/Sparck-Jones idf, the Lucene ``+1``-inside-
    the-log variant so idf is always positive).

    Scale shape: two column-pruned passes over the text.  Pass A is a
    one-row-per-batch combiner for the global token total (avgdl comes
    from it plus the free Parquet-footer doc count — no driver-side
    loop).  Pass B tokenizes once and keeps ONLY postings for the query
    terms (``pc.is_in`` against the tiny term set), so the shuffled
    relation is bounded by |terms| x n_docs postings, never token
    occurrences.  Document frequencies reduce to |terms| rows
    (driver-collected, provably small) and are closed over by the
    scoring map; per-(doc, term) contributions are quantized to int64 so
    the per-document reduce is an associative integer SUM at any
    parallelism.  The final global top-k is a vocab-free sort+limit over
    one row per matching document.

    ``n_docs`` comes from Parquet footer metadata (free); the score is
    ``idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))`` with
    ``idf(t) = ln((N - df + 0.5)/(df + 0.5) + 1)``, quantized
    half-away-from-zero like the TF-IDF score (matches SQL ROUND/FLOOR
    conventions in the oracle)."""
    from ray.data.aggregate import Count, Sum

    terms = sorted(dict.fromkeys(query_terms))
    terms_arr = pa.array(terms, pa.string())

    def dl_partial(batch: pa.Table) -> pa.Table:
        _, flat = _tokenize_column(batch.column(text_col))
        return pa.table({"dl": pa.array([len(flat)], pa.int64())})

    total_tokens = int(
        docs.map_batches(dl_partial, batch_format="pyarrow").sum("dl"))
    avgdl = total_tokens / n_docs  # exact-int true division: both engines
    # round the same rational to the nearest double (ints < 2^53)

    def tf_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "token": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "dl": pa.array([], pa.int64())})
        parent, flat = _tokenize_column(batch.column(text_col))
        if len(flat) == 0:
            return empty
        p = np.asarray(parent, dtype=np.int64)
        dl = np.bincount(p, minlength=batch.num_rows).astype(np.int64)
        keep = pc.is_in(flat, value_set=terms_arr)
        fp = pa.array(p, pa.int64()).filter(keep)
        ft = flat.filter(keep)
        if len(ft) == 0:
            return empty
        g = (pa.table({"pid": fp, "token": ft})
             .group_by(["pid", "token"]).aggregate([([], "count_all")]))
        pid = g.column("pid").to_numpy()
        return pa.table({
            id_col: batch.column(id_col).take(g.column("pid")),
            "token": g.column("token"),
            "tf": pc.cast(g.column(g.schema.names[-1]), pa.int64()),
            "dl": pa.array(dl[pid], pa.int64()),
        })

    # bounded by |terms| x n_docs rows; materialized once so the df
    # reduce and the scoring map don't each re-tokenize the corpus
    postings = docs.map_batches(
        tf_partial, batch_format="pyarrow").materialize()

    df_pd = (postings.groupby("token")
             .aggregate(Count(alias_name="df")).to_pandas())
    if df_pd.empty:     # no query term occurs in the corpus
        import ray.data

        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score_q": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64())}))
    df_map = dict(zip(df_pd["token"], df_pd["df"].astype(np.int64)))
    df_arr = np.array([df_map.get(t, 0) for t in terms], dtype=np.float64)

    n_f = float(n_docs)

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy().astype(np.float64)
        dl = batch.column("dl").to_numpy().astype(np.float64)
        idx = pc.index_in(batch.column("token"),
                          value_set=terms_arr).to_numpy(
                              zero_copy_only=False).astype(np.int64)
        dfv = df_arr[idx]
        idf = np.log((n_f - dfv + 0.5) / (dfv + 0.5) + 1.0)
        s = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        sq = np.floor(s * quantum + 0.5).astype(np.int64)
        return pa.table({id_col: batch.column(id_col),
                         "contrib_q": pa.array(sq)})

    return (postings.map_batches(score, batch_format="pyarrow")
            .groupby(id_col)
            .aggregate(Sum("contrib_q", alias_name="score_q"),
                       Count(alias_name="n_terms"))
            .sort(["score_q", id_col], descending=[True, False])
            .limit(k))


# --- PMI collocations -------------------------------------------------------


def pmi_topk(docs: ray.data.Dataset, top_n: int = 50, min_count: int = 5,
             text_col: str = "text", quantum: int = 1_000_000,
             est_rows: int | None = None) -> ray.data.Dataset:
    """Pointwise-mutual-information collocations: the ``top_n``
    within-document bigrams by ``PMI = ln(p(w1,w2) / (p(w1) p(w2)))``
    among bigrams seen at least ``min_count`` times.

    Scale shape: one tokenize pass feeds BOTH count tables through
    per-batch Arrow group_by combiners (``_doc_bigram_counts`` /
    ``term_count_partial``), so only per-batch DISTINCT (w1,w2)/(token)
    partials shuffle.  The unigram table is vocab-sized and the bigram
    table bigram-vocab-sized; both totals come from small aggregates
    over those tables, and the c12 >= min_count filter shrinks the
    bigram relation BEFORE the two key-partitioned ``hash_join``s
    rehydrate c(w1) and c(w2) (the unigram table at web scale is itself
    too large to broadcast).  PMI is computed in one double expression
    written identically in the SQL oracle and quantized to int64, so the
    final sort+limit is a total order."""
    from ray.data.aggregate import Sum

    from .relational import hash_join

    nb = resolve_n_blocks(est_rows or 0)
    # groupby outputs arrive in many near-empty blocks; the joins below
    # pay by block count — repartition before materializing
    uni = (docs.map_batches(
               lambda bt: term_count_partial(bt, text_col),
               batch_format="pyarrow")
           .groupby("token").aggregate(Sum("n", alias_name="c"))
           .repartition(nb).materialize())
    c12 = (_doc_bigram_counts(docs, None, "doc_id", text_col,
                              per_doc=False)
           .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="c12"))
           .repartition(nb).materialize())

    total_uni = float(int(uni.sum("c")))
    total_big = float(int(c12.sum("c12")))

    frequent = c12.map_batches(
        lambda bt: bt.filter(pc.greater_equal(bt.column("c12"),
                                              min_count)),
        batch_format="pyarrow")
    uni1 = uni.map_batches(lambda bt: bt.rename_columns(["w1", "c1"]),
                           batch_format="pyarrow")
    uni2 = uni.map_batches(lambda bt: bt.rename_columns(["w2", "c2"]),
                           batch_format="pyarrow")
    j = hash_join(frequent, uni1, on="w1", how="inner", est_rows=est_rows)
    j = hash_join(j, uni2, on="w2", how="inner", est_rows=est_rows)

    def pmi(batch: pa.Table) -> pa.Table:
        c12v = batch.column("c12").to_numpy().astype(np.float64)
        c1v = batch.column("c1").to_numpy().astype(np.float64)
        c2v = batch.column("c2").to_numpy().astype(np.float64)
        val = np.log((c12v / total_big)
                     / ((c1v / total_uni) * (c2v / total_uni)))
        q = np.floor(val * quantum + 0.5).astype(np.int64)
        return pa.table({"w1": batch.column("w1"),
                         "w2": batch.column("w2"),
                         "c12": batch.column("c12"),
                         "pmi_q": pa.array(q)})

    return (j.map_batches(pmi, batch_format="pyarrow")
            .sort(["pmi_q", "w1", "w2"], descending=[True, False, False])
            .limit(top_n))


# --- per-document information/repetition signals ----------------------------


def token_entropy(docs: ray.data.Dataset, text_col: str = "text",
                  id_col: str = "doc_id",
                  quantum: int = 1_000_000_000) -> ray.data.Dataset:
    """Per-document token-distribution Shannon entropy — the
    information-density quality signal (low entropy = repetitive/spammy
    text).  Entirely in-batch (a document never spans batches): Arrow
    group_by for per-(doc, token) tf, vectorized ``-(p ln p)`` terms
    quantized to int64 BEFORE the per-doc sum, so the reduction is exact
    integer math and the SQL twin reproduces it bit-for-bit regardless
    of summation order.  No shuffle at any scale."""

    def per_batch(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "n_distinct": pa.array([], pa.int64()),
                          "entropy_q": pa.array([], pa.int64())})
        parent, flat = _tokenize_column(batch.column(text_col))
        if len(flat) == 0:
            return empty
        p = np.asarray(parent, dtype=np.int64)
        dl = np.bincount(p, minlength=batch.num_rows).astype(np.int64)
        g = (pa.table({"pid": pa.array(p, pa.int64()), "token": flat})
             .group_by(["pid", "token"]).aggregate([([], "count_all")]))
        pid = g.column("pid").to_numpy()
        tf = g.column(g.schema.names[-1]).to_numpy().astype(np.float64)
        pr = tf / dl[pid].astype(np.float64)
        term_q = np.floor(-(pr * np.log(pr)) * quantum + 0.5).astype(
            np.int64)
        ent = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(ent, pid, term_q)
        nd = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(nd, pid, 1)
        keep = dl > 0
        ids = batch.column(id_col).to_numpy()[keep]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(dl[keep]),
                         "n_distinct": pa.array(nd[keep]),
                         "entropy_q": pa.array(ent[keep])})

    return docs.map_batches(per_batch, batch_format="pyarrow")


def ngram_repetition(docs: ray.data.Dataset, n: int = 3,
                     text_col: str = "text",
                     id_col: str = "doc_id") -> ray.data.Dataset:
    """Per-document duplicate-n-gram fraction — the Gopher repetition
    signal (MassiveText filters drop documents whose duplicated n-gram
    share is high).  In-batch like ``token_entropy``: within-document
    n-grams are adjacent flattened tokens with equal parent index,
    distinct counting is one Arrow group_by, and the ppm ratio is exact
    integer arithmetic (``(dup*2e6 + n)/(2n)`` half-up) so the SQL twin
    matches bit-for-bit.  Documents shorter than ``n`` tokens emit no
    row (the ratio is undefined), as in the oracle."""

    def per_batch(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_ngrams": pa.array([], pa.int64()),
                          "n_distinct": pa.array([], pa.int64()),
                          "dup_ppm": pa.array([], pa.int64())})
        parent, flat = _tokenize_column(batch.column(text_col))
        if len(flat) < n:
            return empty
        p = np.asarray(parent, dtype=np.int64)
        m = len(p) - (n - 1)
        adj = np.ones(m, dtype=bool)
        for i in range(1, n):
            adj &= p[:m] == p[i:m + i]
        if not adj.any():
            return empty
        keep = pa.array(adj)
        cols = {"pid": pa.array(p[:m][adj], pa.int64())}
        for i in range(n):
            cols[f"w{i}"] = flat.slice(i, m).filter(keep)
        total = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(total, p[:m][adj], 1)
        g = (pa.table(cols)
             .group_by(list(cols.keys())).aggregate([([], "count_all")]))
        gpid = g.column("pid").to_numpy()
        distinct = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(distinct, gpid, 1)
        has = total > 0
        tot, dis = total[has], distinct[has]
        dup = tot - dis
        ppm = (dup * 2_000_000 + tot) // (2 * tot)
        ids = batch.column(id_col).to_numpy()[has]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_ngrams": pa.array(tot),
                         "n_distinct": pa.array(dis),
                         "dup_ppm": pa.array(ppm)})

    return docs.map_batches(per_batch, batch_format="pyarrow")


class BpeEncoder:
    """Actor-pool tokenization stage: APPLY a trained BPE merge table to
    the corpus — the step a training pipeline actually runs at 100 TB
    once ``bpe_train`` has produced the merges.

    Stateful-stage shape: the merge-rank dict builds ONCE per actor in
    ``__init__`` (pass the (rank, left, right) table from
    ``bpe_train``); ``__call__`` encodes a batch with a per-worker
    word→subwords memo (Zipf: steady-state cost is a dict probe per
    token, not a merge loop).  Output per doc: subword count, distinct
    subword count, and the sha1 of the space-joined subword stream (a
    pinnable digest — full id sequences would be the same plumbing with
    a vocab table).  Encoding is the standard greedy lowest-rank-first
    merge, bit-deterministic."""

    def __init__(self, merges: "pa.Table | list[tuple[str, str]]"):
        if isinstance(merges, pa.Table):
            pairs = list(zip(merges.column("left").to_pylist(),
                             merges.column("right").to_pylist()))
        else:
            pairs = list(merges)
        self.rank = {tuple(p): i for i, p in enumerate(pairs)}
        self._memo: dict[str, list[str]] = {}

    def _encode_word(self, word: str) -> list[str]:
        out = self._memo.get(word)
        if out is not None:
            return out
        syms = list(word)
        while len(syms) > 1:
            best, best_i = None, -1
            for i in range(len(syms) - 1):
                r = self.rank.get((syms[i], syms[i + 1]))
                if r is not None and (best is None or r < best):
                    best, best_i = r, i
            if best is None:
                break
            syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
        if len(self._memo) > (1 << 20):
            self._memo.clear()
        self._memo[word] = syms
        return syms

    def __call__(self, batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        p = np.asarray(parent, dtype=np.int64)
        toks = flat.to_pylist()
        per_doc: dict[int, list[str]] = {}
        for i, w in zip(p, toks):
            per_doc.setdefault(int(i), []).extend(self._encode_word(w))
        ids = batch.column("doc_id").to_pylist()
        n_sub, n_dist, digests = [], [], []
        for row in range(batch.num_rows):
            subs = per_doc.get(row, [])
            n_sub.append(len(subs))
            n_dist.append(len(dict.fromkeys(subs)))
            digests.append(hashlib.sha1(
                " ".join(subs).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_subwords": pa.array(n_sub, pa.int64()),
            "n_distinct_subwords": pa.array(n_dist, pa.int64()),
            "subword_sha1": pa.array(digests, pa.string()),
        })


def bpe_encode(docs: ray.data.Dataset, merges: pa.Table,
               concurrency: "int | tuple[int, int]" = (1, 8),
               batch_size: int = 64) -> ray.data.Dataset:
    """Corpus tokenization with a trained BPE table: ``bpe_train`` →
    ``bpe_encode`` is the full train-then-apply tokenizer loop.  The
    encoder is an ACTOR POOL (merge table + word memo built once per
    actor); cap the pool below cluster size or pass an instance for a
    task pool (the MinHasher lesson)."""
    return docs.map_batches(BpeEncoder, fn_constructor_args=(merges,),
                            batch_format="pyarrow",
                            concurrency=concurrency,
                            batch_size=batch_size)


def tfidf_query_topk(docs: ray.data.Dataset, query_terms: list[str],
                     n_docs: int, k: int = 10, text_col: str = "text",
                     id_col: str = "doc_id",
                     quantum: int = 1_000_000) -> ray.data.Dataset:
    """Vector-space (TF-IDF dot product) retrieval: the ``k``
    highest-scoring documents for a fixed query-term set — the lexical
    baseline BM25 refines, kept as its own operator so hybrid-retrieval
    fusion has two genuinely different rankers to fuse.

    Same scale shape as ``bm25_topk``: one column-pruned pass keeps only
    query-term postings (bounded by |terms| × n_docs rows), document
    frequencies reduce to |terms| driver rows, and the per-(doc, term)
    contribution ``round(tf · ln(N/df) · quantum)`` (q37's exact ROUND
    convention — half-away via floor(x+0.5), non-negative since
    df ≤ N) is quantized to int64 BEFORE the per-doc SUM, so the reduce
    is associative at any parallelism.  Final global top-k is a
    sort+limit over one row per matching doc, total order
    (score_q DESC, id)."""
    from ray.data.aggregate import Count, Sum

    terms = sorted(dict.fromkeys(query_terms))
    terms_arr = pa.array(terms, pa.string())

    def tf_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "token": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64())})
        parent, flat = _tokenize_column(batch.column(text_col))
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
        return pa.table({
            id_col: batch.column(id_col).take(g.column("pid")),
            "token": g.column("token"),
            "tf": pc.cast(g.column(g.schema.names[-1]), pa.int64()),
        })

    postings = docs.map_batches(
        tf_partial, batch_format="pyarrow").materialize()

    df_pd = (postings.groupby("token")
             .aggregate(Count(alias_name="df")).to_pandas())
    if df_pd.empty:
        import ray.data

        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score_q": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64())}))
    df_map = dict(zip(df_pd["token"], df_pd["df"].astype(np.int64)))
    df_arr = np.array([df_map.get(t, 0) for t in terms], dtype=np.float64)
    n_f = float(n_docs)

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy().astype(np.float64)
        idx = pc.index_in(batch.column("token"),
                          value_set=terms_arr).to_numpy(
                              zero_copy_only=False).astype(np.int64)
        s = tf * np.log(n_f / df_arr[idx])
        sq = np.floor(s * quantum + 0.5).astype(np.int64)
        return pa.table({id_col: batch.column(id_col),
                         "contrib_q": pa.array(sq)})

    return (postings.map_batches(score, batch_format="pyarrow")
            .groupby(id_col)
            .aggregate(Sum("contrib_q", alias_name="score_q"),
                       Count(alias_name="n_terms"))
            .sort(["score_q", id_col], descending=[True, False])
            .limit(k))


def rrf_fuse(ranked: "list[ray.data.Dataset]", names: list[str],
             id_col: str = "doc_id", k: int = 10,
             c: int = 60, quantum: int = 1_000_000_000) -> pa.Table:
    """Reciprocal-rank fusion of top-k retrieval lists — the standard
    hybrid-search combiner (lexical + dense, or any N rankers): each
    list contributes ``quantum // (c + rank)`` per document (integer
    division, exact cross-engine), fused score is the int sum, final
    order (rrf_q DESC, id).

    Every input must be a TOP-K-BOUNDED ranked list (id, score_q int64
    — the bm25_topk / tfidf_query_topk contract), so the driver-side
    fuse touches ≤ Σkᵢ rows by construction — never corpus-scale data
    (the brute_force_topk merge policy).  Ranks are (re)assigned here
    from the total order (score_q DESC, id), making fusion independent
    of input row order.  Output: (id, rrf_q, rank_<name>...) with
    rank 0 marking "absent from that list"."""
    assert len(ranked) == len(names) and names
    frames = []
    for ds, name in zip(ranked, names):
        df = ds.to_pandas()[[id_col, "score_q"]]
        df = df.sort_values(["score_q", id_col],
                            ascending=[False, True], kind="mergesort")
        df[f"rank_{name}"] = np.arange(1, len(df) + 1, dtype=np.int64)
        frames.append(df[[id_col, f"rank_{name}"]])
    out = frames[0]
    for df in frames[1:]:
        out = out.merge(df, on=id_col, how="outer")
    out = out.fillna(0)
    rrf = np.zeros(len(out), np.int64)
    for name in names:
        r = out[f"rank_{name}"].to_numpy(np.float64).astype(np.int64)
        out[f"rank_{name}"] = r
        present = r > 0
        rrf[present] += quantum // (c + r[present])
    out["rrf_q"] = rrf
    out = (out.sort_values(["rrf_q", id_col],
                           ascending=[False, True], kind="mergesort")
           .head(k).reset_index(drop=True))
    cols = [id_col, "rrf_q"] + [f"rank_{n}" for n in names]
    for col in cols:
        out[col] = out[col].astype("int64")
    return pd_to_arrow(out[cols])


def vocab_churn_topk(old_docs: ray.data.Dataset,
                     new_docs: ray.data.Dataset, k: int = 20,
                     min_total: int = 30, text_col: str = "text",
                     quantum: int = 1_000_000) -> ray.data.Dataset:
    """Vocabulary churn between two corpus snapshots: the ``k`` tokens
    whose frequency shifted the most between ``old_docs`` and
    ``new_docs`` — the drift monitor that catches topic shift, crawl
    breakage, or contamination between training-data versions.

    Churn is the symmetric smoothed frequency ratio in INTEGER ppm
    (``max(q·(new+1)//(old+1), q·(old+1)//(new+1))``, add-one so
    appear/disappear events rank highest without a division by zero),
    over tokens with ``min_total`` combined occurrences.  Shape: the
    ``term_count_partial`` combiner per side (per-batch DISTINCT token
    partials — the vocab_heavy_hitters contract), ONE vocab-sized
    token groupby with two int SUMs, vectorized churn + per-block
    top-k, global sort over ≤ k×blocks rows.  Total order
    (churn_ppm DESC, token)."""
    from ray.data.aggregate import Sum

    def side(which: str):
        def f(batch: pa.Table) -> pa.Table:
            t = term_count_partial(batch, text_col)
            z = pa.array(np.zeros(t.num_rows, np.int64))
            if which == "old":
                return pa.table({"token": t.column("token"),
                                 "n_old": t.column("n"), "n_new": z})
            return pa.table({"token": t.column("token"),
                             "n_old": z, "n_new": t.column("n")})
        return f

    tot = (old_docs.map_batches(side("old"), batch_format="pyarrow")
           .union(new_docs.map_batches(side("new"),
                                       batch_format="pyarrow"))
           .groupby("token")
           .aggregate(Sum("n_old", alias_name="n_old"),
                      Sum("n_new", alias_name="n_new")))

    def churn(batch: pa.Table) -> pa.Table:
        old = batch.column("n_old").to_numpy(
            zero_copy_only=False).astype(np.int64)
        new = batch.column("n_new").to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = old + new >= min_total
        tok = batch.column("token").filter(pa.array(keep))
        old, new = old[keep], new[keep]
        q = np.int64(quantum)
        ch = np.maximum(q * (new + 1) // (old + 1),
                        q * (old + 1) // (new + 1))
        t = pa.table({"token": tok, "n_old": pa.array(old),
                      "n_new": pa.array(new), "churn_ppm": pa.array(ch)})
        df = t.to_pandas().sort_values(
            ["churn_ppm", "token"], ascending=[False, True],
            kind="mergesort").head(k)
        return pd_to_arrow(df)

    return (tot.map_batches(churn, batch_format="pyarrow")
            .sort(["churn_ppm", "token"], descending=[True, False])
            .limit(k))


def boilerplate_attribution(docs: ray.data.Dataset,
                            source_col: str = "source",
                            min_line_chars: int = 30,
                            text_col: str = "text",
                            id_col: str = "doc_id",
                            est_rows: int | None = None
                            ) -> ray.data.Dataset:
    """Attribute duplicated-line volume to its origin: for every line of
    ``min_line_chars``+ that is a NON-canonical repeat (not the smallest
    (doc_id, line_no) occurrence — the exact complement of
    ``line_dedup``'s keep rule), charge one dup line and its char count
    to the containing document's source — the "which crawl source ships
    the boilerplate" curation report.  Returns
    (source, n_dup_lines, dup_chars).

    Same one-payload-pass shape as ``line_dedup``: dedup decisions
    shuffle only (md5 digest, doc, line_no, source, len) rows bucketed
    by digest; per-bucket pandas marks repeats and pre-aggregates per
    source, so the final groupby reduces ≤ sources × buckets rows."""
    from ray.data.aggregate import Sum

    def digest_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lists = pc.split_pattern(pc.coalesce(texts, ""), pattern="\n")
        parent = pc.list_parent_indices(lists)
        flat = lists.flatten()
        offsets = np.asarray(lists.offsets)
        line_no = np.arange(len(flat), dtype=np.int64) - offsets[
            np.asarray(parent, dtype=np.int64)]
        tb = pa.table({id_col: batch.column(id_col).take(parent),
                       "line_no": pa.array(line_no), "line": flat,
                       "src": batch.column(source_col).take(parent)})
        long_mask = pc.greater_equal(pc.utf8_length(tb.column("line")),
                                     min_line_chars)
        part = tb.filter(long_mask)
        texts = part.column("line").to_pylist()
        digests = [hashlib.md5(t.encode("utf-8")).hexdigest()
                   for t in texts]
        return pa.table({
            "h": pa.array(digests, pa.string()),
            id_col: part.column(id_col),
            "line_no": part.column("line_no"),
            "src": part.column("src"),
            "n": pc.cast(pc.utf8_length(part.column("line")), pa.int64())})

    def dup_partial(g: pd.DataFrame):
        g = g.sort_values(["h", id_col, "line_no"], kind="mergesort")
        dup = g[g.duplicated("h", keep="first")]
        out = (dup.groupby("src", sort=False)
               .agg(n_dup_lines=("h", "size"), dup_chars=("n", "sum"))
               .reset_index().rename(columns={"src": "source"}))
        for c in ("n_dup_lines", "dup_chars"):
            out[c] = out[c].astype("int64")
        if out.empty:
            return pa.table({"source": pa.array([], pa.string()),
                             "n_dup_lines": pa.array([], pa.int64()),
                             "dup_chars": pa.array([], pa.int64())})
        return out

    return (bucket_reduce(
                docs.map_batches(digest_partial, batch_format="pyarrow"),
                "h", dup_partial, est_rows=est_rows, batch_format="pandas")
            .groupby("source")
            .aggregate(Sum("n_dup_lines", alias_name="n_dup_lines"),
                       Sum("dup_chars", alias_name="dup_chars")))


# --- unigram-LM (SentencePiece-style) tokenizer training --------------------

def _uni_viterbi(word: str, scores: dict, max_piece_len: int) -> list:
    """Best segmentation of ``word`` under per-piece log-scores: plain
    left-to-right DP.  Tie-break is fixed — candidates scan with the
    LONGEST piece first and only a strictly better score displaces the
    incumbent — so the segmentation is deterministic for any score map.
    Every single character is guaranteed in the vocab (never pruned), so
    a path always exists."""
    n = len(word)
    best = [0.0] + [None] * n
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        b = None
        bj = -1
        for j in range(max(0, i - max_piece_len), i):
            s = scores.get(word[j:i])
            if s is None or best[j] is None:
                continue
            cand = best[j] + s
            if b is None or cand > b:
                b, bj = cand, j
        best[i], back[i] = b, bj
    out = []
    i = n
    while i > 0:
        j = back[i]
        out.append(word[j:i])
        i = j
    out.reverse()
    return out


def unigram_lm_train(docs: ray.data.Dataset, vocab_size: int = 96,
                     n_em: int = 2, max_piece_len: int = 3,
                     min_count: int = 2, seed_factor: int = 8,
                     text_col: str = "text") -> pa.Table:
    """Distributed unigram-LM (SentencePiece-style) tokenizer training —
    the probabilistic sibling of ``bpe_train``.  Returns the final
    (piece, count, logp_q) vocabulary, count DESC / piece ASC.

    Scale shape: everything runs over the WORD-FREQUENCY table (one
    corpus pass via the ``term_count_partial`` combiner), never the
    corpus.  Seed vocab = every ≤ ``max_piece_len``-char substring of
    the distinct words weighted by word freq (one map + one groupby),
    capped at ``seed_factor × vocab_size`` pieces; each EM round
    broadcasts the piece scores, Viterbi-segments the distinct words
    (hard EM — expected counts are INTEGER word frequencies, so the
    shuffle reduction stays associative per the determinism rule), and
    prunes to the next vocab budget by (count DESC, piece ASC).  Single
    characters are never pruned, so segmentation coverage is total.
    Iterative argmax/EM is not SQL-expressible — pytest-pinned against
    a serial reference like ``bpe_train``."""
    import math

    from ray.data.aggregate import Sum

    words = (docs.map_batches(lambda b: term_count_partial(b, text_col),
                              batch_format="pyarrow")
             .groupby("token").aggregate(Sum("n", alias_name="n"))
             .materialize())

    def substr_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        acc: Counter = Counter()
        ns = batch.column("n").to_pylist()
        for w, n in zip(batch.column("token").to_pylist(), ns):
            for L in range(1, max_piece_len + 1):
                for s in range(0, len(w) - L + 1):
                    acc[w[s:s + L]] += n
        ks = sorted(acc)
        return pa.table({"piece": pa.array(ks, pa.string()),
                         "n": pa.array([acc[k] for k in ks], pa.int64())})

    seed = (words.map_batches(substr_partial, batch_format="pyarrow")
            .groupby("piece").aggregate(Sum("n", alias_name="n"))
            .to_pandas())
    seed["n"] = seed["n"].astype("int64")
    chars = seed[seed["piece"].str.len() == 1]
    multi = seed[(seed["piece"].str.len() > 1)
                 & (seed["n"] >= min_count)]
    multi = multi.sort_values(["n", "piece"],
                              ascending=[False, True],
                              kind="mergesort")
    cap = max(seed_factor * vocab_size - len(chars), 0)
    vocab = pd.concat([chars, multi.head(cap)])

    for r in range(n_em):
        total = int(vocab["n"].sum())
        lt = math.log(total)
        scores = {p: math.log(int(c)) - lt
                  for p, c in zip(vocab["piece"], vocab["n"])}
        import ray as _ray

        ref = _ray.put(scores)

        def estep(batch: pa.Table, _ref=ref) -> pa.Table:
            from collections import Counter

            from ..state.broadcast import fetch

            sc = fetch(_ref)
            acc: Counter = Counter()
            ns = batch.column("n").to_pylist()
            for w, n in zip(batch.column("token").to_pylist(), ns):
                for piece in _uni_viterbi(w, sc, max_piece_len):
                    acc[piece] += n
            ks = sorted(acc)
            return pa.table({"piece": pa.array(ks, pa.string()),
                             "n": pa.array([acc[k] for k in ks],
                                           pa.int64())})

        counts = (words.map_batches(estep, batch_format="pyarrow")
                  .groupby("piece").aggregate(Sum("n", alias_name="n"))
                  .to_pandas())
        counts["n"] = counts["n"].astype("int64")
        # chars always survive (zero-count chars keep a floor of 1 so
        # log stays finite and coverage stays total)
        allp = vocab[["piece"]].merge(counts, on="piece", how="left")
        allp["n"] = allp["n"].fillna(0).astype("int64")
        is_char = allp["piece"].str.len() == 1
        allp.loc[is_char & (allp["n"] == 0), "n"] = 1
        keep_multi = allp[~is_char & (allp["n"] > 0)].sort_values(
            ["n", "piece"], ascending=[False, True], kind="mergesort")
        # geometric budget shrink toward vocab_size on the last round
        budget = vocab_size if r == n_em - 1 else max(
            vocab_size, int(len(allp) * 3 // 4))
        vocab = pd.concat([allp[is_char],
                           keep_multi.head(max(budget - int(is_char.sum()),
                                               0))])

    total = int(vocab["n"].sum())
    lt = math.log(total)
    out = vocab.sort_values(["n", "piece"], ascending=[False, True],
                            kind="mergesort").reset_index(drop=True)
    lp_q = [int(math.floor((math.log(int(c)) - lt) * 1e6))
            for c in out["n"]]
    return pa.table({"piece": pa.array(out["piece"], pa.string()),
                     "count": pa.array(out["n"].to_numpy(np.int64)),
                     "logp_q": pa.array(lp_q, pa.int64())})
