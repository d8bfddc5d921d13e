"""Training-data curation operators: benchmark decontamination,
stratified (per-group rate) sampling, and sequence packing.

These are the data-mixing stages of an LLM pre-training pipeline — the
step between dedup/quality-filtering and the tokenizer.  Scale shapes:

- **Decontamination** treats the benchmark/eval side as SMALL by nature
  (a few thousand documents even when the corpus is 100 TB): its n-gram
  set is collected once, broadcast via ``ray.put``, and membership is an
  Arrow C++ ``is_in`` per corpus batch — the corpus side never shuffles.
- **Stratified sampling** needs only the per-stratum row counts (one
  tiny groupby) on the driver; the keep decision is a pure content-hash
  function per row, so the sample is reproducible at any parallelism
  and the payload never moves.
- **Sequence packing** is a distributed prefix-sum: per-range-bucket
  token totals (a few hundred ints) come to the driver, per-bucket
  offsets broadcast back, and each bucket resolves its documents'
  global token offsets independently.  Requires a dense-ordered integer
  key (doc_id) to derive range buckets — the partitioning assumption is
  stated on the function.

Tokenization matches ``functions.corpus`` (explicit ASCII word class so
DuckDB RE2 oracles stay corpus-independent).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import pd_to_arrow
from .corpus import _tokenize_column
from .hashing import stable_u64


def ngrams_arrow(parent: pa.Array, flat: pa.Array, n: int
                 ) -> tuple[pa.Array, pa.Array]:
    """Word n-grams from a flattened token stream, entirely in Arrow C++.

    ``parent``/``flat`` are ``_tokenize_column`` outputs (per-token parent
    row index + token).  Position ``i`` starts an n-gram iff token
    ``i+n-1`` exists and belongs to the same parent row.  Returns
    (parent_row_index, space-joined n-gram string) arrays.
    """
    m = len(flat) - (n - 1)
    if m <= 0:
        return (pa.array([], pa.int64()), pa.array([], pa.string()))
    p = np.asarray(parent)
    valid = pa.array(p[: m] == p[n - 1:])
    shifted = [flat.slice(k, m) for k in range(n)]
    joined = pc.binary_join_element_wise(*shifted, " ")
    return (pa.array(p[:m][np.asarray(valid)], pa.int64()),
            joined.filter(valid))


def decontaminate(
    docs: ray.data.Dataset,
    n: int = 4,
    eval_mod: int = 97,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Benchmark decontamination: count, per training document, the
    distinct word ``n``-grams it shares with the eval split (documents
    whose ``id_col % eval_mod == 0`` — stand-in for a held-out benchmark
    table).  Returns (doc_id, n_hits) for contaminated docs only.

    Scale shape: the eval side is small by construction (real benchmarks
    are a few MB against a 100 TB corpus) — its distinct n-grams are
    aggregated distributed, collected once, and broadcast; each corpus
    batch then runs one vectorized ``is_in`` + Arrow group_by.  A
    document's n-grams never leave its batch (a doc is one row), so the
    per-doc distinct count is exact with no corpus-side shuffle; only
    (doc_id, n_hits) survivor rows move.
    """

    def eval_ngram_partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col).combine_chunks())
        sub = batch.filter(pa.array(ids % eval_mod == 0))
        if sub.num_rows == 0:
            return pa.table({"ng": pa.array([], pa.string())})
        parent, flat = _tokenize_column(sub.column(text_col))
        _, ng = ngrams_arrow(parent, flat, n)
        return pa.table({"ng": pc.unique(ng)})

    eval_ngrams = (docs.map_batches(eval_ngram_partial,
                                    batch_format="pyarrow")
                   .unique("ng"))
    ng_ref = ray.put(pa.array(sorted(eval_ngrams), pa.string()))

    def hits(batch: pa.Table, _ref=ng_ref) -> pa.Table:
        from ..state.broadcast import fetch

        ev = fetch(_ref)
        ids = np.asarray(batch.column(id_col).combine_chunks())
        sub = batch.filter(pa.array(ids % eval_mod != 0))
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_hits": pa.array([], pa.int64())})
        if sub.num_rows == 0 or len(ev) == 0:
            return empty
        parent, flat = _tokenize_column(sub.column(text_col))
        gp, ng = ngrams_arrow(parent, flat, n)
        mask = pc.is_in(ng, value_set=ev)
        if pc.sum(mask).as_py() in (None, 0):
            return empty
        t = pa.table({id_col: sub.column(id_col).take(gp.filter(mask)),
                      "ng": ng.filter(mask)})
        per_doc = (t.group_by([id_col, "ng"]).aggregate([])
                   .group_by(id_col).aggregate([([], "count_all")]))
        return pa.table({
            id_col: per_doc.column(id_col),
            "n_hits": pc.cast(per_doc.column(per_doc.schema.names[-1]),
                              pa.int64()),
        })

    return docs.map_batches(hits, batch_format="pyarrow").sort(id_col)


def stratified_sample(
    docs: ray.data.Dataset,
    stratum_col: str = "lang",
    id_col: str = "doc_id",
    quantum: int = 1_000_000,
) -> ray.data.Dataset:
    """Deterministic stratified subsample that equalizes strata: every
    stratum is down-sampled at rate ``min_stratum_count / its_count`` via
    the engine's content-hash Bernoulli (md5 of the row key — the
    ``md5_number_upper`` cross-engine convention), so the expected output
    is a balanced mixture and membership is a pure function of the row.

    Scale shape: one tiny groupby-count (strata-sized result) on the
    driver; the keep filter is stateless per batch with the integer
    thresholds broadcast.  No payload shuffle; sampling is reproducible
    at any parallelism.  Rates are quantized to ``1/quantum`` exactly as
    in the SQL oracle (floor), so both engines make identical decisions.
    """
    counts = {r[stratum_col]: r["count()"]
              for r in docs.groupby(stratum_col).count().take_all()}
    if not counts:                 # empty input → empty sample
        return docs
    mc = min(counts.values())
    thresholds = {s: (quantum * mc) // c for s, c in counts.items()}
    thr_ref = ray.put(thresholds)

    def keep(batch: pa.Table, _ref=thr_ref) -> pa.Table:
        from ..state.broadcast import fetch

        thr = fetch(_ref)
        ids = batch.column(id_col).to_pylist()
        strata = batch.column(stratum_col).to_pylist()
        mask = [stable_u64(str(i)) % quantum < thr[s]
                for i, s in zip(ids, strata)]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs.map_batches(keep, batch_format="pyarrow")


def sequence_packing(
    docs: ray.data.Dataset,
    seq_len: int = 512,
    n_rows: int | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int | None = None,
) -> pa.Table:
    """GPT-style sequence packing: concatenate all documents in ``id_col``
    order into one token stream and cut it into fixed ``seq_len`` chunks;
    a document belongs to the pack where its first token lands.  Returns
    (pack_id, n_docs, n_tokens) per pack.

    This is a distributed prefix-sum (exclusive scan), the operator Ray
    Data lacks natively.  Partitioning assumption: ``id_col`` is a dense
    ordered integer key (0..N-1, as produced by the corpus writer), so
    range buckets ``id // ceil(N/B)`` are both balanced and
    order-preserving.  Pass 1 reduces each range bucket to one token
    total (B ints to the driver); the driver prefix-sums those into
    per-bucket offsets; pass 2 re-buckets, sorts WITHIN each bucket, and
    resolves every document's global offset from the bucket offset plus
    an in-bucket cumsum — each bucket is independent, so the scan costs
    one small groupby per pass, never a serial pass over the corpus.
    """
    if n_rows is None:
        n_rows = docs.count()
    if n_rows == 0:
        return pa.table({"pack_id": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_tokens": pa.array([], pa.int64())})
    if n_buckets is None:
        n_buckets = max(16, min(4096, n_rows // 50_000))
    span = -(-n_rows // n_buckets)

    def tok_counts(batch: pa.Table) -> pa.Table:
        parent, _ = _tokenize_column(batch.column(text_col))
        cnt = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(cnt, np.asarray(parent), 1)
        ids = batch.column(id_col)
        return pa.table({
            id_col: ids,
            "n_tok": pa.array(cnt),
            "__bucket": pc.cast(pc.divide(ids, span), pa.int64()),
        })

    counted = docs.map_batches(tok_counts,
                               batch_format="pyarrow").materialize()

    bucket_tot = {r["__bucket"]: r["sum(n_tok)"]
                  for r in counted.groupby("__bucket")
                  .sum("n_tok").take_all()}
    offsets, acc = {}, 0
    for b in sorted(bucket_tot):
        offsets[b] = acc
        acc += bucket_tot[b]
    off_ref = ray.put(offsets)

    def resolve(g: pd.DataFrame, _ref=off_ref) -> pa.Table:
        from ..state.broadcast import fetch

        off = fetch(_ref)
        g = g.sort_values(id_col, kind="mergesort")
        cum_before = off[int(g["__bucket"].iloc[0])] + \
            g["n_tok"].cumsum().shift(fill_value=0)
        pack = (cum_before // seq_len).astype("int64")
        out = pd.DataFrame({"pack_id": pack, "n_tok": g["n_tok"].values})
        agg = out.groupby("pack_id", sort=True).agg(
            n_docs=("n_tok", "size"), n_tokens=("n_tok", "sum"))
        return pa.table({
            "pack_id": pa.array(agg.index.to_numpy(np.int64)),
            "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
            "n_tokens": pa.array(agg["n_tokens"].to_numpy(np.int64)),
        })

    from ray.data.aggregate import Sum

    packs = (counted.groupby("__bucket")
             .map_groups(resolve, batch_format="pandas"))
    # a pack can straddle a bucket boundary → merge partials
    out = (packs.groupby("pack_id")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_tokens", alias_name="n_tokens"))
           .to_pandas().sort_values("pack_id").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pd_to_arrow(out)


def mixture_upsample(
    docs: ray.data.Dataset,
    stratum_col: str = "lang",
    id_col: str = "doc_id",
    quantum: int = 1_000_000,
) -> ray.data.Dataset:
    """Inverse-frequency upsampling with epoch indices — the upsampling
    twin of ``stratified_sample``: every stratum is repeated
    ``max_stratum_count / its_count`` times in expectation (integer part
    deterministic, fractional part a content-hash Bernoulli), so all
    strata reach the largest's expected size.  Emits one row per
    (document, epoch) with ``epoch`` ∈ [0, repeats) — the epoch plan a
    data loader consumes for low-resource-language balancing.

    Scale shape: one strata-sized groupby count to the driver; repeat
    factors quantized to integers (``(quantum·max)//count`` — no float
    math, so engines agree exactly) and broadcast; each batch expands
    locally via ``take`` on a repeat index (no shuffle; output payload
    moves once, already expanded).
    """
    counts = {r[stratum_col]: r["count()"]
              for r in docs.groupby(stratum_col).count().take_all()}
    mc = max(counts.values())
    rq = {s: (quantum * mc) // c for s, c in counts.items()}
    rq_ref = ray.put(rq)

    def expand(batch: pa.Table, _ref=rq_ref) -> pa.Table:
        from ..state.broadcast import fetch

        r = fetch(_ref)
        ids = batch.column(id_col).to_pylist()
        strata = batch.column(stratum_col).to_pylist()
        reps = np.fromiter(
            (r[s] // quantum
             + (stable_u64(str(i)) % quantum < r[s] % quantum)
             for i, s in zip(ids, strata)),
            dtype=np.int64, count=len(ids))
        idx = np.repeat(np.arange(len(ids)), reps)
        epoch = np.concatenate(
            [np.arange(k) for k in reps]) if len(idx) else \
            np.array([], dtype=np.int64)
        out = batch.take(pa.array(idx, pa.int64()))
        return out.append_column("epoch", pa.array(epoch, pa.int64()))

    return docs.map_batches(expand, batch_format="pyarrow")


def curate_corpus(
    docs: ray.data.Dataset,
    n: int = 4,
    eval_mod: int = 97,
    stratum_col: str = "lang",
    id_col: str = "doc_id",
    text_col: str = "text",
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """The full pre-training curation chain as ONE composed pipeline —
    quality filter → exact dedup → benchmark decontamination →
    stratum-balancing sample — returning the surviving (doc_id, stratum)
    rows.  Every stage is an already-oracled operator (q28/q09/q43/q45),
    so the COMPOSITION itself is value-checked cross-engine (q54).

    Stage shapes (each documented on its operator): the quality pass is
    a stateless vectorizable map; dedup shuffles (sha1, doc_id) only and
    keeps the min-id representative (semi join back, key-partitioned via
    ``hash_join`` beyond the broadcast limit); decontamination broadcasts
    the eval split's n-gram set and drops both contaminated docs and the
    eval rows themselves; the final sample re-counts strata on the CLEAN
    set (rates must reflect what survived, not the raw corpus)."""
    from .relational import hash_join, semi_anti_filter
    from .textstats import gopher_quality_batch

    # 1. quality: Gopher/C4 keep rule over full rows
    def quality_keep(batch: pa.Table) -> pa.Table:
        sig = gopher_quality_batch(batch)
        return batch.filter(sig.column("keep"))

    # materialized once: stages 2-4 each re-scan the survivor set (dedup
    # keys, eval n-grams, contamination probe, strata counts, sample) —
    # the object store holds/spills it, the production analog of
    # checkpointing survivors to Parquet between curation stages
    q = docs.map_batches(quality_keep,
                         batch_format="pyarrow").materialize()

    # 2. exact dedup: min doc_id per identical text among survivors
    from .dedup import exact_dedup

    winners = exact_dedup(q, col=text_col).materialize()
    kept_ids = winners.map_batches(
        lambda b: pa.table({id_col: b.column("doc_id")}),
        batch_format="pyarrow")
    BROADCAST_WINNER_LIMIT = 5_000_000
    n_winners = winners.count()
    if n_winners <= BROADCAST_WINNER_LIMIT:
        q = semi_anti_filter(q, set(kept_ids.unique(id_col)), id_col,
                             keep_matching=True)
    else:
        q = hash_join(q, kept_ids, on=id_col, how="semi",
                      est_rows=est_rows)

    # 3. decontaminate: drop eval rows and docs sharing any eval n-gram
    dirty = decontaminate(q, n=n, eval_mod=eval_mod, id_col=id_col,
                          text_col=text_col)
    dirty_ids = set(dirty.unique(id_col))  # contaminated ≪ corpus

    def clean_only(batch: pa.Table, _ref=ray.put(dirty_ids)) -> pa.Table:
        from ..state.broadcast import fetch

        bad = fetch(_ref)
        ids = np.asarray(batch.column(id_col).combine_chunks())
        mask = [(i % eval_mod != 0) and (int(i) not in bad) for i in ids]
        return batch.filter(pa.array(mask, pa.bool_()))

    clean = q.map_batches(clean_only, batch_format="pyarrow")

    # 4. balance strata over what actually survived
    out = stratified_sample(clean, stratum_col=stratum_col,
                            id_col=id_col)
    return out.map_batches(
        lambda b: pa.table({id_col: b.column(id_col),
                            stratum_col: b.column(stratum_col)}),
        batch_format="pyarrow").sort(id_col)


# --- DSIR importance weighting ----------------------------------------------

DSIR_BUCKETS = 4096
DSIR_TARGET_MOD = 97          # doc_id % 97 == 0 = the target/eval split
                              # (same convention as decontaminate)
DSIR_KEEP_RATIO_Q = 11_000    # keep iff mean per-token ratio >= 1.1% (ppm;
                              # corpus-wide mean is target_frac ~ 1%, so
                              # this keeps the target-like upper tail)


def dsir_importance(
    docs: ray.data.Dataset,
    n_buckets: int = DSIR_BUCKETS,
    target_mod: int = DSIR_TARGET_MOD,
    keep_ratio_q: int = DSIR_KEEP_RATIO_Q,
) -> ray.data.Dataset:
    """DSIR-style data selection (Xie et al. 2023, arXiv:2302.03169):
    score each document by how target-like its HASHED word-feature
    distribution is, then keep high scorers.  Hashing the features to a
    fixed bucket count is the paper's own scale trick — it makes the
    "language model" a 4096-int table that broadcasts for free no matter
    the corpus size.

    Quantized-integer variant for exact cross-engine parity: per bucket,
    ratio_q = round_half_up(1e6 * target_count / corpus_count) computed
    in pure integer arithmetic ((2e6·ct + cc) // (2·cc)); a document's
    score_q is the sum of its tokens' bucket ratios (multiplicity
    counted) and keep ⇔ score_q ≥ keep_ratio_q · n_tokens.  (The paper
    uses log-ratios; logs are float and would make oracle parity depend
    on libm — the linear ratio preserves the ranking semantics and is
    exact.)  Word buckets are md5-derived (``md5_number_upper % B``),
    the repo's standard cross-engine hash.

    Two passes by nature (DSIR trains on a first pass, scores on a
    second): pass 1 is a combiner-style bucket-count groupby (≤ B rows
    per batch shuffle), pass 2 is a stateless map with the ratio table
    broadcast via ``ray.put``.  Returns (doc_id, n_tokens, score_q,
    keep) for every document."""
    from ray.data.aggregate import Sum

    _CACHE_MAX = 1 << 16          # bound the per-worker token→bucket memo:
                                  # web-scale vocabularies would otherwise
                                  # grow it without limit

    def bucketize(words: list[str], cache: dict) -> np.ndarray:
        out = np.empty(len(words), dtype=np.int64)
        for i, w in enumerate(words):
            b = cache.get(w)
            if b is None:
                if len(cache) >= _CACHE_MAX:
                    cache.clear()
                b = cache[w] = stable_u64(w) % n_buckets
            out[i] = b
        return out

    def count_partial(batch: pa.Table, _cache={}) -> pa.Table:
        parent, flat = _tokenize_column(batch.column("text"))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        bkt = bucketize(flat.to_pylist(), _cache)
        is_t = (ids[parent.to_numpy(zero_copy_only=False)]
                % target_mod == 0).astype(np.int64) if len(bkt) else \
            np.zeros(0, dtype=np.int64)
        cc = np.bincount(bkt, minlength=n_buckets)
        ct = np.bincount(bkt, weights=is_t, minlength=n_buckets)
        nz = np.flatnonzero(cc)
        return pa.table({
            "bucket": pa.array(nz, pa.int64()),
            "ct": pa.array(ct[nz].astype(np.int64)),
            "cc": pa.array(cc[nz].astype(np.int64)),
        })

    cnt = (docs.map_batches(count_partial, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("ct", alias_name="ct"),
                      Sum("cc", alias_name="cc"))
           .to_pandas())
    ratio = np.zeros(n_buckets, dtype=np.int64)
    b = cnt["bucket"].to_numpy()
    ct = cnt["ct"].to_numpy().astype(np.int64)
    cc = cnt["cc"].to_numpy().astype(np.int64)
    ratio[b] = (2_000_000 * ct + cc) // (2 * cc)   # round-half-up ppm
    ref = ray.put(ratio)

    def score(batch: pa.Table, _cache={}) -> pa.Table:
        from ..state.broadcast import fetch

        r = fetch(ref)
        parent, flat = _tokenize_column(batch.column("text"))
        bkt = bucketize(flat.to_pylist(), _cache)
        pn = parent.to_numpy(zero_copy_only=False)
        n = batch.num_rows
        n_tok = np.bincount(pn, minlength=n).astype(np.int64)
        sc = np.bincount(pn, weights=r[bkt],
                         minlength=n).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok),
            "score_q": pa.array(sc),
            "keep": pa.array(sc >= keep_ratio_q * n_tok),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def source_kl_divergence(
    docs: ray.data.Dataset,
    source_col: str = "source",
    text_col: str = "text",
    quantum: int = 1_000_000_000,
) -> ray.data.Dataset:
    """Per-source KL divergence KL(p_source ‖ p_corpus) over unigram
    distributions — the mixture diagnostic that tells a curation run how
    far each source's token distribution sits from the blend (the
    qualitative companion to ``dsir_importance``'s per-document
    weights).  Returns (source, kl_q, n_tokens): ``kl_q`` is the KL in
    ``1/quantum`` nats as an int64 — each (source, token) contributes
    ``floor((n_sw/N_s)·ln((n_sw·N)/(N_s·n_w))·quantum + 0.5)``, so the
    per-source reduction is an associative integer SUM and the result
    is bit-deterministic across partitionings (the
    ``perplexity_scores`` quantization policy).

    Scale shape: per-batch Arrow group_by combiners mean only distinct
    (source, token) and (token) partial counts ever shuffle (Zipf-bound,
    like ``term_count_partial``); the (source, token) ⋈ (token) join is
    a key-partitioned ``hash_join`` (the corpus vocabulary is too large
    to broadcast at web scale); the per-source totals table is
    sources-sized — tiny by nature — and broadcasts."""
    from ray.data.aggregate import Sum

    from ..state import broadcast
    from .relational import hash_join

    def sw_partial(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column(text_col))
        src = batch.column(source_col)
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({"source": src.take(parent), "token": flat})
        g = t.group_by(["source", "token"]).aggregate([("token", "count")])
        return pa.table({"source": g.column("source"),
                         "token": g.column("token"),
                         "n": pc.cast(g.column("token_count"), pa.int64())})

    sw = (docs.map_batches(sw_partial, batch_format="pyarrow")
          .groupby(["source", "token"])
          .aggregate(Sum("n", alias_name="n_sw"))
          .materialize())

    def w_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("token").aggregate([("n_sw", "sum")])
        return pa.table({"token": g.column("token"),
                         "n": pc.cast(g.column("n_sw_sum"), pa.int64())})

    n_w = (sw.map_batches(w_partial, batch_format="pyarrow")
           .groupby("token").aggregate(Sum("n", alias_name="n_w")))

    # per-source totals: sources-sized by nature → driver + broadcast
    s_tot = (sw.groupby("source").aggregate(Sum("n_sw", alias_name="n_s"))
             .to_pandas())
    totals = dict(zip(s_tot["source"], s_tot["n_s"].astype(np.int64)))
    n_total = int(s_tot["n_s"].sum())
    ref = broadcast.put((totals, n_total))

    joined = hash_join(sw, n_w, on="token",
                       est_rows=int(sw.count()))

    def term(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        tot, n = fetch(ref)
        n_sw = batch.column("n_sw").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        nw = batch.column("n_w").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        src = batch.column("source").to_pylist()
        n_s = np.array([tot[s] for s in src], dtype=np.float64)
        t_q = np.floor((n_sw / n_s)
                       * np.log((n_sw * n) / (n_s * nw))
                       * quantum + 0.5).astype(np.int64)
        return pa.table({"source": batch.column("source"),
                         "t_q": pa.array(t_q),
                         "n_tok": pa.array(n_s.astype(np.int64))})

    out = (joined.map_batches(term, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("t_q", alias_name="kl_q")))

    def attach_total(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        tot, _ = fetch(ref)
        src = batch.column("source").to_pylist()
        return batch.append_column(
            "n_tokens", pa.array([int(tot[s]) for s in src], pa.int64()))

    return out.map_batches(attach_total, batch_format="pyarrow")


def weighted_bottomk_sample(
    docs: ray.data.Dataset,
    k: int = 50,
    chars_per_ticket: int = 100,
    priority_mod: int = 10**12,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Deterministic weighted sampling WITHOUT replacement (bottom-k
    tickets): each document holds ``ceil(n_chars / chars_per_ticket)``
    tickets, ticket i hashes to ``stable_u64(f"{id}:{i}") %
    priority_mod``, a document's priority is its MINIMUM ticket, and the
    k smallest priorities win — longer documents hold more tickets, so
    inclusion probability rises ~proportionally with length, yet the
    draw is a pure content-hash function (no RNG state, identical at any
    parallelism; the q35 ``md5_number_upper`` convention, so a SQL twin
    replays it exactly).

    Scale shape: the ticket loop is per-document map work (never
    shuffled); each batch forwards only its own k smallest (priority,
    id) rows, so the final sort+limit sees ≤ k·n_blocks tiny rows."""
    from .hashing import stable_u64

    def priorities(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_pr = np.empty(len(ids), np.int64)
        n_chars = np.empty(len(ids), np.int64)
        for j, (i, t) in enumerate(zip(ids, texts)):
            n = len(t or "")
            n_chars[j] = n
            w = max(1, -(-n // chars_per_ticket))
            out_pr[j] = min(stable_u64(f"{i}:{ti}") % priority_mod
                            for ti in range(w))
        t = pa.table({
            id_col: batch.column(id_col),
            "n_chars": pa.array(n_chars),
            "priority": pa.array(out_pr),
        })
        # per-batch partial top-k bounds the shuffle to k rows per batch
        order = np.lexsort((np.asarray(ids, dtype=np.int64)
                            if t.column(id_col).type == pa.int64()
                            else np.arange(len(ids)), out_pr))[:k]
        return t.take(pa.array(np.sort(order)))

    return (docs.map_batches(priorities, batch_format="pyarrow")
            .sort(["priority", id_col]).limit(k))


def source_overlap_matrix(docs: ray.data.Dataset,
                          group_col: str = "source",
                          text_col: str = "text",
                          est_rows: int | None = None) -> ray.data.Dataset:
    """Pairwise source-vocabulary overlap — the set-theoretic mixing
    diagnostic next to [[source_kl_divergence]]'s distributional one:
    for every source pair, |A∩B| plus exact-integer ppm containment in
    each direction and Jaccard.

    Shape: the corpus reduces to DISTINCT (source, token) rows via the
    in-batch Arrow group_by combiner (vocab x sources, never
    occurrences); per-source set sizes are a sources-sized broadcast;
    the intersection counts come from ONE key-partitioned self
    ``hash_join`` on token (each token's group is at most |sources|
    rows) and a (src_a, src_b) groupby.  All ratios are half-up integer
    ppm — associative, oracle-exact."""
    from ray.data.aggregate import Count, Sum

    from .corpus import _tokenize_column
    from .relational import hash_join

    def distinct_partial(batch: pa.Table) -> pa.Table:
        parent, flat = _tokenize_column(batch.column(text_col))
        src = batch.column(group_col).take(parent)
        g = (pa.table({group_col: src, "token": flat})
             .group_by([group_col, "token"]).aggregate([]))
        return g

    pairs_tbl = (docs.map_batches(distinct_partial,
                                  batch_format="pyarrow")
                 .groupby([group_col, "token"]).count()
                 .map_batches(lambda b: b.select([group_col, "token"]),
                              batch_format="pyarrow")
                 .materialize())

    sizes = (pairs_tbl.groupby(group_col)
             .aggregate(Count(alias_name="sz")).to_pandas())
    size_map = dict(zip(sizes[group_col], sizes["sz"].astype(int)))
    size_ref = ray.put(size_map)

    sa = pairs_tbl.map_batches(
        lambda b: b.rename_columns(["src_a", "token"]),
        batch_format="pyarrow")
    sb = pairs_tbl.map_batches(
        lambda b: b.rename_columns(["src_b", "token"]),
        batch_format="pyarrow")
    joined = hash_join(sa, sb, on="token", how="inner",
                       est_rows=est_rows)

    def ordered(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("src_a"), batch.column("src_b"))
        return batch.filter(keep).select(["src_a", "src_b"])

    inter = (joined.map_batches(ordered, batch_format="pyarrow")
             .groupby(["src_a", "src_b"])
             .aggregate(Count(alias_name="n_common")))

    def ratios(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        sm = fetch(size_ref)
        a = batch.column("src_a").to_pylist()
        b = batch.column("src_b").to_pylist()
        c = batch.column("n_common").to_numpy().astype(np.int64)
        za = np.array([sm[x] for x in a], dtype=np.int64)
        zb = np.array([sm[x] for x in b], dtype=np.int64)
        cont_a = (c * 2_000_000 + za) // (2 * za)
        cont_b = (c * 2_000_000 + zb) // (2 * zb)
        un = za + zb - c
        jac = (c * 2_000_000 + un) // (2 * un)
        return pa.table({
            "src_a": batch.column("src_a"),
            "src_b": batch.column("src_b"),
            "n_common": pa.array(c),
            "cont_a_ppm": pa.array(cont_a),
            "cont_b_ppm": pa.array(cont_b),
            "jaccard_ppm": pa.array(jac),
        })

    return inter.map_batches(ratios, batch_format="pyarrow")
