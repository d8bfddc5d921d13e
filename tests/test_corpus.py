"""Corpus operators (functions/corpus.py): heavy-hitters, TF-IDF top-k,
C4-style line dedup — partition-count invariance and edge cases."""

import hashlib

import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from stanford_re_ray.functions.corpus import (
    line_dedup,
    tfidf_topk,
    vocab_heavy_hitters,
)

DOCS = [
    (0, "alpha beta beta gamma\nshared footer line repeated many times ok"),
    (1, "beta gamma gamma delta\nshared footer line repeated many times ok"),
    (2, "delta delta delta\nshort ln\nshared footer line repeated many times ok"),
    (3, ""),
    (4, "unique words only here\nanother unique long line that stays put"),
    (5, "alpha beta beta gamma\nshared footer line repeated many times ok"),
]


def _docs_ds(blocks: int) -> rd.Dataset:
    tbl = pa.table({"doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
                    "text": pa.array([t for _, t in DOCS], pa.string())})
    return rd.from_arrow(tbl).repartition(blocks)


@pytest.mark.parametrize("blocks", [1, 4])
def test_heavy_hitters_partition_invariant(ray_session, blocks):
    out = vocab_heavy_hitters(_docs_ds(blocks), top_n=5).to_pandas()
    # 'beta' (docs 0,1,5 → 5) ties 'line' (4 footers + doc 4 → 5);
    # the token-text tiebreak puts 'beta' first — a total order
    assert list(out["token"][:3]) == ["beta", "line", "delta"]
    assert list(out["n_occurrences"][:3]) == [5, 5, 4]
    assert len(out) == 5


@pytest.mark.parametrize("blocks", [1, 4])
def test_tfidf_topk_partition_invariant(ray_session, blocks):
    out = (tfidf_topk(_docs_ds(blocks), n_docs=len(DOCS), k=2)
           .to_pandas().sort_values(["doc_id", "rank"])
           .reset_index(drop=True))
    ref = (tfidf_topk(_docs_ds(1), n_docs=len(DOCS), k=2)
           .to_pandas().sort_values(["doc_id", "rank"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(out, ref[out.columns])
    # doc 3 is empty → no terms, absent from output
    assert 3 not in set(out["doc_id"])
    # everything-distinctive doc ranks its rarest term first
    d4 = out[out["doc_id"] == 4]
    assert (d4["score_q"] > 0).all()


@pytest.mark.parametrize("blocks", [1, 4])
def test_line_dedup_first_occurrence_wins(ray_session, blocks):
    out = (line_dedup(_docs_ds(blocks), min_line_chars=30)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    by_id = out.set_index("doc_id")
    # footer (>=30 chars, in docs 0,1,2,5) kept only in doc 0
    assert by_id.loc[0, "n_lines_kept"] == 2
    assert by_id.loc[1, "n_lines_kept"] == 1
    # doc 2 keeps body + the short 'short ln' line (always kept)
    assert by_id.loc[2, "n_lines_kept"] == 2
    # doc 5 loses the footer; its body (21 chars, below min_line_chars)
    # never participates in dedup despite duplicating doc 0's body
    assert by_id.loc[5, "n_lines_kept"] == 1
    assert by_id.loc[5, "clean_md5"] == hashlib.md5(
        b"alpha beta beta gamma").hexdigest()
    # empty doc survives as a single empty line
    assert by_id.loc[3, "n_lines_kept"] == 1
    assert by_id.loc[3, "clean_md5"] == hashlib.md5(b"").hexdigest()
    # doc 4 untouched
    assert by_id.loc[4, "clean_md5"] == hashlib.md5(
        DOCS[4][1].encode()).hexdigest()


@pytest.mark.parametrize("blocks", [1, 4])
def test_exact_quantiles_matches_numpy(ray_session, blocks):
    import numpy as np

    from stanford_re_ray.functions.quantiles import exact_quantiles

    vals = [1.25, 7.5, 2.0, 2.0, 9.75, 3.5, 3.5, 3.5, 0.25, 6.0]
    tbl = pa.table({"g": pa.array(["a"] * 6 + ["b"] * 4, pa.string()),
                    "v": pa.array(vals, pa.float64())})
    ds = rd.from_arrow(tbl).repartition(blocks)
    out = (exact_quantiles(ds, key="g", value_col="v", scale=100)
           .to_pandas().set_index("g"))
    for grp, grp_vals in (("a", vals[:6]), ("b", vals[6:])):
        assert out.loc[grp, "n_rows"] == len(grp_vals)
        for q, col in ((0.25, "p25"), (0.5, "p50"), (0.75, "p75")):
            assert out.loc[grp, col] == pytest.approx(
                np.quantile(grp_vals, q), abs=1e-9)


def test_inverted_index_postings_and_max_df(ray_session):
    from stanford_re_ray.functions.corpus import inverted_index

    docs = _docs_ds(3)
    out = inverted_index(docs).to_pandas().set_index("token")
    # 'footer' appears in docs 0,1,2,5 via the shared line
    assert out.loc["footer", "df"] == 4
    assert out.loc["footer", "postings"] == "0,1,2,5"
    assert out.loc["unique", "postings"] == "4"
    capped = inverted_index(docs, max_df=3).to_pandas()
    assert "footer" not in set(capped["token"])
    assert "unique" in set(capped["token"])


def test_kmeans_matches_numpy_lloyd(ray_session):
    import numpy as np

    from stanford_re_ray.functions.clustering import kmeans_fit

    rng_vals = [[(i * 7 + j * 13) % 11 - 5.0 for j in range(6)]
                for i in range(40)]
    tbl = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                    "embedding": pa.array(rng_vals,
                                          pa.list_(pa.float64()))})
    for blocks in (1, 4):
        ds = rd.from_arrow(tbl).repartition(blocks)
        cents, counts = kmeans_fit(ds, k=3, n_iter=4)
        # single-node reference Lloyd, same init + tie rules
        X = np.array(rng_vals)
        C = X[:3].copy()
        for _ in range(4):
            d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            lab = np.argmin(d2, axis=1)
            for c in range(3):
                if (lab == c).any():
                    C[c] = X[lab == c].mean(axis=0)
        np.testing.assert_allclose(cents, C, atol=1e-9)
        assert counts.sum() == 40


@pytest.mark.parametrize("blocks", [1, 4])
def test_bigram_lm_partition_invariant(ray_session, blocks):
    from stanford_re_ray.functions.corpus import bigram_lm_topk

    out = bigram_lm_topk(_docs_ds(blocks), top_n=10).to_pandas()
    ref = bigram_lm_topk(_docs_ds(1), top_n=10).to_pandas()
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  ref.reset_index(drop=True))
    # the shared footer bigram appears once per containing doc (0,1,2,5)
    row = out[(out.w1 == "shared") & (out.w2 == "footer")].iloc[0]
    assert row["c12"] == 4
    # 'shared' is only ever followed by 'footer' → P = 1.0 → 1e6
    assert row["p_q"] == 1_000_000


@pytest.mark.parametrize("blocks", [1, 4])
def test_perplexity_scores_hand_checked(ray_session, blocks):
    import math

    import numpy as np

    from stanford_re_ray.functions.corpus import perplexity_scores

    rows = [
        (0, "a b a b a c"),        # LM half: c(a,b)=2 c(a,c)=1 c(b,a)=2
        (2, "b a"),                # + c(b,a)
        (1, "a b x"),              # scored: (a,b) known, (b,x) OOV
        (3, "b a b"),              # (b,a) known, (a,b) known
    ]
    tbl = pa.table({"doc_id": pa.array([d for d, _ in rows], pa.int64()),
                    "text": pa.array([t for _, t in rows], pa.string())})
    ds = rd.from_arrow(tbl).repartition(blocks)
    out = perplexity_scores(ds).to_pandas()
    # LM from docs 0,2: c12: (a,b)=2 (b,a)=3 (a,c)=1 → c1: a=3, b=3
    q = 1_000_000
    lp_ab = math.floor(math.log(2 / 3) * q + 0.5)
    lp_ba = math.floor(math.log(3 / 3) * q + 0.5)
    got = {r.doc_id: (r.lp_total_q, r.n_bigrams, r.n_oov)
           for r in out.itertuples()}
    assert got[1] == (lp_ab, 2, 1)            # (a,b) + OOV (b,x)
    assert got[3] == (lp_ba + lp_ab, 2, 0)    # (b,a) + (a,b)
    ref = perplexity_scores(rd.from_arrow(tbl)).to_pandas()
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  ref.reset_index(drop=True))


@pytest.mark.parametrize("blocks", [1, 4])
def test_bpe_train_matches_serial_reference(ray_session, blocks):
    from collections import Counter

    from stanford_re_ray.functions.corpus import bpe_train

    out = bpe_train(_docs_ds(blocks), n_merges=6).to_pandas()

    # serial reference: same tokenization, counts, tie-breaks
    words: Counter = Counter()
    for _, t in DOCS:
        import re
        words.update(re.findall(r"[0-9a-z_]+", t.lower()))
    vocab = {w: list(w) for w in words}
    ref = []
    for rank in range(6):
        pairs: Counter = Counter()
        for w, n in words.items():
            s = vocab[w]
            for a, b in zip(s, s[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        (a, b), c = min(pairs.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        if c < 2:
            break
        ref.append((rank, a, b, c))
        for w in vocab:
            s, i, new = vocab[w], 0, []
            while i < len(s):
                if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                    new.append(a + b)
                    i += 2
                else:
                    new.append(s[i])
                    i += 1
            vocab[w] = new
    got = list(out.itertuples(index=False, name=None))
    assert got == ref
    assert len(got) == 6          # corpus is rich enough for 6 merges


def test_bpe_encode_applies_trained_merges(ray_session):
    """bpe_train -> bpe_encode round-trip: the actor-pool encoder's
    output matches an independent serial greedy-merge reference on
    every document, and merges actually fire (multi-char subwords)."""
    import hashlib
    import re

    import pyarrow as pa
    import ray.data as rd

    from stanford_re_ray.functions.corpus import bpe_encode, bpe_train

    texts = ["the cat sat on the mat", "the cats sat", "a cat catalog",
             "mat cat the the the", "catalog of cats on a mat"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)}))
    merges = bpe_train(docs, n_merges=6)
    out = (bpe_encode(docs, merges, concurrency=2, batch_size=2)
           .to_pandas().set_index("doc_id").sort_index())

    rank = {(l, r): i for i, (l, r) in enumerate(
        zip(merges.column("left").to_pylist(),
            merges.column("right").to_pylist()))}

    def ref_encode(word):
        syms = list(word)
        while len(syms) > 1:
            cands = [(rank[(syms[i], syms[i + 1])], i)
                     for i in range(len(syms) - 1)
                     if (syms[i], syms[i + 1]) in rank]
            if not cands:
                break
            _, i = min(cands)
            syms[i:i + 2] = [syms[i] + syms[i + 1]]
        return syms

    saw_merge = False
    for i, t in enumerate(texts):
        subs = []
        for w in re.findall(r"[0-9a-z_]+", t.lower()):
            subs.extend(ref_encode(w))
        assert out.loc[i, "n_subwords"] == len(subs)
        assert out.loc[i, "n_distinct_subwords"] == len(dict.fromkeys(subs))
        assert out.loc[i, "subword_sha1"] == hashlib.sha1(
            " ".join(subs).encode()).hexdigest()
        saw_merge |= any(len(s) > 1 for s in subs)
    assert saw_merge


def test_pq_encode_matches_serial(ray_session):
    import numpy as np

    from stanford_re_ray.functions.clustering import pq_encode, pq_train

    # integer-valued floats: partial sums are EXACT in float64, so the
    # codebooks are bit-identical at any block count (the same reason
    # test_kmeans_matches_numpy_lloyd uses integral data — non-exact
    # values would let summation order flip assignment near-ties)
    vals = [[float((i * 5 + j * 3) % 17 - 8) for j in range(8)]
            for i in range(60)]
    tbl = pa.table({"vec_id": pa.array(range(60), pa.int64()),
                    "embedding": pa.array(vals, pa.list_(pa.float64()))})
    outs = []
    for blocks in (1, 5):
        ds = rd.from_arrow(tbl).repartition(blocks)
        cb = pq_train(ds, m=2, k=4, n_iter=2)
        assert cb.shape == (2, 4, 4)
        enc = (pq_encode(ds, cb).to_pandas()
               .sort_values("vec_id").reset_index(drop=True))
        outs.append((cb, enc))
        # serial numpy reference encode over the SAME codebooks
        X = np.array(vals)
        err = np.zeros(len(vals))
        for j in range(2):
            sub = X[:, j * 4:(j + 1) * 4]
            d2 = ((sub[:, None, :] - cb[j][None, :, :]) ** 2).sum(axis=2)
            code = np.argmin(d2, axis=1)
            err += d2[np.arange(len(vals)), code]
            assert (enc[f"code_{j}"].to_numpy() == code).all()
        assert (enc["err_q"].to_numpy()
                == np.floor(err * 1_000_000 + 0.5).astype(np.int64)).all()
    # block-count invariance: codebooks and codes bit-identical
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    pd.testing.assert_frame_equal(outs[0][1], outs[1][1])


def test_pq_topk_matches_serial_adc(ray_session):
    import numpy as np

    from stanford_re_ray.functions.clustering import (pq_encode, pq_topk,
                                                      pq_train)

    vals = [[float((i * 5 + j * 3) % 17 - 8) for j in range(8)]
            for i in range(60)]
    tbl = pa.table({"vec_id": pa.array(range(60), pa.int64()),
                    "embedding": pa.array(vals, pa.list_(pa.float64()))})
    q = np.array(vals[:3])
    outs = []
    for blocks in (1, 5):
        ds = rd.from_arrow(tbl).repartition(blocks)
        cb = pq_train(ds, m=2, k=4, n_iter=2)
        codes = pq_encode(ds, cb)
        top = (pq_topk(codes, cb, q, k=5).to_pandas()
               .sort_values(["query_id", "rank"]).reset_index(drop=True))
        outs.append(top)
        # serial ADC reference: same codebooks, same (dist_q, id) order
        X = np.array(vals)
        for qi in range(3):
            dist = np.zeros(len(vals))
            for j in range(2):
                sub = X[:, j * 4:(j + 1) * 4]
                d2 = ((sub[:, None, :] - cb[j][None, :, :]) ** 2).sum(axis=2)
                code = np.argmin(d2, axis=1)
                dist += ((q[qi, j * 4:(j + 1) * 4][None, :]
                          - cb[j][code]) ** 2).sum(axis=1)
            dq = np.floor(dist * 1_000_000 + 0.5).astype(np.int64)
            order = np.lexsort((np.arange(len(vals)), dq))[:5]
            got = top[top["query_id"] == qi]
            assert got["vec_id"].tolist() == list(order)
            assert got["dist_q"].tolist() == list(dq[order])
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_mmr_select_matches_serial(ray_session):
    import numpy as np

    from stanford_re_ray.functions.similarity import mmr_select

    vals = [[float((i * 5 + j * 3) % 17 - 8) for j in range(8)]
            for i in range(40)]
    tbl = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                    "embedding": pa.array(vals, pa.list_(pa.float64()))})
    q = np.array(vals[0])
    outs = []
    for blocks in (1, 5):
        ds = rd.from_arrow(tbl).repartition(blocks)
        outs.append(mmr_select(ds, q, k=6).to_pandas())
    pd.testing.assert_frame_equal(outs[0], outs[1])

    # serial greedy with identical integer quantization + tie rules
    X = np.array(vals)
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    qn = q / (np.linalg.norm(q) or 1.0)
    rel_q = np.floor((X @ qn) / norms * 1e6 + 0.5).astype(np.int64)
    max_sim = np.zeros(40, np.int64)
    alive = np.ones(40, bool)
    want = []
    for rank in range(6):
        mmr = 7 * rel_q - 3 * max_sim
        # sentinel must survive negation inside lexsort (−int64.min
        # wraps back to int64.min and would sort FIRST)
        mmr_alive = np.where(alive, mmr, np.iinfo(np.int64).min // 2)
        order = np.lexsort((np.arange(40), -mmr_alive))
        j = order[0]
        want.append((rank, j, int(rel_q[j]), int(mmr[j])))
        alive[j] = False
        bv = X[j] / (np.linalg.norm(X[j]) or 1.0)
        sim_q = np.floor((X @ bv) / norms * 1e6 + 0.5).astype(np.int64)
        max_sim = np.maximum(max_sim, sim_q)
    got = [tuple(int(v) for v in row)
           for row in outs[0].itertuples(index=False)]
    assert got == want


@pytest.mark.parametrize("blocks", [1, 4])
def test_unigram_lm_matches_serial_reference(ray_session, blocks):
    """Distributed hard-EM unigram-LM trainer vs an independent serial
    reimplementation (same seed/prune/tie-break policy, plain Python
    loops) — pieces, integer counts and quantized log-probs must all be
    identical, at any block count."""
    import math
    import re
    from collections import Counter

    from stanford_re_ray.functions.corpus import unigram_lm_train

    V, EM, L, MINC, SEEDF = 48, 2, 3, 2, 8
    out = unigram_lm_train(_docs_ds(blocks), vocab_size=V, n_em=EM,
                           max_piece_len=L, min_count=MINC,
                           seed_factor=SEEDF).to_pandas()

    words: Counter = Counter()
    for _, t in DOCS:
        words.update(re.findall(r"[0-9a-z_]+", t.lower()))

    seed: Counter = Counter()
    for w, n in words.items():
        for ln in range(1, L + 1):
            for s in range(len(w) - ln + 1):
                seed[w[s:s + ln]] += n
    chars = {p: c for p, c in seed.items() if len(p) == 1}
    multi = sorted(((p, c) for p, c in seed.items()
                    if len(p) > 1 and c >= MINC),
                   key=lambda kv: (-kv[1], kv[0]))
    cap = max(SEEDF * V - len(chars), 0)
    vocab = dict(chars)
    vocab.update(dict(multi[:cap]))

    def viterbi(word, scores):
        n = len(word)
        best = [0.0] + [None] * n
        back = [0] * (n + 1)
        for i in range(1, n + 1):
            b, bj = None, -1
            for j in range(max(0, i - L), i):
                s = scores.get(word[j:i])
                if s is None or best[j] is None:
                    continue
                cand = best[j] + s
                if b is None or cand > b:
                    b, bj = cand, j
            best[i], back[i] = b, bj
        segs, i = [], n
        while i > 0:
            segs.append(word[back[i]:i])
            i = back[i]
        return segs[::-1]

    for r in range(EM):
        total = sum(vocab.values())
        lt = math.log(total)
        scores = {p: math.log(c) - lt for p, c in vocab.items()}
        cnt: Counter = Counter()
        for w, n in words.items():
            for piece in viterbi(w, scores):
                cnt[piece] += n
        allp = {p: cnt.get(p, 0) for p in vocab}
        for p in allp:
            if len(p) == 1 and allp[p] == 0:
                allp[p] = 1
        n_chars = sum(1 for p in allp if len(p) == 1)
        keep_multi = sorted(((p, c) for p, c in allp.items()
                             if len(p) > 1 and c > 0),
                            key=lambda kv: (-kv[1], kv[0]))
        budget = V if r == EM - 1 else max(V, len(allp) * 3 // 4)
        vocab = {p: c for p, c in allp.items() if len(p) == 1}
        vocab.update(dict(keep_multi[:max(budget - n_chars, 0)]))

    total = sum(vocab.values())
    lt = math.log(total)
    ref = sorted(vocab.items(), key=lambda kv: (-kv[1], kv[0]))
    ref = [(p, c, int(math.floor((math.log(c) - lt) * 1e6)))
           for p, c in ref]
    got = list(out.itertuples(index=False, name=None))
    assert got == ref
    assert len(got) <= V and any(len(p) > 1 for p, _, _ in got)


def test_ivfpq_full_probe_equals_pq_topk(ray_session):
    """IVF-PQ composition pin: probing ALL lists must reduce to a plain
    pq_topk over every code (same codebooks, same quantized distances,
    same ranks); pruned probing returns a subset drawn only from the
    probed lists and never beats the full probe's distance at rank 1."""
    import numpy as np

    from stanford_re_ray.functions.clustering import (pq_encode,
                                                      pq_topk, pq_train)
    from stanford_re_ray.functions.similarity import (_det_centroids,
                                                      ivfpq_topk)

    vals = [[float((i * 7 + j * 5) % 19 - 9) for j in range(8)]
            for i in range(80)]
    tbl = pa.table({"vec_id": pa.array(range(80), pa.int64()),
                    "embedding": pa.array(vals, pa.list_(pa.float64()))})
    ds = rd.from_arrow(tbl).repartition(4)
    q = np.array([vals[0], vals[13]])

    cb = pq_train(ds, m=2, k=4, n_iter=1)
    full = (ivfpq_topk(ds, q, k=5, n_lists=4, n_probe=4, codebooks=cb)
            .to_pandas())
    plain = (pq_topk(pq_encode(ds, cb), cb, q, k=5).to_pandas()
             .sort_values(["query_id", "rank", "vec_id"])
             .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        full[["query_id", "rank", "vec_id", "dist_q"]].astype("int64"),
        plain[["query_id", "rank", "vec_id", "dist_q"]].astype("int64"))

    pruned = (ivfpq_topk(ds, q, k=5, n_lists=4, n_probe=1,
                         codebooks=cb).to_pandas())
    # pruned results come only from each query's nearest list
    cents = _det_centroids(8, 4)
    X = np.array(vals)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    assign = np.argmax((X / norms) @ cents.T, axis=1)
    for qi, qv in enumerate(q):
        qn = qv / np.linalg.norm(qv)
        probe = int(np.argmax(cents @ qn))
        got_ids = pruned[pruned["query_id"] == qi]["vec_id"].tolist()
        assert got_ids, "pruned probe returned nothing"
        assert all(assign[v] == probe for v in got_ids)
        f0 = full[(full["query_id"] == qi) & (full["rank"] == 1)
                  ]["dist_q"].iloc[0]
        p0 = pruned[(pruned["query_id"] == qi) & (pruned["rank"] == 1)
                    ]["dist_q"].iloc[0]
        assert p0 >= f0


def test_tokenizer_fertility_invariants(ray_session):
    """q227 composition: every word encodes to >= 1 subword, so
    per-source fertility_ppm >= 1e6; merges actually fire, so the
    corpus-wide subword total is strictly BELOW the character total;
    source rows cover every source in the table."""
    from stanford_re_ray.pipelines.analytics import (
        q227_tokenizer_fertility)

    out = q227_tokenizer_fertility("/root/testdata/sf0.001").to_pandas()
    assert (out["fertility_ppm"] >= 1_000_000).all()
    assert (out["n_subwords"] >= out["n_words"]).all()
    import duckdb

    con = duckdb.connect()
    srcs = [r[0] for r in con.execute(
        "SELECT DISTINCT source FROM read_parquet("
        "'/root/testdata/sf0.001/documents.parquet') ORDER BY 1"
    ).fetchall()]
    con.close()
    assert out["source"].tolist() == srcs


def test_vocab_churn_blocks_carry_no_pandas_metadata(ray_session):
    """Every block ``vocab_churn_topk`` emits is Arrow without schema
    metadata: pandas metadata is a dict, so Ray's schema unification in
    the following sort fails to hash it and warns
    "Failed to hash the schemas"."""
    import ray

    from stanford_re_ray.functions.corpus import vocab_churn_topk

    old = _docs_ds(2).filter(lambda r: r["doc_id"] < 3)
    new = _docs_ds(2).filter(lambda r: r["doc_id"] >= 3)
    ds = vocab_churn_topk(old, new, k=4, min_total=1).materialize()
    blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
              for ref in bundle.block_refs]
    assert sum(b.num_rows for b in blocks) == 4
    for b in blocks:
        assert isinstance(b, pa.Table)
        assert b.schema.metadata is None


def test_sf_reads_carry_no_pandas_metadata(ray_session):
    """The sf tables were written by pandas; ``analytics._read`` yields
    their blocks without that metadata, so no "Failed to hash the
    schemas" warning is logged, neither while ``q227_tokenizer_fertility``
    runs nor when Ray's schema unification (what its reduce tasks and
    actors run over block schemas) meets the read blocks' schemas in this
    process — worker-side records reach no handler here."""
    import logging

    import ray
    from ray.data._internal.arrow_ops.transform_pyarrow import \
        unify_schemas

    from stanford_re_ray.pipelines.analytics import (
        _read, q227_tokenizer_fertility)

    seen: list[str] = []

    class Catch(logging.Handler):
        def emit(self, record):
            if "Failed to hash the schemas" in record.getMessage():
                seen.append(record.getMessage())

    logger = logging.getLogger(unify_schemas.__module__)
    handler, level = Catch(level=logging.WARNING), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        ds = _read("/root/testdata/sf0.001", "documents",
                   ["doc_id", "source", "text"]).materialize()
        blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert blocks and all(b.schema.metadata is None for b in blocks)
        unify_schemas([b.schema for b in blocks])
        assert q227_tokenizer_fertility("/root/testdata/sf0.001").num_rows
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert not seen, seen[:2]
