"""Property-based tests (hypothesis) for the pure kernels and the
distributed relational operators: the vectorized implementations must
agree with straightforward reference implementations on arbitrary
inputs, not just fixtures."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

# --- simhash: vectorized batch kernel ≡ scalar definition ------------------

WORDS = st.lists(
    st.text(alphabet="abcdefgé '\t", min_size=0, max_size=8), max_size=30)


def _scalar_simhash(text):
    words = (text or "").lower().split()
    if not words:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for w in words:
        h = hashlib.md5(w.encode("utf-8", "surrogatepass")).digest()[:8]
        bits = np.unpackbits(np.frombuffer(h, dtype=np.uint8)).astype(np.int64)
        acc += bits * 2 - 1
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << i
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(WORDS.map(lambda ws: " ".join(ws)), max_size=12))
def test_simhash_batch_matches_scalar(texts):
    from stanford_re_ray.functions.dedup import _simhash64_texts

    got = _simhash64_texts(texts)
    assert [int(h) for h in got] == [_scalar_simhash(t) for t in texts]


# --- minhash signature: min over per-shingle hashes ------------------------

@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**63 - 1), max_size=40))
def test_minhash_signature_is_elementwise_min(shingles):
    from stanford_re_ray.functions.dedup import (_MERSENNE, _minhash_params,
                                                 minhash_signature)

    a, b = _minhash_params(8)
    sig = minhash_signature(shingles, a, b)
    if not shingles:
        assert (sig == _MERSENNE).all()
        return
    expect = np.full(8, np.iinfo(np.uint64).max, dtype=np.uint64)
    for s in shingles:
        x = np.uint64(s % _MERSENNE)
        vals = (a * x + b) % np.uint64(_MERSENNE)
        expect = np.minimum(expect, vals)
    assert (sig == expect).all()
    # monotone: adding a shingle can only lower the signature
    sig2 = minhash_signature(shingles | {12345}, a, b)
    assert (sig2 <= sig).all()


# --- alternate slot values: structural invariants ---------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdAB.19", min_size=1, max_size=6),
                min_size=0, max_size=6),
       st.booleans(), st.booleans())
def test_alternate_slot_values_invariants(tokens, is_date, is_person):
    from stanford_re_ray.stages.pairs import alternate_slot_values

    value = " ".join(tokens)
    alts = alternate_slot_values(value, is_date, is_person)
    for a in alts:
        assert a != value          # an alternate is never the value itself
        assert len(a) < len(value)
        # alternates are built from the value's own characters/tokens
        if not is_date or not a.isdigit():
            assert all(tok in tokens for tok in a.split())
    if not is_date and not is_person:
        assert alts == []


# --- grouped_topk ≡ pandas groupby rank (one Ray session, few examples) ----

@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-50, 50)),
                min_size=1, max_size=40))
def test_grouped_topk_matches_pandas(ray_session, rows):
    import ray.data as rd

    from stanford_re_ray.functions.relational import grouped_topk

    df = pd.DataFrame(rows, columns=["k", "v"]).reset_index(names="id")
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = (grouped_topk(ds, key="k", order_by="v", k=2, tiebreak=["id"])
           .to_pandas().sort_values(["k", "rank"]).reset_index(drop=True))
    ref = df.sort_values(["k", "v", "id"], ascending=[True, False, True],
                         kind="mergesort").groupby("k").head(2)
    ref = ref.sort_values(["k", "v", "id"], ascending=[True, False, True],
                          kind="mergesort").reset_index(drop=True)
    assert list(got["id"]) == list(ref["id"])


# --- hash_join ≡ pyarrow.Table.join ----------------------------------------

_KEY = st.one_of(st.none(), st.integers(0, 4),
                 st.sampled_from([2**60 + 1, 2**60 + 3]))
_BIG = st.integers(0, 2**62)
_ACERO = {"inner": "inner", "left": "left outer", "outer": "full outer",
          "semi": "left semi", "anti": "left anti"}


def _sorted_rows(tbl: pa.Table) -> pa.Table:
    return tbl.sort_by([(c, "ascending") for c in tbl.column_names])


@settings(max_examples=8, deadline=None)
@example(lrows=[(2**60 + 1, 5), (None, 6)], rrows=[(2**60 + 1, 7)],
         how="inner", two_keys=False)  # a null beside a key ≥ 2^53
@example(lrows=[(1, 5), (None, 6)], rrows=[(1, 7)], how="inner",
         two_keys=True)                # a null in a multi-column key
@given(st.lists(st.tuples(_KEY, _BIG), min_size=0, max_size=20),
       st.lists(st.tuples(_KEY, _BIG), min_size=0, max_size=20),
       st.sampled_from(["inner", "left", "outer", "semi", "anti"]),
       st.booleans())
def test_hash_join_matches_pandas(ray_session, lrows, rrows, how, two_keys):
    """Exact agreement with Arrow's own join: int64 payloads up to 2^62
    keep every bit and their declared type, and null keys never match
    (left/outer/anti keep those rows) — on one int key and on two."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join
    from stanford_re_ray.pipelines.kg import dataset_to_table

    on = ["k", "k2"] if two_keys else ["k"]

    def table(rows, v):
        cols = {"k": pa.array([r[0] for r in rows], pa.int64())}
        if two_keys:
            cols["k2"] = pa.array([0] * len(rows), pa.int64())
        cols[v] = pa.array([r[1] for r in rows], pa.int64())
        return pa.table(cols)

    left, right = table(lrows, "lv"), table(rrows, "rv")
    got = dataset_to_table(hash_join(rd.from_arrow(left),
                                     rd.from_arrow(right), on=on, how=how))
    ref = left.join(right, keys=on, join_type=_ACERO[how],
                    use_threads=False)
    if got.num_columns == 0:      # no bucket emitted a block
        assert ref.num_rows == 0
        return
    assert got.schema == ref.schema
    assert _sorted_rows(got).equals(_sorted_rows(ref))


def test_broadcast_join_keeps_int64_payloads(ray_session):
    """broadcast_join must carry int64 payloads ≥ 2^53 bit-exact with
    their declared dtypes, on both sides and for unmatched left rows."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import broadcast_join
    from stanford_re_ray.pipelines.kg import dataset_to_table

    big = 2**60
    left = pa.table({"k": pa.array([1, 2, 3, None], pa.int64()),
                     "lv": pa.array([big + 1, big + 2, big + 3, big + 4],
                                    pa.int64())})
    small = pd.DataFrame({"k": [1, 2, 2], "rv": [big + 7, big + 9, 5]})
    for how, want in (
            ("inner", [(1, big + 1, big + 7), (2, big + 2, big + 9),
                       (2, big + 2, 5)]),
            ("left", [(1, big + 1, big + 7), (2, big + 2, big + 9),
                      (2, big + 2, 5), (3, big + 3, None),
                      (None, big + 4, None)])):
        got = dataset_to_table(
            broadcast_join(rd.from_arrow(left), small, on="k", how=how))
        assert got.schema == pa.schema([("k", pa.int64()),
                                        ("lv", pa.int64()),
                                        ("rv", pa.int64())])
        assert list(zip(*(got.column(c).to_pylist()
                          for c in got.column_names))) == want
    # a shared non-key column would silently overwrite the left one
    with pytest.raises(ValueError, match="overlapping"):
        broadcast_join(rd.from_arrow(left), small.rename(columns={"rv": "lv"}),
                       on="k")


def test_smb_join_keeps_int64_payloads(ray_session, tmp_path):
    """smb_join must carry int64 payloads ≥ 2^53 bit-exact — a null
    beside them too — with the layouts' declared dtypes (int32 stays
    int32)."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import smb_join, smb_write
    from stanford_re_ray.pipelines.kg import dataset_to_table

    big = 2**60
    left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "lv": pa.array([big + 1, big + 2, big + 3],
                                    pa.int64())})
    right = pa.table({"k": pa.array([1, 3, 3, 4], pa.int64()),
                      "rv": pa.array([big + 11, None, big + 15, 0],
                                     pa.int64()),
                      "r32": pa.array([7, 8, 9, 10], pa.int32())})
    smb_write(rd.from_arrow(left), f"{tmp_path}/l", "k", n_buckets=4)
    smb_write(rd.from_arrow(right), f"{tmp_path}/r", "k", n_buckets=4)
    got = dataset_to_table(
        smb_join(f"{tmp_path}/l", f"{tmp_path}/r", on="k", n_buckets=4))
    assert got.schema == pa.schema([("k", pa.int64()), ("lv", pa.int64()),
                                    ("rv", pa.int64()),
                                    ("r32", pa.int32())])
    assert got.sort_by("r32").to_pylist() == [
        {"k": 1, "lv": big + 1, "rv": big + 11, "r32": 7},
        {"k": 3, "lv": big + 3, "rv": None, "r32": 8},
        {"k": 3, "lv": big + 3, "rv": big + 15, "r32": 9}]


# --- str_lists ≡ to_pylist on arbitrary (incl. sliced) list columns --------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abcé ", max_size=4), max_size=5),
                max_size=8),
       st.integers(0, 4))
def test_str_lists_matches_to_pylist(lists, off):
    from stanford_re_ray.schema import str_lists

    tbl = pa.table({"x": pa.array(lists, pa.list_(pa.string()))})
    off = min(off, len(lists))
    sliced = tbl.slice(off)
    assert str_lists(sliced, "x") == sliced.column("x").to_pylist()


# --- rolling fingerprint: chunked-prefix vec ≡ scalar spec ------------------

@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abXé中\U0001F600 .", min_size=0, max_size=200),
        max_size=20,
    ),
    st.integers(min_value=0, max_value=3),
)
def test_rolling_fingerprint_vec_matches_scalar(texts, pad_long):
    from stanford_re_ray.functions import textstats as T

    # force the vectorized path past _VEC_MIN_CPS and over chunk
    # boundaries: add long docs around the 64-char window and the
    # 256-char chunk floor
    texts = texts + ["q" * (63 + pad_long), "r" * 257, "s t u " * 300] * 40
    exp = [T.rolling_fingerprint(t or "") for t in texts]
    got = T.rolling_fingerprints_vec(texts)
    assert got == exp


def test_rolling_fingerprint_vec_forced_path():
    from stanford_re_ray.functions import textstats as T

    # exactly at / around the vec threshold and chunk-length edges
    for fill in (255, 256, 257, 64, 65):
        texts = ["m" * fill] * (T._VEC_MIN_CPS // fill + 2)
        assert T.rolling_fingerprints_vec(texts) == [
            T.rolling_fingerprint(t) for t in texts
        ]


# --- CDC chunking: batch path ≡ scalar cut rule, chunks tile the text -------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(alphabet="abné中 .", min_size=0, max_size=300),
                max_size=10))
def test_cdc_occurrences_match_scalar(texts):
    from stanford_re_ray.functions.dedup import (_cdc_occurrences_batch,
                                                 cdc_cut_points)

    # long tail forces the vectorized window-hash path
    texts = texts + ["padding words here " * 200] * 12
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    got = list(zip(*(tbl_col.to_pylist() for tbl_col in
                     _cdc_occurrences_batch(tbl, 16, 64).columns)))
    exp = []
    for did, t in enumerate(texts):
        prev = 0
        for e in cdc_cut_points(t):
            exp.append((t[prev:e], did, prev, e - prev))
            prev = e
    assert got == exp
    # chunks tile each doc exactly
    for did, t in enumerate(texts):
        rebuilt = "".join(c for c, d, _, _ in exp if d == did)
        assert rebuilt == t
    # digest form: same rows, chunk replaced by its md5-128 split into
    # two signed int64s (the payload-free shuffle-key form)
    import hashlib

    dig = _cdc_occurrences_batch(tbl, 16, 64, with_text=False,
                                 with_digest=True)
    assert dig.column_names == ["dig_hi", "dig_lo", "doc_id", "start",
                                "length"]
    got_d = list(zip(*(dig.column(c).to_pylist()
                       for c in dig.column_names)))
    exp_d = []
    for c, did, s, ln in exp:
        dd = hashlib.md5(c.encode("utf-8", "surrogatepass")).digest()
        exp_d.append((int.from_bytes(dd[:8], "big", signed=True),
                      int.from_bytes(dd[8:], "big", signed=True),
                      did, s, ln))
    assert got_d == exp_d


# --- range join ≡ quadratic reference ---------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
             min_size=0, max_size=40),
    st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                 allow_nan=False),
                       # negative widths = inverted intervals: BETWEEN
                       # matches nothing; routing must not crash
                       st.floats(min_value=-20, max_value=20,
                                 allow_nan=False)),
             min_size=0, max_size=15),
)
def test_range_join_matches_reference(values, intervals):
    import ray
    import ray.data as rd

    from stanford_re_ray.functions.relational import range_join

    # ids ≥ 2^53 ride as payloads: they must come back bit-exact
    lbase, rbase = 2**60, 2**61
    left = pa.table({"lid": pa.array([lbase + i for i in range(len(values))],
                                     pa.int64()),
                     "v": pa.array(values, pa.float64())})
    right = pa.table({
        "rid": pa.array([rbase + i for i in range(len(intervals))],
                        pa.int64()),
        "lo": pa.array([a for a, _ in intervals], pa.float64()),
        "hi": pa.array([a + w for a, w in intervals], pa.float64()),
    })
    if not len(values) or not len(intervals):
        return
    from stanford_re_ray.pipelines.kg import dataset_to_table

    out = range_join(rd.from_arrow(left), rd.from_arrow(right),
                     "v", "lo", "hi", n_buckets=7)
    tbl = dataset_to_table(out)
    got = (sorted(zip(tbl.column("lid").to_pylist(),
                      tbl.column("rid").to_pylist()))
           if tbl.num_rows else [])
    exp = sorted(
        (lbase + li, rbase + ri)
        for li, v in enumerate(values)
        for ri, (a, w) in enumerate(intervals)
        if a <= v <= a + w
    )
    assert got == exp


# --- CDC clean ≡ serial keep-first reference --------------------------------

@settings(max_examples=8, deadline=None)
@given(st.lists(st.text(alphabet="ab x.", min_size=0, max_size=120),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=3))
def test_cdc_dedup_clean_matches_serial(ray_session, texts, dup_of):
    """cdc_dedup_clean == a serial pass that chunks each doc
    (cdc_cut_points), walks docs in (doc_id, start) order, drops chunks
    whose string was seen anywhere earlier, and re-concatenates.  A
    duplicated doc is appended so cross-doc duplicate runs exist."""
    import ray.data as rd

    from stanford_re_ray.functions.dedup import (cdc_cut_points,
                                                 cdc_dedup_clean)

    texts = texts + [texts[dup_of % len(texts)] + " tail"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    out = (cdc_dedup_clean(rd.from_arrow(tbl).repartition(3), 16, 64)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    seen: set[str] = set()
    exp = {}
    for did, t in enumerate(texts):
        if not t:
            continue
        kept, removed, prev = [], 0, 0
        for e in cdc_cut_points(t, 16, 64):
            c = t[prev:e]
            prev = e
            if c in seen:
                removed += len(c)
            else:
                seen.add(c)
                kept.append(c)
        exp[did] = ("".join(kept), removed)
    got = {int(r.doc_id): (r.clean_text, int(r.n_removed_chars))
           for r in out.itertuples()}
    assert got == exp


# --- pagerank dangling mode ≡ serial fixed-point reference ------------------

@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                          st.integers(min_value=0, max_value=7)),
                min_size=1, max_size=20))
def test_pagerank_dangling_matches_serial(ray_session, raw_edges):
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import pagerank

    edges = sorted({(a, b) for a, b in raw_edges if a != b})
    if not edges:
        return
    tbl = pa.table({"src": pa.array([a for a, _ in edges], pa.int64()),
                    "dst": pa.array([b for _, b in edges], pa.int64())})
    out = pagerank(rd.from_arrow(tbl).repartition(2), n_iter=2,
                   redistribute_dangling=True).to_pandas()

    SCALE = 1_000_000_000
    nodes = sorted({n for e in edges for n in e})
    N = len(nodes)
    deg = {}
    for a, _ in edges:
        deg[a] = deg.get(a, 0) + 1
    r = {n: SCALE // N for n in nodes}
    base = (15 * SCALE) // (100 * N)
    for _ in range(2):
        s = {n: 0 for n in nodes}
        for a, b in edges:
            s[b] += r[a] // deg[a]
        share = sum(v for n, v in r.items() if n not in deg) // N
        r = {n: base + 85 * (s[n] + share) // 100 for n in nodes}
    assert dict(zip(out["node"], out["rank_q"])) == r


# --- bfs_distances ≡ serial BFS reference -----------------------------------

@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                          st.integers(min_value=0, max_value=9)),
                min_size=0, max_size=25),
       st.integers(min_value=1, max_value=4))
def test_bfs_distances_matches_serial(ray_session, raw_edges, max_hops):
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import bfs_distances

    tbl = pa.table({"src": pa.array([a for a, _ in raw_edges], pa.int64()),
                    "dst": pa.array([b for _, b in raw_edges], pa.int64())})
    seeds = [0, 1]
    out = bfs_distances(rd.from_arrow(tbl).repartition(2), seeds=seeds,
                        max_hops=max_hops).to_pandas()

    adj: dict[int, set] = {}
    for a, b in raw_edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    dist = {s: 0 for s in seeds}
    frontier = list(seeds)
    for d in range(1, max_hops + 1):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    assert dict(zip(out["node"], out["dist"])) == dist


_word = st.from_regex(r"[a-z]{1,4}", fullmatch=True)
_doc_text = st.lists(_word, min_size=0, max_size=30).map(" ".join)


@settings(max_examples=10, deadline=None)
@given(st.lists(_doc_text, min_size=1, max_size=8))
def test_token_entropy_matches_serial(ray_session, texts):
    """token_entropy's in-batch kernel == a per-doc serial reference
    (same quantize-then-sum policy)."""
    import math
    import re

    import ray.data as rd

    from stanford_re_ray.functions.corpus import token_entropy

    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    df = token_entropy(rd.from_arrow(batch)).to_pandas()
    if df.empty:  # zero-row Datasets drop their schema through to_pandas
        df = pd.DataFrame(columns=["doc_id", "n_tokens", "n_distinct",
                                   "entropy_q"])
    out = df.set_index("doc_id")

    for i, t in enumerate(texts):
        toks = re.findall(r"[0-9a-z_]+", t.lower())
        if not toks:
            assert i not in out.index
            continue
        n = len(toks)
        from collections import Counter

        ent = 0
        for c in Counter(toks).values():
            p = c / n
            ent += math.floor(-(p * math.log(p)) * 1_000_000_000 + 0.5)
        row = out.loc[i]
        assert int(row["n_tokens"]) == n
        assert int(row["n_distinct"]) == len(set(toks))
        assert int(row["entropy_q"]) == ent


@settings(max_examples=10, deadline=None)
@given(st.lists(_doc_text, min_size=1, max_size=8))
def test_ngram_repetition_matches_serial(ray_session, texts):
    import re

    import ray.data as rd

    from stanford_re_ray.functions.corpus import ngram_repetition

    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    df = ngram_repetition(rd.from_arrow(batch), n=3).to_pandas()
    if df.empty:
        df = pd.DataFrame(columns=["doc_id", "n_ngrams", "n_distinct",
                                   "dup_ppm"])
    out = df.set_index("doc_id")
    for i, t in enumerate(texts):
        toks = re.findall(r"[0-9a-z_]+", t.lower())
        grams = [tuple(toks[j:j + 3]) for j in range(len(toks) - 2)]
        if not grams:
            assert i not in out.index
            continue
        tot, dis = len(grams), len(set(grams))
        row = out.loc[i]
        assert int(row["n_ngrams"]) == tot
        assert int(row["n_distinct"]) == dis
        assert int(row["dup_ppm"]) == ((tot - dis) * 2_000_000 + tot) \
            // (2 * tot)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
def test_ed_le_1_matches_dp(u, v):
    """The blocked fuzzy join's O(len) edit-distance-<=1 check equals a
    full DP Levenshtein."""
    from stanford_re_ray.functions.dedup import _ed_le_1

    m, n = len(u), len(v)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + (u[i - 1] != v[j - 1]))
    if u != v:
        assert _ed_le_1(u, v) == (dp[m][n] <= 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1 << 40),
                min_size=1, max_size=50))
def test_hdr_bin_invariants(vals):
    """HDR binning: lower bound <= v < lb + lb/8-ish (relative error
    <= 1/8), ids monotone in v within a shift level, and lb
    reconstructable from the id."""
    from stanford_re_ray.functions.sketch import hdr_bin

    v = np.array(vals, dtype=np.int64)
    ids, lbs = hdr_bin(v)
    for x, i, lb in zip(v.tolist(), ids.tolist(), lbs.tolist()):
        assert lb <= x
        assert x - lb <= max(lb // 8, 0) + (1 if lb < 16 else 0)
        s, b = divmod(i, 16)
        assert (b << s) == lb


# --- _skyline_mask ≡ quadratic dominance reference ---------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                          st.integers(min_value=0, max_value=8)),
                min_size=0, max_size=40))
def test_skyline_mask_matches_bruteforce(points):
    import numpy as np

    from stanford_re_ray.pipelines.analytics import _skyline_mask

    price = np.array([p for p, _ in points], dtype=np.float64)
    size = np.array([s for _, s in points], dtype=np.float64)
    got = _skyline_mask(price, size)
    for i in range(len(points)):
        dominated = any(
            price[j] <= price[i] and size[j] >= size[i]
            and (price[j] < price[i] or size[j] > size[i])
            for j in range(len(points)))
        assert got[i] == (not dominated), (i, points)
    # algebraic property: skyline of the skyline is itself
    if got.any():
        again = _skyline_mask(price[got], size[got])
        assert again.all()


# --- q114 integer-moment correlation ≡ numpy corrcoef ------------------------

@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500),
                          st.integers(0, 10), st.integers(0, 8)),
                min_size=3, max_size=60))
def test_corr_moments_match_numpy(rows):
    """The exact-integer-moment Pearson formula must agree with numpy's
    corrcoef (up to float display rounding) whenever variances are
    nonzero — the cross-engine float contract of q114."""
    import math

    import numpy as np

    cols = np.array(rows, dtype=np.int64).T      # already integer units
    n = cols.shape[1]
    for a in range(4):
        for b in range(a + 1, 4):
            x, y = cols[a], cols[b]
            num = n * int((x * y).sum()) - int(x.sum()) * int(y.sum())
            dena = n * int((x * x).sum()) - int(x.sum()) ** 2
            denb = n * int((y * y).sum()) - int(y.sum()) ** 2
            if dena == 0 or denb == 0:
                continue
            got = float(num) / math.sqrt(float(dena) * float(denb))
            want = np.corrcoef(x.astype(float), y.astype(float))[0, 1]
            assert abs(got - want) < 1e-9


# --- q128 CUSUM argmax ≡ brute force -----------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=2, max_size=40))
def test_cusum_argmax_matches_bruteforce(vals):
    import numpy as np

    c = np.asarray(vals, dtype=np.int64)
    n = len(c)
    cum = np.cumsum(c)[:-1]
    i = np.arange(1, n, dtype=np.int64)
    stat = np.abs(cum * n - i * int(c.sum()))
    j = int(np.argmax(stat))
    # brute force: earliest split maximizing |n·cum_i − i·total|
    best_i, best_s = None, -1
    for ii in range(1, n):
        s = abs(n * int(c[:ii].sum()) - ii * int(c.sum()))
        if s > best_s:
            best_i, best_s = ii, s
    assert (int(i[j]), int(stat[j])) == (best_i, best_s)


# --- banded-Hamming near-dup ≡ quadratic reference ---------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=0, max_size=30),
       st.integers(min_value=0, max_value=3))
def test_hash_neardup_pairs_matches_reference(ray_session, hashes, maxh):
    """hash_neardup_pairs == quadratic all-pairs popcount filter for any
    hash multiset at max_hamming <= 3 (the pigeonhole-complete regime),
    including empty input, all-identical hashes (dense buckets), and
    ids carried through multi-band dedup."""
    import ray.data as rd

    from stanford_re_ray.functions.dedup import hash_neardup_pairs

    tbl = pa.table({
        "doc_id": pa.array(range(len(hashes)), pa.int64()),
        "hash": pa.array(np.array(hashes, dtype=np.uint64)),
    })
    out = hash_neardup_pairs(rd.from_arrow(tbl).repartition(3),
                             id_col="doc_id", hash_col="hash",
                             max_hamming=maxh)
    got = sorted(zip(*[out.to_pandas()[c] for c in
                       ("id_a", "id_b", "hamming")])) \
        if out.count() else []
    exp = sorted(
        (i, j, bin(hashes[i] ^ hashes[j]).count("1"))
        for i in range(len(hashes))
        for j in range(i + 1, len(hashes))
        if bin(hashes[i] ^ hashes[j]).count("1") <= maxh
    )
    assert got == exp


# --- q-gram-blocked edit-distance join ≡ quadratic reference ------------------

@settings(max_examples=8, deadline=None)
@given(st.lists(st.text(alphabet="abcx", min_size=0, max_size=14),
                min_size=0, max_size=25),
       st.integers(min_value=1, max_value=2))
def test_edit_pairs_qgram_matches_reference(ray_session, words, k):
    """edit_pairs_qgram == quadratic Levenshtein over distinct values —
    mixed short (< q·(k+1)) and long strings, both blocking paths."""
    import ray.data as rd

    from stanford_re_ray.functions.dedup import _ed_le_k, edit_pairs_qgram

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    vals = sorted(set(words))
    # the banded verify itself must agree with the full DP
    for a in vals[:8]:
        for b in vals[:8]:
            d = lev(a, b)
            got = _ed_le_k(a, b, k)
            assert got == (d if d <= k else k + 1), (a, b, k)
    if not vals:
        return
    tbl = pa.table({"p_name": pa.array(vals, pa.string())})
    out = edit_pairs_qgram(rd.from_arrow(tbl).repartition(3), "p_name",
                           max_dist=k)
    n = out.count()
    got = sorted(zip(*[out.to_pandas()[c]
                       for c in ("name_a", "name_b", "dist")])) if n else []
    exp = sorted(
        (a, b, lev(a, b))
        for i, a in enumerate(vals) for b in vals[i + 1:]
        if lev(a, b) <= k
    )
    assert got == exp


# --- sorted-neighborhood pairs ≡ rank self-join reference ---------------------

@settings(max_examples=8, deadline=None)
@given(st.sets(st.text(alphabet="abcd", min_size=1, max_size=6),
               min_size=0, max_size=40),
       st.integers(min_value=2, max_value=5))
def test_sorted_neighborhood_matches_reference(ray_session, keys, window):
    """sorted_neighborhood_pairs == the quadratic rank self-join when
    rank order matches key order (the documented partitioning
    assumption), across bucket boundaries (n_buckets=7 forces carries)."""
    import ray.data as rd

    from stanford_re_ray.functions.dedup import sorted_neighborhood_pairs

    vals = sorted(keys)
    tbl = pa.table({
        "name": pa.array(vals, pa.string()),
        "rk": pa.array(range(len(vals)), pa.int64()),
    })
    out = sorted_neighborhood_pairs(
        rd.from_arrow(tbl).repartition(3), "name", "rk",
        window=window, n_buckets=7)
    n = out.count()
    got = sorted(zip(*[out.to_pandas()[c]
                       for c in ("name_a", "name_b", "gap")])) if n else []
    exp = sorted(
        (vals[i], vals[j], j - i)
        for i in range(len(vals))
        for j in range(i + 1, min(i + window, len(vals)))
    )
    assert got == exp


# --- Luby MIS: independence + maximality --------------------------------------

@settings(max_examples=4, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=25),
                          st.integers(min_value=0, max_value=25)),
                min_size=0, max_size=60))
def test_luby_mis_independent_and_maximal(ray_session, raw_edges):
    """Algorithm-independent contracts: the returned set contains no
    adjacent pair (independence) and, given enough rounds, every
    non-member has a member neighbor (maximality).  Also deterministic
    across block layouts."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import luby_mis

    edges = [(a, b) for a, b in raw_edges if a != b]
    if not edges:
        return
    tbl = pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    })
    outs = []
    for blocks in (1, 3):
        ds = rd.from_arrow(tbl).repartition(blocks)
        out = luby_mis(ds, max_rounds=10).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        outs.append(out)
    assert outs[0].equals(outs[1])
    mis = set(outs[0]["node"])
    und = {frozenset((a, b)) for a, b in edges}
    nodes = {n for e in und for n in e}
    adj = {n: set() for n in nodes}
    for e in und:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    for a, b in edges:
        assert not (a in mis and b in mis), "adjacent MIS members"
    for n in nodes - mis:
        assert adj[n] & mis, f"non-member {n} has no MIS neighbor"


# --- SCC: exact match vs serial Tarjan -----------------------------------------

def _tarjan_scc(edges):
    """Iterative Tarjan; returns {node: min-member-of-its-SCC}."""
    from collections import defaultdict

    adj = defaultdict(list)
    nodes = set()
    for s, d in edges:
        adj[s].append(d)
        nodes.add(s)
        nodes.add(d)
    index, low, on, st, out = {}, {}, set(), [], {}
    counter = [0]
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        st.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    st.append(w)
                    on.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = st.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    out[w] = m
    return out


@settings(max_examples=3, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.integers(min_value=0, max_value=20)),
                min_size=1, max_size=50))
def test_scc_matches_tarjan(ray_session, raw_edges):
    """graph_ops.scc (trim + coloring + backward collect) labels every
    edge-incident node with the exact min member of its strongly
    connected component, independent of block layout."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import scc

    edges = [(a, b) for a, b in raw_edges if a != b]
    if not edges:
        return
    ref = _tarjan_scc(edges)
    tbl = pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    })
    outs = []
    for blocks in (1, 3):
        ds = rd.from_arrow(tbl).repartition(blocks)
        got = {r["node"]: r["scc_id"]
               for r in scc(ds, est_rows=len(edges)).take_all()}
        outs.append(got)
    assert outs[0] == outs[1]
    assert outs[0] == ref


# --- hash_join bloom_prune: pure optimization, identical output ---------------

@settings(max_examples=4, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=0,
                max_size=40),
       st.lists(st.integers(min_value=0, max_value=30), min_size=0,
                max_size=40))
def test_hash_join_bloom_prune_identity(ray_session, lkeys, rkeys):
    """bloom_prune is a semi-join reduction: inner and semi outputs are
    IDENTICAL with and without it (no false negatives by construction;
    false positives only pass extra rows into the real join)."""
    import ray.data as rd

    ltbl = pa.table({"k": pa.array(lkeys, pa.int64()),
                     "lv": pa.array(list(range(len(lkeys))), pa.int64())})
    rtbl = pa.table({"k": pa.array(rkeys, pa.int64()),
                     "rv": pa.array(list(range(len(rkeys))), pa.int64())})
    from stanford_re_ray.functions.relational import hash_join

    for how in ("inner", "semi"):
        outs = []
        for prune in (False, True):
            ds = hash_join(rd.from_arrow(ltbl).repartition(2),
                           rd.from_arrow(rtbl).repartition(2),
                           on="k", how=how, bloom_prune=prune)
            df = ds.to_pandas()
            outs.append(df.sort_values(list(df.columns))
                        .reset_index(drop=True))
        assert outs[0].equals(outs[1]), how


def test_hash_join_bloom_prune_string_keys(ray_session):
    """Same identity over string keys (the Arrow byte-hash path),
    including left keys absent from the right side."""
    import ray.data as rd

    from stanford_re_ray.functions.relational import hash_join

    left = pa.table({"k": pa.array([f"k{i % 17}" for i in range(60)]),
                     "lv": pa.array(list(range(60)), pa.int64())})
    right = pa.table({"k": pa.array([f"k{i}" for i in range(0, 34, 2)]),
                      "rv": pa.array(list(range(17)), pa.int64())})
    outs = []
    for prune in (False, True):
        df = hash_join(rd.from_arrow(left).repartition(3),
                       rd.from_arrow(right).repartition(2),
                       on="k", how="inner",
                       bloom_prune=prune).to_pandas()
        outs.append(df.sort_values(list(df.columns))
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])
    assert len(outs[0]) > 0


# --- Borůvka MSF: exact match vs serial Kruskal --------------------------------

def _kruskal(edges):
    """Serial Kruskal under the (w, a, b) total order; returns the
    unique forest edge set, its total weight and edge count."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total, chosen = 0, set()
    for w, a, b in sorted((w, a, b) for a, b, w in edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            total += w
            chosen.add((a, b, w))
    return total, chosen


@settings(max_examples=3, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=18),
                          st.integers(min_value=0, max_value=18),
                          st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=45))
def test_msf_boruvka_matches_kruskal(ray_session, raw_edges):
    """graph_ops.msf_boruvka returns EXACTLY the forest Kruskal picks
    under the same (w, a, b) total order — edge set, weight and count —
    independent of block layout (the tie-break makes the forest
    unique)."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import msf_boruvka

    norm = {}
    for s, t, w in raw_edges:
        if s == t:
            continue
        a, b = min(s, t), max(s, t)
        norm[(a, b)] = min(norm.get((a, b), 1 << 30), w)
    if not norm:
        return
    edges = [(a, b, w) for (a, b), w in norm.items()]
    ref_total, ref_set = _kruskal(edges)
    tbl = pa.table({
        "src": pa.array([e[0] for e in raw_edges], pa.int64()),
        "dst": pa.array([e[1] for e in raw_edges], pa.int64()),
        "w": pa.array([e[2] for e in raw_edges], pa.int64()),
    })
    for blocks in (1, 3):
        ds = rd.from_arrow(tbl).repartition(blocks)
        rows = msf_boruvka(ds, est_rows=len(raw_edges)).take_all()
        got = {(r["a"], r["b"], r["w"]) for r in rows}
        assert got == ref_set
        assert sum(r["w"] for r in rows) == ref_total


# --- smb_join ≡ pandas merge on co-bucketed layouts -------------------------

@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                min_size=0, max_size=25),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                min_size=0, max_size=25),
       st.booleans())
def test_smb_join_matches_pandas(ray_session, lrows, rrows, str_keys):
    import shutil
    import tempfile

    import ray.data as rd

    from stanford_re_ray.functions.relational import smb_join, smb_write
    from stanford_re_ray.pipelines.kg import dataset_to_table

    ldf = pd.DataFrame(lrows, columns=["k", "lv"])
    rdf = pd.DataFrame(rrows, columns=["k", "rv"])
    if str_keys:
        ldf["k"] = "key" + ldf["k"].astype(str)
        rdf["k"] = "key" + rdf["k"].astype(str)
    base = tempfile.mkdtemp(prefix="smbtest_")
    try:
        if len(ldf) and len(rdf):
            smb_write(rd.from_arrow(
                pa.Table.from_pandas(ldf, preserve_index=False)),
                f"{base}/l", "k", n_buckets=4)
            smb_write(rd.from_arrow(
                pa.Table.from_pandas(rdf, preserve_index=False)),
                f"{base}/r", "k", n_buckets=4)
            got = dataset_to_table(
                smb_join(f"{base}/l", f"{base}/r", on="k",
                         n_buckets=4)).to_pandas()
        else:
            return  # empty layouts have no files to derive a schema from
        ref = ldf.merge(rdf, on="k", how="inner")
        cols = ["k", "lv", "rv"]
        assert list(got.columns) == cols
        g = got[cols].sort_values(cols, kind="mergesort") \
            .reset_index(drop=True)
        r = ref[cols].sort_values(cols, kind="mergesort") \
            .reset_index(drop=True)
        assert len(g) == len(r)
        if len(g):
            pd.testing.assert_frame_equal(g, r, check_dtype=False)
    finally:
        shutil.rmtree(base, ignore_errors=True)


# --- maximal_matching ≡ serial greedy matching ------------------------------

@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.integers(1, 9)),
                min_size=0, max_size=40))
def test_maximal_matching_matches_serial_greedy(ray_session, raw_edges):
    """Distributed local-dominant matching must equal the serial greedy
    matching under the (w DESC, a, b) total order — including duplicate
    pairs (max weight wins), self-loops (dropped), chain-shaped graphs,
    and the empty graph."""
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import maximal_matching
    from stanford_re_ray.pipelines.kg import dataset_to_table

    tbl = pa.table({
        "src": pa.array([e[0] for e in raw_edges], pa.int64()),
        "dst": pa.array([e[1] for e in raw_edges], pa.int64()),
        "w": pa.array([e[2] for e in raw_edges], pa.int64())})
    got_tbl = dataset_to_table(
        maximal_matching(rd.from_arrow(tbl).repartition(3)))
    got = sorted(zip(*[got_tbl.column(c).to_pylist()
                       for c in ("a", "b", "w")])) if got_tbl.num_rows \
        else []

    best: dict = {}
    for s, d, w in raw_edges:
        a, b = min(s, d), max(s, d)
        if a == b:
            continue
        best[(a, b)] = max(best.get((a, b), -1), w)
    used: set = set()
    ref = []
    for w, a, b in sorted(((w, a, b) for (a, b), w in best.items()),
                          key=lambda t: (-t[0], t[1], t[2])):
        if a not in used and b not in used:
            used |= {a, b}
            ref.append((a, b, w))
    assert got == sorted(ref)


# --- winnowing: vectorized selection ≡ naive reference -----------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="ab XY.\n", min_size=0, max_size=200),
                max_size=6),
       st.integers(0, 2))
def test_winnow_counts_match_naive(texts, pad):
    from stanford_re_ray.functions.textstats import (_B, _MOD,
                                                     winnow_select_counts)

    texts = texts + ["z w " * (40 + pad)]   # ensure a >=64-cp doc
    got = winnow_select_counts(texts)

    for t, (n_h, n_sel) in zip(texts, got):
        t = t or ""
        n = len(t)
        if n == 0:
            assert (n_h, n_sel) == (0, 0)
            continue
        w = min(64, n)
        cps = [ord(c) for c in t]
        hs = []
        h = 0
        for cp in cps[:w]:
            h = (h * _B + cp) % _MOD
        hs.append(h)
        pwv = pow(_B, w - 1, _MOD)
        for k in range(w, n):
            h = ((h - cps[k - w] * pwv) * _B + cps[k]) % _MOD
            hs.append(h)
        assert n_h == len(hs)
        g = 8
        picks = set()
        if len(hs) <= g:
            m = min(hs)
            picks.add(max(i for i, v in enumerate(hs) if v == m))
        else:
            for ti in range(len(hs) - g + 1):
                win = hs[ti:ti + g]
                m = min(win)
                picks.add(ti + max(i for i, v in enumerate(win)
                                   if v == m))
        assert n_sel == len(picks)


# --- greedy_coloring ≡ serial layered-Luby simulation ------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                min_size=0, max_size=30))
def test_greedy_coloring_matches_serial(ray_session, raw_edges):
    """Distributed layered-MIS coloring must (a) be PROPER (no edge
    same-colored), (b) equal a serial simulation of the exact same
    algorithm (same per-round content-hash priorities, same
    winner/deactivate rule, same layer/isolated handling)."""
    import ray.data as rd

    from stanford_re_ray.functions.hashing import stable_u64
    from stanford_re_ray.pipelines.graph_ops import greedy_coloring
    from stanford_re_ray.pipelines.kg import dataset_to_table

    tbl = pa.table({
        "src": pa.array([e[0] for e in raw_edges], pa.int64()),
        "dst": pa.array([e[1] for e in raw_edges], pa.int64())})
    got_tbl = dataset_to_table(
        greedy_coloring(rd.from_arrow(tbl).repartition(3)))
    got = dict(zip(got_tbl.column("node").to_pylist(),
                   got_tbl.column("color").to_pylist())) \
        if got_tbl.num_rows else {}

    # serial mirror
    adj: dict = {}
    for s, d in raw_edges:
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    remaining = set(adj)
    res = {u: set(v) for u, v in adj.items()}
    ref: dict = {}
    c = 0
    while remaining and c < 16:
        active = {u for u in remaining if res.get(u)}
        layer = {u for u in remaining if not res.get(u)}  # isolated
        for r in range(3):
            if not active:
                break
            pri = {u: stable_u64(f"mis\x00{r}\x00{u}") >> 11
                   for u in active}
            winners = {u for u in active
                       if all(pri[u] > pri[v]
                              for v in res.get(u, ()) if v in active)}
            layer |= winners
            dead = set(winners)
            for u in winners:
                dead |= {v for v in res.get(u, ()) if v in active}
            active -= dead
            if not winners:
                break
        for u in layer:
            ref[u] = c
            remaining.discard(u)
        for u in layer:
            for v in res.pop(u, ()):
                res.get(v, set()).discard(u)
        c += 1
    for u in remaining:
        ref[u] = -1

    assert got == ref
    for s, d in raw_edges:
        if s != d and got.get(s, -2) >= 0:
            assert got[s] != got[d], f"edge ({s},{d}) same-colored"


# --- bag merge kernel: Arrow sort-and-segment ≡ the pandas bag merge --------

_BAG_SUBJ = ["Ann", "Zoë Łukasz", "李明", "Ann "]
_BAG_OBJ = ["Paris", "Zürich", "東京", "1983"]
_BAG_REL = ["per:city_of_birth", "per:cities_of_residence",
            "org:city_of_headquarters"]
_BAG_DOC = ["d1", "d2", "dé"]
_PARTIAL = st.tuples(
    st.integers(0, 3), st.integers(0, 1), st.integers(0, 3),
    st.integers(0, 1), st.integers(0, 2),
    st.integers(1, 3).map(lambda q: q * 300_000_000),   # best_q: many ties
    st.integers(1, 5_000_000_000),                      # the summed column
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 2))


def _partials_table(rows) -> pa.Table:
    """Scored-mention partials; spans ends are functions of the rest, so
    rows tied on every tie column carry the same provenance."""
    cols = list(zip(*rows)) if rows else [()] * 11
    s, st_, o, ot, r, best, summed, d, si, sb, ob = cols
    i32 = lambda v: pa.array(v, pa.int32())  # noqa: E731
    return pa.table({
        "subj": pa.array([_BAG_SUBJ[i] for i in s], pa.string()),
        "subj_type": pa.array([["PERSON", "ORGANIZATION"][i] for i in st_],
                              pa.string()),
        "obj": pa.array([_BAG_OBJ[i] for i in o], pa.string()),
        "obj_type": pa.array([["CITY", "DATE"][i] for i in ot], pa.string()),
        "doc_id": pa.array([_BAG_DOC[i] for i in d], pa.string()),
        "sent_idx": i32(si),
        "subj_begin": i32(sb), "subj_end": i32([b + 2 for b in sb]),
        "obj_begin": i32(ob), "obj_end": i32([b + 1 for b in ob]),
        "rel": pa.array([_BAG_REL[i] for i in r], pa.string()),
        "sum_q": pa.array(summed, pa.int64()),
        "best_q": pa.array(best, pa.int64()),
        "n_mentions": pa.array([1 + q % 3 for q in summed], pa.int64()),
        "log1m_q": pa.array([-q for q in summed], pa.int64()),
    })


def _oracle_merge(df: pd.DataFrame, sum_cols: list[str]) -> pd.DataFrame:
    """The pandas bag merge: sort by (pair, rel) ascending and the tie
    columns descending, sum ``sum_cols``, keep the first row per key."""
    from stanford_re_ray.stages.classify import PAIR_KEY, _TIE_COLS

    keys = PAIR_KEY + ["rel"]
    df = df.sort_values(keys + _TIE_COLS,
                        ascending=[True] * len(keys) + [False] * len(_TIE_COLS),
                        kind="mergesort")
    sums = df.groupby(keys, sort=False)[sum_cols].sum()
    best = df.drop_duplicates(keys, keep="first").set_index(keys)
    return best.drop(columns=sum_cols).join(sums).reset_index()


def _oracle_triples(out: pd.DataFrame) -> pa.Table:
    from stanford_re_ray.schema import TRIPLES, conform, pd_to_arrow

    return conform(pd_to_arrow(out.rename(columns={"rel": "pred"})), TRIPLES)


@settings(max_examples=60, deadline=None)
@given(st.lists(_PARTIAL, max_size=40),
       st.lists(st.integers(0, 40), max_size=4), st.integers(0, 2**32))
@example(rows=[], cuts=[], seed=0)
def test_arrow_bag_merge_matches_pandas_oracle(rows, cuts, seed):
    import random
    from functools import partial

    from stanford_re_ray.schema import TRIPLES
    from stanford_re_ray.stages.classify import (PAIR_KEY, SCORE_SCALE,
                                                 bag_reduce_bucket,
                                                 hoffmann_bag_reduce,
                                                 partial_bag_combine)
    from stanford_re_ray.stages.miml import (_MIML_COLS, R, Y_DIM,
                                             miml_bag_combine, miml_bag_reduce)

    raw = _partials_table(rows)
    bounds = sorted({0, raw.num_rows, *(c for c in cuts if c < raw.num_rows)})
    batches = [raw.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    def combined(combine):
        """Each combine batch merged alone (every other one passed as
        pandas), then the partials shuffled."""
        parts = [combine(b.to_pandas() if i % 2 else b)
                 for i, b in enumerate(batches)]
        t = pa.concat_tables(parts)
        shuffled = random.Random(seed).sample(range(t.num_rows), t.num_rows)
        return t.take(pa.array(shuffled, pa.int64()))

    if not rows:
        miml_reduce = partial(miml_bag_reduce, y_weights=np.zeros((R, Y_DIM)),
                              y_bias=np.zeros(R), y_features=())
        for reduce in (bag_reduce_bucket, hoffmann_bag_reduce, miml_reduce):
            assert reduce(raw).equals(TRIPLES.empty_table())
            assert reduce(partial_bag_combine(raw, 8)).equals(
                TRIPLES.empty_table())
        return

    df = raw.to_pandas()
    # L1-normalized LR bags
    out = _oracle_merge(df, ["sum_q"])
    totals = out.groupby(PAIR_KEY, sort=False)["sum_q"].transform("sum")
    want = _oracle_triples(out.assign(score=out["sum_q"] / totals))
    lr = combined(partial(partial_bag_combine, n_buckets=8))
    assert bag_reduce_bucket(lr).equals(want)
    # Hoffmann: the per-(pair, rel) max row, raw score
    want = _oracle_triples(out.assign(score=out["best_q"] / SCORE_SCALE))
    assert hoffmann_bag_reduce(lr).equals(want)
    # MIML partial merge: n_mentions and log1m_q add across combine rounds
    miml = combined(miml_bag_combine)
    got = miml_bag_combine(miml)
    want = _oracle_merge(df[_MIML_COLS], ["n_mentions", "log1m_q"])[_MIML_COLS]
    assert got.to_pandas().equals(want)


# --- bucket_reduce: the one bucketed shuffle ---------------------------------

_BR_INT = st.one_of(st.none(), st.integers(-3, 3),
                    st.sampled_from([2**53 + 1, 2**60 + 3, 2**62 + 7]))
# no embedded NUL: pandas 2.2's multi-key groupby (the pandas reducer
# below) mixes up strings that differ only after a NUL
_BR_STR = st.sampled_from(["a", "é", "漢字", "ß", "a b", ""])


@settings(max_examples=3, deadline=None)
@example(rows=[(2**60 + 3, "é", "ß", 1), (None, "a", "a", 2),
               (2**60 + 3, "é", "ß", 3)], str_keys=False, n_blocks=2)
@given(st.lists(st.tuples(_BR_INT, _BR_STR, _BR_STR, st.integers(0, 9)),
                min_size=1, max_size=30),
       st.booleans(), st.integers(1, 4))
def test_bucket_reduce_matches_one_reduce(ray_session, rows, str_keys,
                                          n_blocks):
    """Per-key sums through ``bucket_reduce`` equal one in-process reduce
    over the whole table as a multiset, for 1, 3 and 64 buckets over
    ``n_blocks`` input blocks: an int64 key (≥ 2^53, with nulls) through
    an Arrow reducer, two non-ASCII string keys through a pandas one.
    The reducer never sees the routing column, and every output block is
    Arrow without schema metadata."""
    import ray
    import ray.data as rd

    from stanford_re_ray.functions.relational import bucket_reduce
    from stanford_re_ray.schema import pd_to_arrow

    table = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                      "s1": [r[1] for r in rows], "s2": [r[2] for r in rows],
                      "v": pa.array([r[3] for r in rows], pa.int64())})
    key = ["s1", "s2"] if str_keys else ["k"]
    fmt = "pandas" if str_keys else "pyarrow"

    def reduce(g):
        if isinstance(g, pa.Table):
            assert "__bucket" not in g.column_names
            return g.group_by(key).aggregate([("v", "sum"), ("v", "count")])
        assert "__bucket" not in g.columns
        return g.groupby(key, as_index=False).agg(
            v_sum=("v", "sum"), v_count=("v", "size"))

    want = reduce(table if fmt == "pyarrow" else table.to_pandas())
    want = _sorted_rows(want if isinstance(want, pa.Table)
                        else pd_to_arrow(want))
    size = -(-len(rows) // n_blocks)
    ds = rd.from_arrow([table.slice(o, size)
                        for o in range(0, len(rows), size)])
    for n_buckets in (1, 3, 64):
        out = bucket_reduce(ds, key, reduce, n_buckets=n_buckets,
                            batch_format=fmt).materialize()
        blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert all(isinstance(b, pa.Table) and b.schema.metadata is None
                   for b in blocks), n_buckets
        got = pa.concat_tables([b for b in blocks if b.num_rows])
        assert got.schema == want.schema, n_buckets
        assert _sorted_rows(got).equals(want), n_buckets
