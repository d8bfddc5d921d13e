"""Similarity search over an embedding column (``list<float>``).

- ``brute_force_topk``: exact cosine top-k — per-batch numpy matmul against
  a broadcast query matrix, then a global merge of per-batch top-k partials
  (never materializes the full score vector; the shuffle carries only
  k rows per batch).
- ``ivf_topk``: the scale path — coarse k-means-style quantization with
  deterministic centroids; probes only the nearest ``n_probe`` partitions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..schema import pd_to_arrow


def _to_matrix(batch_col) -> np.ndarray:
    return np.array(batch_col.to_pylist(), dtype=np.float64)


def brute_force_topk(
    embeddings: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k: per-batch partial top-k (map_batches) + small
    driver-side merge of the partials (k rows per batch ≪ data)."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(qn)

    def partial_topk(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        qv = fetch(q_ref)
        vecs = _to_matrix(batch.column(vec_col))
        if vecs.size == 0:
            return pa.table({id_col: pa.array([], batch.column(id_col).type),
                             "cosine": pa.array([], pa.float64())})
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        sims = (vecs @ qv) / norms
        idx = np.argsort(-sims, kind="stable")[:k]
        # full-precision cosine through the sort/limit merge: rounding
        # before ranking can flip top-k membership at the rank-k boundary
        # vs an oracle that ranks unrounded (round only for display below)
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(idx)),
                "cosine": pa.array(sims[idx], pa.float64()),
            }
        )

    partials = embeddings.map_batches(partial_topk, batch_format="pyarrow")
    merged = partials.sort(["cosine", id_col], descending=[True, False]).limit(k)
    import pyarrow as _pa
    import pyarrow.compute as _pc

    tables = ray.get(merged.to_arrow_refs())
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _pa.table({id_col: [], "cosine": []})
    out = _pa.concat_tables(tables)
    return out.set_column(out.schema.get_field_index("cosine"), "cosine",
                          _pc.round(out.column("cosine"), ndigits=6))


def _det_centroids(dim: int, n: int) -> np.ndarray:
    """Deterministic pseudo-random unit centroids (md5 stream — stable
    across processes; replaces a trained k-means codebook for tests)."""
    c = np.empty((n, dim))
    for i in range(n):
        for j in range(dim):
            d = hashlib.md5(f"centroid:{i}:{j}".encode()).digest()
            c[i, j] = int.from_bytes(d[:8], "little") / 2**63 - 1.0
    norms = np.linalg.norm(c, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return c / norms


def ivf_build(
    embeddings: ray.data.Dataset,
    out_dir: str,
    n_lists: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    centroids: "np.ndarray | None" = None,
) -> None:
    """IVF index build — the scale path made concrete: assign each vector
    to its nearest centroid and WRITE the table as Parquet partitioned by
    list id (one directory per inverted list).  Probing then reads only
    ``n_probe / n_lists`` of the data from storage.

    ``centroids``: pass a TRAINED codebook (e.g. ``kmeans_fit(...)[0]``)
    for data-dependent lists — the production path; default is the
    deterministic md5 codebook (test/oracle path).  Assignment is
    argmax of v̂·cᵢ on both paths (first index wins ties)."""
    fixed = None if centroids is None else np.asarray(centroids,
                                                      dtype=np.float64)

    def assign(batch: pa.Table, dim_cache={}) -> pa.Table:
        vecs = _to_matrix(batch.column(vec_col))
        if vecs.size == 0:
            return batch.append_column("ivf_list",
                                       pa.array([], pa.int32()))
        dim = vecs.shape[1]
        cc = fixed if fixed is not None else dim_cache.get(dim)
        if cc is None:
            cc = _det_centroids(dim, n_lists)
            dim_cache[dim] = cc
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        lists = np.argmax((vecs / norms) @ cc.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_list", pa.array(lists))

    embeddings.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["ivf_list"]
    )


def ivf_topk_pruned(
    index_dir: str,
    query_vec: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    centroids: "np.ndarray | None" = None,
) -> pa.Table:
    """Partition-pruned IVF search over an ``ivf_build`` index: ONLY the
    ``n_probe`` nearest lists' Parquet partitions are read from storage
    (directory-level pruning — the other lists never leave disk), then
    exact cosine rank within them.  Pass the SAME ``centroids`` the index
    was built with (or None for the md5 default)."""
    import ray.data as rd

    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    cents = (np.asarray(centroids, dtype=np.float64)
             if centroids is not None else _det_centroids(len(qn), n_lists))
    probe_lists = np.argsort(-(cents @ qn))[:n_probe].tolist()
    import os

    shards = [f"{index_dir}/ivf_list={int(p)}" for p in probe_lists]
    files: list[str] = []
    for s in shards:
        if os.path.isdir(s):
            files.extend(sorted(
                os.path.join(s, f) for f in os.listdir(s)
                if f.endswith(".parquet")
            ))
    if not files:
        return pa.table({id_col: [], "cosine": []})
    probed = rd.read_parquet(files, columns=[id_col, vec_col])
    return brute_force_topk(probed, query_vec, k, id_col, vec_col)


def ivf_topk(
    embeddings: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    centroids: "np.ndarray | None" = None,
) -> pa.Table:
    """IVF-style ANN: assign each vector to its nearest centroid
    (map_batches), filter to the query's ``n_probe`` nearest lists,
    exact-rank only those.  ``ivf_build`` + ``ivf_topk_pruned`` are the
    persisted variant where probing prunes at the STORAGE level.
    ``centroids``: trained codebook (production) or None for the
    deterministic md5 codebook (test/oracle)."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    cents = (np.asarray(centroids, dtype=np.float64)
             if centroids is not None else _det_centroids(len(qn), n_lists))
    probe_lists = set(np.argsort(-(cents @ qn))[:n_probe].tolist())
    cents_ref = ray.put(cents)
    probe_ref = ray.put(probe_lists)

    def assign_and_filter(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        cc = fetch(cents_ref)
        probe = fetch(probe_ref)
        vecs = _to_matrix(batch.column(vec_col))
        if vecs.size == 0:
            return batch
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        assign = np.argmax((vecs / norms) @ cc.T, axis=1)
        keep = np.isin(assign, list(probe))
        return batch.filter(pa.array(keep))

    probed = embeddings.map_batches(assign_and_filter, batch_format="pyarrow")
    return brute_force_topk(probed, query_vec, k, id_col, vec_col)


def knn_join(embeddings: ray.data.Dataset, query_ids: list[int],
             k: int = 3, id_col: str = "vec_id",
             vec_col: str = "embedding",
             est_rows: int | None = None) -> ray.data.Dataset:
    """Embedding similarity join: for EACH query vector, its cosine
    top-k among the non-query vectors — the multi-query generalization
    of ``brute_force_topk`` (the batch form every retrieval/dedup
    pipeline runs, vs the single-probe form).

    Scale shape: the query matrix is gathered once (|queries| rows,
    provably small), L2-normalized, and broadcast via ``ray.put``; each
    batch computes ONE (batch x queries) matmul and emits at most
    k·|queries| partial rows, so the shuffle is bounded by
    k·|queries|·n_batches regardless of corpus size; the global
    per-query top-k is ``grouped_topk`` (partial-then-bucket, never a
    full sort).  Ranking uses full-precision cosines computed once
    engine-side; output carries (query_id, rank, vec_id) only — the
    q12 oracle convention (cross-engine float cosines are rank-checked,
    not value-compared)."""
    from .relational import grouped_topk

    qset = sorted(dict.fromkeys(int(q) for q in query_ids))
    qarr = pa.array(qset, pa.int64())

    def grab(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(pc.cast(batch.column(id_col), pa.int64()),
                        value_set=qarr)
        return batch.filter(keep)

    qtab = (embeddings.map_batches(grab, batch_format="pyarrow")
            .to_pandas())
    if qtab.empty:      # none of the query ids exist
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64())}))
    qtab = qtab.sort_values(id_col)
    qids = qtab[id_col].to_numpy().astype(np.int64)
    qm = np.array(qtab[vec_col].to_list(), dtype=np.float64)
    qnorm = np.linalg.norm(qm, axis=1)
    qnorm[qnorm == 0] = 1.0
    qn = (qm / qnorm[:, None]).T  # (dim, m)
    q_ref = ray.put((qids, qn))

    def partial(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        ids_np, qmat = fetch(q_ref)
        cand = pc.cast(batch.column(id_col), pa.int64())
        keep = pc.invert(pc.is_in(cand, value_set=qarr))
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return empty
        vecs = _to_matrix(batch.column(vec_col))
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        sims = (vecs @ qmat) / norms[:, None]  # (n, m)
        vid = batch.column(id_col).to_numpy().astype(np.int64)
        out_q, out_v, out_s = [], [], []
        for j in range(sims.shape[1]):
            order = np.lexsort((vid, -sims[:, j]))[:k]
            out_q.append(np.full(len(order), ids_np[j], np.int64))
            out_v.append(vid[order])
            out_s.append(sims[order, j])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_v)),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = embeddings.map_batches(partial, batch_format="pyarrow")
    return grouped_topk(partials, key="query_id", order_by="cosine",
                        k=k, descending=True, tiebreak=[id_col],
                        est_rows=est_rows)


def knn_join_ivf(embeddings: ray.data.Dataset, query_ids: list[int],
                 k: int = 3, n_lists: int = 16, n_probe: int = 4,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 centroids: "np.ndarray | None" = None,
                 est_rows: int | None = None) -> ray.data.Dataset:
    """IVF-pruned ``knn_join`` — the scale path for the similarity-join
    workload: each query ranks ONLY candidates assigned to its
    ``n_probe`` nearest inverted lists, so per-query work scales with
    ``n_probe / n_lists`` of the corpus (and, over an ``ivf_build``
    index, only those partitions leave storage).

    With ``n_probe == n_lists`` the output is bit-identical to
    ``knn_join`` (pytest parity gate); smaller ``n_probe`` trades
    recall for cost exactly like ``ivf_topk`` vs ``brute_force_topk``.
    ``centroids``: trained codebook (production) or None for the
    deterministic md5 codebook."""
    from .relational import grouped_topk

    qset = sorted(dict.fromkeys(int(q) for q in query_ids))
    qarr = pa.array(qset, pa.int64())

    def grab(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(pc.cast(batch.column(id_col), pa.int64()),
                        value_set=qarr)
        return batch.filter(keep)

    qtab = (embeddings.map_batches(grab, batch_format="pyarrow")
            .to_pandas().sort_values(id_col))
    qids = qtab[id_col].to_numpy().astype(np.int64)
    qm = np.array(qtab[vec_col].to_list(), dtype=np.float64)
    qnorm = np.linalg.norm(qm, axis=1)
    qnorm[qnorm == 0] = 1.0
    qn = qm / qnorm[:, None]              # (m, dim)
    cents = (np.asarray(centroids, dtype=np.float64)
             if centroids is not None
             else _det_centroids(qn.shape[1], n_lists))
    # per-query probe mask over lists: (m, n_lists) bool
    order = np.argsort(-(qn @ cents.T), axis=1)[:, :n_probe]
    probe = np.zeros((len(qids), n_lists), dtype=bool)
    probe[np.arange(len(qids))[:, None], order] = True
    q_ref = ray.put((qids, qn.T, probe, cents))

    def partial(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        ids_np, qmat, probe_m, cc = fetch(q_ref)
        cand = pc.cast(batch.column(id_col), pa.int64())
        keep = pc.invert(pc.is_in(cand, value_set=qarr))
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return empty
        vecs = _to_matrix(batch.column(vec_col))
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        vn = vecs / norms[:, None]
        lists = np.argmax(vn @ cc.T, axis=1)          # (n,)
        # same float op order as knn_join (divide AFTER the matmul) so
        # the full-probe path is bit-identical to the exact join
        sims = (vecs @ qmat) / norms[:, None]         # (n, m)
        allowed = probe_m[:, lists].T                 # (n, m)
        vid = batch.column(id_col).to_numpy().astype(np.int64)
        out_q, out_v, out_s = [], [], []
        for j in range(sims.shape[1]):
            ok = allowed[:, j]
            if not ok.any():
                continue
            sj, vj = sims[ok, j], vid[ok]
            top = np.lexsort((vj, -sj))[:k]
            out_q.append(np.full(len(top), ids_np[j], np.int64))
            out_v.append(vj[top])
            out_s.append(sj[top])
        if not out_q:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_v)),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = embeddings.map_batches(partial, batch_format="pyarrow")
    return grouped_topk(partials, key="query_id", order_by="cosine",
                        k=k, descending=True, tiebreak=[id_col],
                        est_rows=est_rows)


def mmr_select(
    embeddings: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    lam_num: int = 7,
    lam_den: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Maximal-Marginal-Relevance top-k: greedily pick the item
    maximizing ``λ·rel − (1−λ)·max_sim_to_selected`` — the diverse-
    selection step after retrieval (dedup-aware sampling for curation /
    eval-set building).  λ = lam_num/lam_den stays rational and both
    relevance and pairwise cosines quantize to 1e-6 ints BEFORE any
    comparison, so the greedy argmax (ties → lowest id) is
    bit-deterministic at any parallelism.

    Distributed shape: relevance is one streaming pass; each of the k
    rounds broadcasts ONLY the newly selected vector, updates each
    candidate's running max-similarity in place (map_batches), and
    reduces a per-batch partial argmax — the driver sees k rows per
    block per round, never the table.  k passes over the candidate pool
    is the documented cost: run it on the retrieval output (thousands),
    not the corpus."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(qn)
    mu = lam_den - lam_num

    def prep(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        qv = fetch(q_ref)
        vecs = _to_matrix(batch.column(vec_col))
        if vecs.size == 0:
            rel = np.zeros(0)
        else:
            norms = np.linalg.norm(vecs, axis=1)
            norms[norms == 0] = 1.0
            rel = (vecs @ qv) / norms
        return pa.table({
            id_col: batch.column(id_col),
            vec_col: batch.column(vec_col),
            "rel_q": pa.array(np.floor(rel * 1e6 + 0.5).astype(np.int64)),
            "max_sim_q": pa.array(np.zeros(len(rel), np.int64)),
        })

    cand = embeddings.map_batches(prep, batch_format="pyarrow") \
        .repartition(4).materialize()

    out_rows = []
    for rank in range(k):
        def partial_best(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            if n == 0:
                return pa.table({id_col: pa.array([], pa.int64()),
                                 vec_col: batch.column(vec_col),
                                 "rel_q": pa.array([], pa.int64()),
                                 "mmr_q": pa.array([], pa.int64())})
            rel = batch.column("rel_q").to_numpy()
            ms = batch.column("max_sim_q").to_numpy()
            ids = batch.column(id_col).to_numpy()
            mmr = lam_num * rel - mu * ms
            j = np.lexsort((ids, -mmr))[0]
            return pa.table({
                id_col: pa.array([ids[j]], pa.int64()),
                vec_col: batch.column(vec_col).slice(int(j), 1),
                "rel_q": pa.array([rel[j]], pa.int64()),
                "mmr_q": pa.array([mmr[j]], pa.int64()),
            })

        parts = (cand.map_batches(partial_best, batch_format="pyarrow")
                 .to_pandas())
        if parts.empty:
            break
        parts = parts.sort_values(["mmr_q", id_col],
                                  ascending=[False, True],
                                  kind="mergesort")
        best = parts.iloc[0]
        out_rows.append((rank, int(best[id_col]), int(best["rel_q"]),
                         int(best["mmr_q"])))
        bvec = np.asarray(best[vec_col], dtype=np.float64)
        bn = bvec / (np.linalg.norm(bvec) or 1.0)
        b_ref = ray.put((int(best[id_col]), bn))

        def update(batch: pa.Table, _ref=b_ref) -> pa.Table:
            from ..state.broadcast import fetch

            bid, bv = fetch(_ref)
            ids = batch.column(id_col).to_numpy()
            keep = ids != bid
            batch = batch.filter(pa.array(keep))
            if batch.num_rows == 0:
                return batch
            vecs = _to_matrix(batch.column(vec_col))
            norms = np.linalg.norm(vecs, axis=1)
            norms[norms == 0] = 1.0
            sim_q = np.floor((vecs @ bv) / norms * 1e6 + 0.5) \
                .astype(np.int64)
            ms = np.maximum(batch.column("max_sim_q").to_numpy(), sim_q)
            return batch.set_column(
                batch.schema.get_field_index("max_sim_q"),
                "max_sim_q", pa.array(ms, pa.int64()))

        cand = cand.map_batches(update, batch_format="pyarrow") \
            .materialize()

    return pa.table({
        "rank": pa.array([r for r, *_ in out_rows], pa.int64()),
        id_col: pa.array([i for _, i, *_ in out_rows], pa.int64()),
        "rel_q": pa.array([x for _, _, x, _ in out_rows], pa.int64()),
        "mmr_q": pa.array([m for *_, m in out_rows], pa.int64()),
    })


def ivfpq_topk(
    embeddings: ray.data.Dataset,
    query_vecs: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    m: int = 4,
    k_cent: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    centroids: "np.ndarray | None" = None,
    codebooks: "np.ndarray | None" = None,
) -> pa.Table:
    """IVF-PQ — the standard large-scale ANN composition (coarse
    inverted lists + product-quantized codes, as in Faiss IVFPQ): the
    corpus is IVF-assigned and PQ-encoded in ONE pass (16-ish bytes per
    vector ride the scan, never raw floats), each query prunes to its
    ``n_probe`` nearest lists and ranks ONLY those rows by asymmetric
    distance (per-query LUT, m adds per row).  Returns (query_id,
    vec_id, dist_q) exact-integer quantized top-k.

    ``centroids`` / ``codebooks``: pass trained ones (production — e.g.
    ``kmeans_fit`` / ``pq_train`` on a sample); defaults are the
    deterministic md5 coarse codebook and a full-corpus ``pq_train``.
    Composition is pinned in tests: probing ALL lists must equal a
    plain ``pq_topk`` over every code."""
    from .clustering import pq_encode, pq_topk, pq_train

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    dim = q.shape[1]
    cents = (np.asarray(centroids, dtype=np.float64)
             if centroids is not None
             else _det_centroids(dim, n_lists))
    if codebooks is None:
        codebooks = pq_train(embeddings, m=m, k=k_cent,
                             id_col=id_col, vec_col=vec_col)
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        cc = fetch(cents_ref)
        vecs = _to_matrix(batch.column(vec_col))
        if vecs.size == 0:
            return batch.append_column("ivf_list",
                                       pa.array([], pa.int64()))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        lists = np.argmax((vecs / norms) @ cc.T, axis=1).astype(np.int64)
        return batch.append_column("ivf_list", pa.array(lists))

    codes = pq_encode(
        embeddings.map_batches(assign, batch_format="pyarrow"),
        codebooks, id_col=id_col, vec_col=vec_col,
        keep_cols=["ivf_list"]).materialize()

    parts = []
    for qi, qv in enumerate(q):
        qn = qv / (np.linalg.norm(qv) or 1.0)
        probe = set(np.argsort(-(cents @ qn))[:n_probe].tolist())

        def prune(batch: pa.Table, _p=frozenset(probe)) -> pa.Table:
            lst = batch.column("ivf_list").to_numpy(
                zero_copy_only=False)
            return batch.filter(pa.array(np.isin(lst, list(_p))))

        sub = codes.map_batches(prune, batch_format="pyarrow")
        top = pq_topk(sub, codebooks, qv[None, :], k=k,
                      id_col=id_col).to_pandas()
        top["query_id"] = np.int64(qi)
        parts.append(top)

    out = pd.concat(parts, ignore_index=True)[
        ["query_id", "rank", id_col, "dist_q"]]
    out = out.sort_values(["query_id", "rank", id_col]) \
        .reset_index(drop=True)
    for c in ("query_id", "rank", id_col, "dist_q"):
        out[c] = out[c].astype("int64")
    return pd_to_arrow(out)
