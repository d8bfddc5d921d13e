"""MIML-RE / JOINT_BAYES — the reference's headline model (Surdeanu et al.
EMNLP 2012), rebuilt from
``kbp/sf/classify/JointBayesRelationExtractor.java:36-156`` (structure),
``:480-760`` (EM loop), ``:1528-1633`` (stable ICM inference),
``:1796-1869`` (y meta-features) and ``:1985-2100`` (test-time
classification).

Model structure:

- **z layer** — one multiclass (relations + NIL) softmax LR per FOLD,
  trained on out-of-fold bags (jackknifing so a bag's z inference never
  uses a classifier that saw its own mentions), plus a final single z
  classifier over all datums (``makeSingleZClassifier``).
- **y layer** — one tiny binary LR per relation over meta-features of the
  bag's z-label multiset: NONE, ATLEAST_ONCE, UNIQUE, COOC(y, z_other)
  (default feature set {ATLEAST_ONCE, COOC} + NONE per Props.java:188;
  UNIQUE available via ``y_features``).  Initialized with a BIG_WEIGHT on
  ATLEAST_ONCE (``initializeYClassifiersWithAtLeastOnce``, :1401-1447).
- **EM** — E-step: stable ICM over each bag's latent z labels
  (``inferZLabelsStable``): for each mention, each candidate z label is
  scored as logP(z|x) + Σ_pos logP(y=1|φ) + Σ_neg logP(y=0|φ); flips are
  counted and EM stops early when an epoch changes nothing.  M-step:
  refit fold z classifiers on the inferred z labels and y classifiers on
  the per-bag meta-feature datums.

Determinism (repo policy, replaces the reference's epoch-seeded
``randomizeGroup``): bags process in sorted bag_id order, mentions in
original order, ties in ICM break by z-label index; fold assignment is a
content hash of the bag id, not an array index.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..relations import RELATION_NAMES
from .classify import (D_FEATURES, PAIR_KEY, _PROV_COLS, _REL_INDEX,
                       bag_triples, compact_weights, merge_partials,
                       segment_starts, sparse_scores)

NIL = "_NR"  # RelationMention.UNRELATED analog
Z_LABELS = list(RELATION_NAMES) + [NIL]
NIL_IDX = len(RELATION_NAMES)

#: auto-ingest switch for the sharded trainer: above this many labeled
#: datums, spill to shard-partitioned Parquet so each shard actor reads
#: only its partition instead of filtering every object-store block
PARQUET_INGEST_THRESHOLD = 2_000_000
R = len(RELATION_NAMES)

#: y meta-feature layout: [none, atleastonce, unique, cooc_0..cooc_{R-1}]
Y_DIM = 3 + R
_F_NONE, _F_ATLEAST, _F_UNIQUE = 0, 1, 2
BIG_WEIGHT = 10.0  # initializeYClassifiersWithAtLeastOnce, :1420


@dataclass
class MimlModel:
    """z fold classifiers are a training artifact; the serialized model is
    the single z classifier + the y layer (what test-time inference uses,
    JointBayesRelationExtractor.classifyRelations)."""

    z_weights: np.ndarray          # (R+1, D) float32 — multiclass softmax
    z_bias: np.ndarray             # (R+1,)
    y_weights: np.ndarray          # (R, Y_DIM) float32 — binary LR per rel
    y_bias: np.ndarray             # (R,)
    y_features: tuple = ("atleast_once", "cooc")

    def to_table(self) -> pa.Table:
        nz_r, nz_d = np.nonzero(self.z_weights)
        ny_r, ny_d = np.nonzero(self.y_weights)
        return pa.table({
            "layer": pa.array(["z"] * len(nz_r) + ["y"] * len(ny_r)
                              + ["zb"] * len(self.z_bias)
                              + ["yb"] * len(self.y_bias)),
            "row": pa.array(
                np.concatenate([nz_r, ny_r,
                                np.arange(len(self.z_bias)),
                                np.arange(len(self.y_bias))]).astype(np.int32)),
            "col": pa.array(
                np.concatenate([nz_d, ny_d,
                                np.zeros(len(self.z_bias)),
                                np.zeros(len(self.y_bias))]).astype(np.int32)),
            "value": pa.array(np.concatenate([
                self.z_weights[nz_r, nz_d], self.y_weights[ny_r, ny_d],
                self.z_bias, self.y_bias]).astype(np.float32)),
        })

    @staticmethod
    def from_table(t: pa.Table) -> "MimlModel":
        zw = np.zeros((R + 1, D_FEATURES), dtype=np.float32)
        yw = np.zeros((R, Y_DIM), dtype=np.float32)
        zb = np.zeros(R + 1, dtype=np.float32)
        yb = np.zeros(R, dtype=np.float32)
        layer = t.column("layer").to_pylist()
        row = t.column("row").to_numpy()
        col = t.column("col").to_numpy()
        val = t.column("value").to_numpy()
        for L, r_, c_, v in zip(layer, row, col, val):
            if L == "z":
                zw[int(r_), int(c_)] = v
            elif L == "y":
                yw[int(r_), int(c_)] = v
            elif L == "zb":
                zb[int(r_)] = v
            else:
                yb[int(r_)] = v
        return MimlModel(zw, zb, yw, yb)

    def save(self, path: str) -> None:
        import pyarrow.parquet as pq

        pq.write_table(self.to_table(), path)

    @staticmethod
    def load(path: str) -> "MimlModel":
        import pyarrow.parquet as pq

        return MimlModel.from_table(pq.read_table(path))

    def compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scoring view ``(dims, Wc, z_bias)``, built once and cached,
        that ``miml_score_stage`` broadcasts instead of the 45 MB dense
        z-weights (as ``classify.LRModel.compact``)."""
        c = self.__dict__.get("_compact")
        if c is None:
            c = self._compact = (*compact_weights(self.z_weights),
                                 self.z_bias)
        return c


def y_feature_vector(y_idx: int, z_counts: np.ndarray,
                     y_features: tuple) -> np.ndarray:
    """extractYFeatures (:1796-1869): meta-features of the bag's z-label
    multiset for relation y.  ``z_counts``: (R+1,) counts of inferred z
    labels over the bag's mentions."""
    v = np.zeros(Y_DIM, dtype=np.float64)
    count = z_counts[y_idx]
    others = [k for k in range(R) if k != y_idx and z_counts[k] > 0]
    if count == 0:
        v[_F_NONE] = 1.0
    if count > 0 and "atleast_once" in y_features:
        v[_F_ATLEAST] = 1.0
    if count > 0 and "cooc" in y_features:
        for k in others:
            v[3 + k] = 1.0
    if count > 0 and "unique" in y_features and not others:
        v[_F_UNIQUE] = 1.0
    return v


def _y_log_probs(model_yw, model_yb, y_idx: int, vec: np.ndarray):
    """Binary LR: returns (logP(y=1|φ), logP(y=0|φ)) via log-sigmoid."""
    s = float(model_yw[y_idx] @ vec + model_yb[y_idx])
    # numerically stable log σ(s), log σ(-s)
    lp = -np.logaddexp(0.0, -s)
    ln = -np.logaddexp(0.0, s)
    return lp, ln


def y_joint_logprob(yW, yB, counts, active_idx, pos_mask,
                    y_features) -> float:
    """Σ_{y∈pos} logP(y=1|φ(y,z)) + Σ_{y∈neg} logP(y=0|φ(y,z)), computed
    for every active relation at once (vectorized equivalent of calling
    ``y_feature_vector`` + ``_y_log_probs`` per label — the ICM sweep's
    hot path)."""
    nz = np.nonzero(counts[:R] > 0)[0]
    W = yW[active_idx]
    cnt_a = counts[active_idx]
    atleast = cnt_a > 0
    s = yB[active_idx] + np.where(~atleast, W[:, _F_NONE], 0.0)
    if "atleast_once" in y_features:
        s = s + np.where(atleast, W[:, _F_ATLEAST], 0.0)
    if "cooc" in y_features:
        in_nz = np.isin(active_idx, nz)
        cooc = (W[:, 3 + nz].sum(axis=1) if len(nz)
                else np.zeros(len(active_idx)))
        self_c = np.where(in_nz,
                          W[np.arange(len(active_idx)), 3 + active_idx],
                          0.0)
        s = s + np.where(atleast, cooc - self_c, 0.0)
    if "unique" in y_features:
        in_nz = np.isin(active_idx, nz)
        n_others = len(nz) - in_nz.astype(np.int64)
        s = s + np.where(atleast & (n_others == 0), W[:, _F_UNIQUE], 0.0)
    lp1 = -np.logaddexp(0.0, -s)
    lp0 = -np.logaddexp(0.0, s)
    return float(np.where(pos_mask, lp1, lp0).sum())


def softmax_grad_block(flat_c, seg, n_local, z_labels, Wc, bias, d_c):
    """Quantized-integer gradient of the multiclass softmax LR over one
    datum block (same GRAD_SCALE trick as classify.grad_block — partials
    from different blocks add associatively, so the bag-sharded MIML fit
    is bit-identical to the in-memory one)."""
    from .classify import GRAD_SCALE

    n_classes = Wc.shape[0]
    S = np.empty((n_classes, n_local), dtype=np.float64)
    for k in range(n_classes):
        S[k] = np.bincount(seg, weights=Wc[k][flat_c], minlength=n_local)
    S += bias[:, None]
    if n_local:
        S -= S.max(axis=0, keepdims=True)
    E = np.exp(S)
    denom = E.sum(axis=0, keepdims=True)
    denom[denom == 0] = 1.0
    P = E / denom
    onehot = np.zeros((n_classes, n_local), dtype=np.float64)
    if n_local:
        onehot[z_labels, np.arange(n_local)] = 1.0
    resid = onehot - P
    rq = np.rint(resid * GRAD_SCALE)
    gq = np.zeros((n_classes, d_c), dtype=np.int64)
    bq = np.zeros(n_classes, dtype=np.int64)
    for k in range(n_classes):
        if len(flat_c):
            gq[k] = np.bincount(flat_c, weights=rq[k][seg],
                                minlength=d_c).astype(np.int64)
        bq[k] = np.int64(rq[k].sum())
    return gq, bq


def softmax_optimize(grad_fn, n_classes, d_c, n, epochs=80, lr=0.5,
                     l2=1e-4):
    """Shared momentum-GD driver for the z layer; ``grad_fn(Wc, bias)``
    returns the GLOBAL quantized gradient (locally computed or summed
    actor partials)."""
    from .classify import GRAD_SCALE

    Wc = np.zeros((n_classes, d_c), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)
    vel_w = np.zeros_like(Wc)
    vel_b = np.zeros(n_classes)
    for _ in range(epochs):
        gq, bq = grad_fn(Wc, bias)
        grad = gq.astype(np.float64) / GRAD_SCALE - l2 * Wc
        vel_w = 0.9 * vel_w + grad / max(n, 1)
        vel_b = 0.9 * vel_b + (bq.astype(np.float64) / GRAD_SCALE) / max(n, 1)
        Wc += lr * vel_w
        bias += lr * vel_b
    return Wc, bias


def _fit_softmax(flat_c, seg, n, z_labels, n_classes, d_c,
                 epochs=80, lr=0.5, l2=1e-4):
    """Deterministic full-batch softmax (multinomial) LR over the compact
    feature space — the LinearClassifierFactory analog for the z layer."""
    return softmax_optimize(
        lambda W_, b_: softmax_grad_block(flat_c, seg, n, z_labels,
                                          W_, b_, d_c),
        n_classes, d_c, n, epochs=epochs, lr=lr, l2=l2,
    )


def _fit_binary(X: np.ndarray, y: np.ndarray, epochs=150, lr=0.5, l2=1e-4):
    """Tiny dense binary LR (the y-layer trainer): full-batch, deterministic."""
    d = X.shape[1]
    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    vw = np.zeros(d)
    vb = 0.0
    n = len(y)
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        resid = y - p
        grad = X.T @ resid - l2 * w
        vw = 0.9 * vw + grad / max(n, 1)
        vb = 0.9 * vb + resid.sum() / max(n, 1)
        w += lr * vw
        b += lr * vb
    return w, b


class _ZData:
    """Compact CSR view of the datums with per-bag grouping + fold ids.
    ``dims`` may be supplied (the GLOBAL feature-dim array) so bag shards
    share one compact space with the in-memory fit."""

    def __init__(self, datum_features, labels, bag_ids, n_folds,
                 dims: np.ndarray | None = None):
        self.n = len(datum_features)
        self.feats = [np.asarray(f, dtype=np.int64) for f in datum_features]
        flat_all = (np.concatenate(self.feats) if self.feats
                    else np.empty(0, dtype=np.int64))
        if dims is None:
            self.dims = (np.unique(flat_all) if flat_all.size
                         else np.empty(0, dtype=np.int64))
        else:
            self.dims = dims
        self.d_c = max(len(self.dims), 1)
        remap = np.zeros(D_FEATURES, dtype=np.int64)
        if len(self.dims):
            remap[self.dims] = np.arange(len(self.dims))
        lens = np.fromiter((len(f) for f in self.feats), np.int64,
                           count=self.n)
        self.flat_c = remap[np.concatenate(self.feats)] if flat_all.size \
            else np.empty(0, dtype=np.int64)
        self.seg = np.repeat(np.arange(self.n), lens)
        self.indptr = np.concatenate(([0], np.cumsum(lens)))
        self.bags: dict[str, list[int]] = {}
        for i, b in enumerate(bag_ids):
            self.bags.setdefault(b, []).append(i)
        self.bag_order = sorted(self.bags)
        self.fold_of = {
            b: zlib.crc32(f"fold:{b}".encode()) % n_folds
            for b in self.bag_order
        }
        # positive y labels per bag = union of member DS labels
        self.pos: dict[str, list[int]] = {}
        for b, idxs in self.bags.items():
            labs = set()
            for i in idxs:
                labs |= {j for rel in labels[i]
                         if (j := _REL_INDEX.get(rel)) is not None}
            self.pos[b] = sorted(labs)

    def fold_selection(self, fold: int, z_lab: np.ndarray):
        """Re-segmented CSR restricted to OUT-of-fold bags (the training
        set of fold ``fold``'s z classifier — jackknifing)."""
        keep = np.zeros(self.n, dtype=bool)
        for b in self.bag_order:
            if self.fold_of[b] != fold:
                keep[self.bags[b]] = True
        sel = np.nonzero(keep)[0]
        mask = keep[self.seg]
        old_to_new = -np.ones(self.n, dtype=np.int64)
        old_to_new[sel] = np.arange(len(sel))
        return (self.flat_c[mask], old_to_new[self.seg[mask]], len(sel),
                z_lab[sel])

    def z_scores(self, Wc, bias, idxs):
        """Softmax log-probs of the fold classifier for the given datums:
        returns (len(idxs), n_classes) log P(z|x)."""
        out = np.empty((len(idxs), Wc.shape[0]), dtype=np.float64)
        for j, i in enumerate(idxs):
            ids = self.flat_c[self.indptr[i]:self.indptr[i + 1]]
            s = Wc[:, ids].sum(axis=1) + bias
            s = s - s.max()
            lse = np.log(np.exp(s).sum())
            out[j] = s - lse
        return out


def icm_bag(lp: np.ndarray, labels: np.ndarray, pos_mask: np.ndarray,
            active_idx: np.ndarray, yW, yB, y_features):
    """Stable ICM sweep over ONE bag (inferZLabelsStable, :1528-1633):
    for each mention in order, pick the z label maximizing
    logP(z|x) + Σ y-layer log-probs; returns (new_labels, counts, flips).
    Bag-local by construction — the unit the sharded trainer distributes."""
    m, n_classes = lp.shape
    lab = np.asarray(labels, dtype=np.int64).copy()
    counts = np.bincount(lab, minlength=n_classes)
    flips = 0
    for s in range(m):
        orig = lab[s]
        best_c, best_lp = orig, -np.inf
        for c in range(n_classes):
            counts[orig] -= 1
            counts[c] += 1
            logp = lp[s, c] + y_joint_logprob(
                yW, yB, counts, active_idx, pos_mask, y_features)
            counts[c] -= 1
            counts[orig] += 1
            if logp > best_lp:
                best_lp, best_c = logp, c
        if best_c != orig:
            counts[orig] -= 1
            counts[best_c] += 1
            lab[s] = best_c
            flips += 1
    return lab, counts, flips


def train_mimlre(
    datum_features: list[np.ndarray],
    labels: list[set[str]],
    bag_ids: list[str],
    n_folds: int = 3,
    em_epochs: int = 8,
    y_features: tuple = ("atleast_once", "cooc"),
    z_epochs: int = 80,
    only_local: bool = False,
) -> MimlModel:
    """Full MIML-RE trainer (JointBayesRelationExtractor.train, :443-790).

    Defaults follow scripts/config/base.conf (folds=3, epochs=8) rather
    than the code defaults (5/10).  ``only_local=True`` reproduces
    ``onlyLocalTraining`` — init without the EM loop.

    Scale note: the labeled-bag table is the TRAINING set (≪ corpus; the
    same object the sharded LR fit consumes).  This trainer is in-memory
    like the reference; the per-fold z fits reuse the quantization-free
    softmax on compact dims, and the E-step is bag-local (would shard by
    bag hash — each bag's ICM touches only its own mentions).
    """
    zd = _ZData(datum_features, labels, bag_ids, n_folds)
    n_classes = R + 1

    # --- init z: naive DS (first sorted bag label; NIL for negatives) ----
    z_lab = np.full(zd.n, NIL_IDX, dtype=np.int64)
    for b in zd.bag_order:
        if zd.pos[b]:
            z_lab[zd.bags[b]] = zd.pos[b][0]
    naive_lab = z_lab.copy()

    def fit_fold_classifiers(z_lab_now):
        folds = []
        for f in range(n_folds):
            flat_f, seg_f, n_f, lab_f = zd.fold_selection(f, z_lab_now)
            folds.append(_fit_softmax(
                flat_f, seg_f, n_f, lab_f, n_classes, zd.d_c,
                epochs=z_epochs))
        return folds

    fold_clf = fit_fold_classifiers(z_lab)

    # initializeZLabels: replace naive init with own-fold predictions
    for b in zd.bag_order:
        Wc, bias = fold_clf[zd.fold_of[b]]
        lp = zd.z_scores(Wc, bias, zd.bags[b])
        z_lab[zd.bags[b]] = lp.argmax(axis=1)

    # --- init y: BIG_WEIGHT on atleastonce ------------------------------
    yW = np.zeros((R, Y_DIM), dtype=np.float64)
    yB = np.zeros(R, dtype=np.float64)
    yW[:, _F_ATLEAST] = BIG_WEIGHT
    yW[:, _F_NONE] = -BIG_WEIGHT

    active = sorted({j for p in zd.pos.values() for j in p})

    if not only_local and zd.n:
        for _epoch in range(em_epochs):
            flips = 0
            y_X: dict[int, list[np.ndarray]] = {j: [] for j in active}
            y_y: dict[int, list[float]] = {j: [] for j in active}
            active_idx = np.asarray(active, dtype=np.int64)
            for b in zd.bag_order:
                idxs = zd.bags[b]
                Wc, bias = fold_clf[zd.fold_of[b]]
                lp = zd.z_scores(Wc, bias, idxs)
                pos = zd.pos[b]
                pos_mask = np.isin(active_idx, pos)
                new_lab, counts, f = icm_bag(
                    lp, z_lab[idxs], pos_mask, active_idx, yW, yB,
                    y_features)
                z_lab[idxs] = new_lab
                flips += f
                # y datums from the inferred z multiset (addYDatum)
                for ylab in active:
                    y_X[ylab].append(y_feature_vector(ylab, counts,
                                                      y_features))
                    y_y[ylab].append(1.0 if ylab in pos else 0.0)
            if flips == 0:
                break  # before the M step, like the reference (:699-704)
            # M step
            fold_clf = fit_fold_classifiers(z_lab)
            for j in active:
                if y_X[j]:
                    w, b_ = _fit_binary(np.stack(y_X[j]),
                                        np.asarray(y_y[j]))
                    yW[j], yB[j] = w, b_

    # final single z classifier over ALL datums (makeSingleZClassifier);
    # only_local keeps the naive-DS labels — the reference returns before
    # EM ever relabels, so its local model is trained on raw DS labels
    final_lab = naive_lab if only_local else z_lab
    Wc_all, bias_all = _fit_softmax(
        zd.flat_c, zd.seg, zd.n, final_lab, n_classes, zd.d_c,
        epochs=z_epochs)
    zw = np.zeros((n_classes, D_FEATURES), dtype=np.float32)
    zw[:, zd.dims] = Wc_all.astype(np.float32)
    return MimlModel(zw, bias_all.astype(np.float32),
                     yW.astype(np.float32), yB.astype(np.float32),
                     y_features=y_features)


# ---------------------------------------------------------------------------
# Distributed inference (Ray Data stages)
# ---------------------------------------------------------------------------
# Same physical plan as the LR path (classify.py): a mention-scoring
# map_batches with broadcast weights that DROPS NIL mentions before the
# shuffle, a map-side combiner collapsing each batch to one row per
# (pair, rel), and a bucket-keyed bag reduce that applies the y layer.
# The per-mention noisy-or factors ride as QUANTIZED log(1-p) int64 sums —
# associative, so results are bit-identical under any partitioning.

MIML_LOG_SCALE = 1_000_000_000

_MIML_SUMS = ["n_mentions", "log1m_q"]
_MIML_COLS = PAIR_KEY + ["rel"] + _MIML_SUMS + ["best_q"] + _PROV_COLS


class MimlScorer:
    """map_batches over PAIRS → per-mention z* rows (non-NIL only).

    Task-pool instance with a broadcast handle to the model's
    ``MimlModel.compact()`` view (a ``MimlModel`` also works), fetched once
    per worker process (same pattern as MentionScorer)."""

    def __init__(self, model_ref):
        self._ref = model_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state.broadcast import fetch

        model = fetch(self._ref)
        dims, Wc, b = (model.compact() if isinstance(model, MimlModel)
                       else model)
        n = batch.num_rows
        if n == 0:
            out = batch.drop_columns(["features"])
            return (out.append_column("rel", pa.array([], pa.string()))
                    .append_column("n_mentions", pa.array([], pa.int64()))
                    .append_column("log1m_q", pa.array([], pa.int64()))
                    .append_column("best_q", pa.array([], pa.int64())))
        S, lens = sparse_scores(batch.column("features"), dims, Wc)
        S = S.astype(np.float64) + b
        S[lens == 0] = 0.0
        S = S - S.max(axis=1, keepdims=True)
        E = np.exp(S)
        P = E / E.sum(axis=1, keepdims=True)
        zstar = P.argmax(axis=1)
        # a featureless mention has uniform P so argmax lands on relation
        # index 0; treat it as NIL (mirrors MentionScorer's p>threshold
        # drop) so it is neither kept nor counted in COOC/UNIQUE features
        zstar[lens == 0] = NIL_IDX
        pstar = P[np.arange(n), zstar]
        keep_idx = np.nonzero(zstar != NIL_IDX)[0]
        rels = [Z_LABELS[z] for z in zstar[keep_idx]]
        log1m = np.log(np.clip(1.0 - pstar[keep_idx], 1e-15, 1.0))
        log1m_q = np.rint(log1m * MIML_LOG_SCALE).astype(np.int64)
        best_q = np.rint(pstar[keep_idx] * MIML_LOG_SCALE).astype(np.int64)
        kept = batch.take(pa.array(keep_idx)).drop_columns(["features"])
        return (
            kept.append_column("rel", pa.array(rels, pa.string()))
            .append_column("n_mentions",
                           pa.array(np.ones(len(keep_idx), np.int64)))
            .append_column("log1m_q", pa.array(log1m_q))
            .append_column("best_q", pa.array(best_q))
        )


def miml_bag_combine(batch) -> pa.Table:
    """Map-side per-(pair, rel) partial merge (``classify.merge_partials``):
    n_mentions and log1m_q add; the best provenance row is the max of
    (best_q, provenance) — associative."""
    return merge_partials(batch, _MIML_SUMS).select(_MIML_COLS)


def miml_bag_reduce(group, y_weights: np.ndarray, y_bias: np.ndarray,
                    y_features: tuple, threshold: float = 0.5) -> pa.Table:
    """Bag reduce: merge partials, then apply the y layer per pair —
    Y_THEN_NOISY_OR output (classifyRelations, :2085-2094).  Returns
    TRIPLES typed as ``schema.TRIPLES`` declares."""
    merged = merge_partials(group, _MIML_SUMS)
    if not merged.num_rows:
        return bag_triples(merged, [])
    rels = merged.column("rel").to_pylist()
    n_mentions = merged.column("n_mentions").to_pylist()
    log1m_q = merged.column("log1m_q").to_pylist()
    bounds = np.append(segment_starts(merged, PAIR_KEY), len(rels))
    keep: list[int] = []
    scores: list[float] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts = np.zeros(R + 1, dtype=np.int64)
        rel_rows = {}
        for i in range(lo, hi):
            j = _REL_INDEX.get(rels[i])
            if j is not None:
                counts[j] = n_mentions[i]
                rel_rows[j] = i
        for j, i in sorted(rel_rows.items()):
            v = y_feature_vector(j, counts, y_features)
            s = float(y_weights[j] @ v + y_bias[j])
            if 1.0 / (1.0 + np.exp(-s)) <= threshold:
                continue
            score = 1.0 - np.exp(log1m_q[i] / MIML_LOG_SCALE)
            keep.append(i)
            scores.append(float(min(max(score, 0.0), 1.0)))
    return bag_triples(merged.take(pa.array(keep, pa.int64())), scores)


def miml_bag_reducer(model: MimlModel, threshold: float = 0.5):
    """``miml_bag_reduce`` bound to ``model``'s y layer: the one-argument
    bag reducer ``pipelines.kg.bag_stage`` / ``kg_tail`` take.  The y
    weights are tiny ((R, 3+R) floats) and ride in the reduce closure."""
    from functools import partial

    return partial(miml_bag_reduce,
                   y_weights=model.y_weights.astype(np.float64),
                   y_bias=model.y_bias.astype(np.float64),
                   y_features=model.y_features, threshold=threshold)


def miml_score_stage(pairs, model: MimlModel):
    """S5 (MIML variant): broadcast the model's compact ``(dims, Wc,
    z_bias)`` view, score mentions, drop NIL before the shuffle."""
    import ray

    model_ref = ray.put(model.compact())
    # batch_size doubles as min_rows_per_bundled_input and the MAX across
    # a fused chain wins (see pipelines.kg.MAP_BATCH_SIZE) — 1024 here
    # would re-coalesce the whole fused S1-S5 chain into few tasks
    from ..pipelines.kg import MAP_BATCH_SIZE

    return pairs.map_batches(MimlScorer(model_ref), batch_format="pyarrow",
                             batch_size=MAP_BATCH_SIZE)


def classify_bags(model: MimlModel,
                  bag_datums: dict[str, list[np.ndarray]],
                  threshold: float = 0.5) -> dict[str, dict[str, float]]:
    """Test-time Y_THEN_NOISY_OR classification (classifyRelations,
    :1985-2100, Props.TRAIN_JOINTBAYES_OUTDISTRIBUTION default): per
    mention take z* = argmax P(z|x); per relation keep it iff
    P(y=1 | φ(y, z*)) > threshold; score = noisy-or of the P(z*|x) of the
    mentions predicted as that relation."""
    out: dict[str, dict[str, float]] = {}
    for bag, datums in bag_datums.items():
        counts = np.zeros(R + 1, dtype=np.int64)
        noisy: dict[int, float] = {}
        for ids in datums:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size == 0:
                # featureless mention: uniform softmax would argmax to
                # relation 0; count it as NIL like the distributed scorer
                counts[NIL_IDX] += 1
                continue
            s = model.z_weights[:, ids].sum(axis=1) + model.z_bias
            s = s - s.max()
            p = np.exp(s)
            p /= p.sum()
            zstar = int(p.argmax())
            counts[zstar] += 1
            if zstar != NIL_IDX:
                noisy[zstar] = noisy.get(zstar, 1.0) * (1.0 - float(p[zstar]))
        preds: dict[str, float] = {}
        for j in range(R):
            if counts[j] == 0:
                continue
            v = y_feature_vector(j, counts, model.y_features)
            s = float(model.y_weights[j] @ v + model.y_bias[j])
            p_y = 1.0 / (1.0 + np.exp(-s))
            if p_y > threshold:
                preds[RELATION_NAMES[j]] = 1.0 - noisy.get(j, 1.0)
        out[bag] = preds
    return out


# ---------------------------------------------------------------------------
# Bag-sharded distributed training
# ---------------------------------------------------------------------------
# The labeled-bag table is the training set (≪ corpus), but it can still
# outgrow one machine.  Every part of the EM decomposes over bags or
# datums: z-layer gradients are quantized-integer sums (associative), the
# ICM E-step is bag-local, and y-layer datums are one tiny row per
# (bag, relation).  Shard bags across actors (a bag lives whole in one
# shard via a content hash of its bag id), keep weights on the driver,
# and the result is BIT-identical to train_mimlre on the same rows
# (tests/test_miml_sharded.py).
#
# Shard ingest: two modes.  ``refs`` hands every actor all block refs and
# filters by bag hash (zero extra I/O while the labeled table is
# object-store resident, but every actor deserializes every block);
# ``parquet`` writes the labeled table partitioned by shard id
# (write_parquet(partition_cols=["__shard"])) so each actor reads ONLY
# its partition directory — per-actor input bytes ≈ 1/n_shards, and the
# spill doubles as a resumable checkpoint of the labeled set.  Datums are
# canonically ordered by sort_key inside the shard, so both ingests are
# bit-identical to each other and to the in-memory trainer.

class _MimlShardImpl:
    def __init__(self, source, shard_id: int, n_shards: int,
                 n_folds: int):
        import pandas as _pd
        import ray as _ray

        if isinstance(source, str):
            # parquet ingest: read only this shard's partition directory
            import os

            import pyarrow.parquet as _pq

            part = os.path.join(source, f"__shard={shard_id}")
            tables = [_pq.read_table(
                part, columns=["sort_key", "features", "labels", "bag_id"])] \
                if os.path.isdir(part) else []
            prefiltered = True
        else:
            tables = _ray.get(list(source))
            prefiltered = False
        rows: list[tuple[str, np.ndarray, set, str]] = []
        for t in tables:
            if isinstance(t, _pd.DataFrame):
                if not len(t.columns):
                    continue
                t = pa.Table.from_pandas(t, preserve_index=False)
            for k, f, l, b in zip(t.column("sort_key").to_pylist(),
                                  t.column("features").to_pylist(),
                                  t.column("labels").to_pylist(),
                                  t.column("bag_id").to_pylist()):
                if not prefiltered and \
                        zlib.crc32(f"shard:{b}".encode()) % n_shards != shard_id:
                    continue
                rows.append((k, np.asarray(f, dtype=np.int64), set(l), b))
        # canonical datum order (the in-memory path sorts by sort_key too);
        # within-bag order feeds the sequential ICM updates, so it must not
        # depend on block arrival or file layout
        rows.sort(key=lambda r: r[0])
        self.feats = [r[1] for r in rows]
        self.labels = [r[2] for r in rows]
        self.bag_ids = [r[3] for r in rows]
        self.n_folds = n_folds

    def stats(self):
        flat = (np.concatenate(self.feats) if self.feats
                else np.empty(0, dtype=np.int64))
        dims = np.unique(flat) if flat.size else np.empty(0, dtype=np.int64)
        pos: set[int] = set()
        for labs in self.labels:
            for rel in labs:
                j = _REL_INDEX.get(rel)
                if j is not None:
                    pos.add(j)
        # per-fold training-set sizes (datums in OUT-of-fold bags)
        fold_counts = np.zeros(self.n_folds, dtype=np.int64)
        if self.bag_ids:
            uniq, cnts = np.unique(self.bag_ids, return_counts=True)
            for b, n_in_bag in zip(uniq, cnts):
                f = zlib.crc32(f"fold:{b}".encode()) % self.n_folds
                for g in range(self.n_folds):
                    if g != f:
                        fold_counts[g] += n_in_bag
        return dims, sorted(pos), len(self.feats), fold_counts

    def prepare(self, dims: np.ndarray) -> bool:
        self.zd = _ZData(self.feats, self.labels, self.bag_ids,
                         self.n_folds, dims=dims)
        self.z_lab = np.full(self.zd.n, NIL_IDX, dtype=np.int64)
        for b in self.zd.bag_order:
            if self.zd.pos[b]:
                self.z_lab[self.zd.bags[b]] = self.zd.pos[b][0]
        self.naive_lab = self.z_lab.copy()
        return True

    def fold_grads(self, wbs):
        """Per-fold quantized gradient partials for the CURRENT labels."""
        out = []
        for f, (Wc, bias) in enumerate(wbs):
            flat_f, seg_f, n_f, lab_f = self.zd.fold_selection(f, self.z_lab)
            out.append(softmax_grad_block(flat_f, seg_f, n_f, lab_f,
                                          Wc, bias, self.zd.d_c))
        return out

    def all_grad(self, wb, use_naive: bool = False):
        Wc, bias = wb
        lab = self.naive_lab if use_naive else self.z_lab
        return softmax_grad_block(self.zd.flat_c, self.zd.seg, self.zd.n,
                                  lab, Wc, bias, self.zd.d_c)

    def relabel_own_fold(self, wbs) -> bool:
        """initializeZLabels: replace naive init with own-fold predictions."""
        for b in self.zd.bag_order:
            Wc, bias = wbs[self.zd.fold_of[b]]
            lp = self.zd.z_scores(Wc, bias, self.zd.bags[b])
            self.z_lab[self.zd.bags[b]] = lp.argmax(axis=1)
        return True

    def e_step(self, state, y_features, active):
        wbs, yW, yB = state
        active_idx = np.asarray(active, dtype=np.int64)
        flips = 0
        rows = []
        for b in self.zd.bag_order:
            idxs = self.zd.bags[b]
            Wc, bias = wbs[self.zd.fold_of[b]]
            lp = self.zd.z_scores(Wc, bias, idxs)
            pos = self.zd.pos[b]
            pos_mask = np.isin(active_idx, pos)
            new_lab, counts, f = icm_bag(lp, self.z_lab[idxs], pos_mask,
                                         active_idx, yW, yB, y_features)
            self.z_lab[idxs] = new_lab
            flips += f
            rows.append((b, counts, tuple(pos)))
        return flips, rows


def train_mimlre_sharded(
    labeled,
    n_shards: int = 4,
    n_folds: int = 3,
    em_epochs: int = 8,
    y_features: tuple = ("atleast_once", "cooc"),
    z_epochs: int = 80,
    only_local: bool = False,
    lr: float = 0.5,
    l2: float = 1e-4,
    ingest: str = "auto",
    spill_dir: str | None = None,
) -> MimlModel:
    """Distributed MIML-RE over a labeled Dataset (columns features /
    labels / bag_id — ``label_pairs_stage(..., emit_bag_id=True)``):
    bags shard across actors, the driver holds only weights and per-epoch
    integer gradient sums / tiny y rows.  Bit-identical to
    ``train_mimlre`` on the same rows.

    ``ingest``: ``refs`` ships every block ref to every actor (each
    filters by bag hash — fine while the labeled set is object-store
    resident); ``parquet`` spills the labeled set to Parquet partitioned
    by shard id so each actor reads ONLY its partition (~1/n_shards of
    the bytes) — the scale path, and a resumable checkpoint of the
    labeled set; ``auto`` picks parquet above
    ``PARQUET_INGEST_THRESHOLD`` datums."""
    import ray as _ray

    from .classify import GRAD_SCALE

    labeled = labeled.materialize()
    if ingest == "auto":
        ingest = ("parquet" if labeled.count() > PARQUET_INGEST_THRESHOLD
                  else "refs")
    if ingest == "parquet":
        import tempfile

        spill_dir = spill_dir or tempfile.mkdtemp(prefix="miml_shards_")

        def add_shard(batch: pa.Table) -> pa.Table:
            sh = [zlib.crc32(f"shard:{b}".encode()) % n_shards
                  for b in batch.column("bag_id").to_pylist()]
            return batch.append_column("__shard", pa.array(sh, pa.int32()))

        labeled.map_batches(add_shard, batch_format="pyarrow") \
            .write_parquet(spill_dir, partition_cols=["__shard"])
        sources = [spill_dir] * n_shards
    else:
        refs = list(labeled.to_arrow_refs())
        sources = [refs] * n_shards
    Shard = _ray.remote(_MimlShardImpl)
    actors = [Shard.remote(sources[i], i, n_shards, n_folds)
              for i in range(n_shards)]
    n_classes = R + 1
    try:
        stats = _ray.get([a.stats.remote() for a in actors])
        nonempty = [s[0] for s in stats if len(s[0])]
        dims = (np.unique(np.concatenate(nonempty)) if nonempty
                else np.empty(0, dtype=np.int64))
        d_c = max(len(dims), 1)
        active = sorted(set().union(*[set(s[1]) for s in stats]))
        n = sum(s[2] for s in stats)
        fold_counts = np.zeros(n_folds, dtype=np.int64)
        for s in stats:
            fold_counts += s[3]
        _ray.get([a.prepare.remote(dims) for a in actors])

        def fit_folds():
            """Lockstep momentum optimizers for every fold: one actor
            round per epoch returns all folds' partials."""
            Wcs = [np.zeros((n_classes, d_c)) for _ in range(n_folds)]
            bs = [np.zeros(n_classes) for _ in range(n_folds)]
            vws = [np.zeros((n_classes, d_c)) for _ in range(n_folds)]
            vbs = [np.zeros(n_classes) for _ in range(n_folds)]
            for _ in range(z_epochs):
                ref = _ray.put([(Wcs[f], bs[f]) for f in range(n_folds)])
                parts = _ray.get([a.fold_grads.remote(ref) for a in actors])
                for f in range(n_folds):
                    gq = parts[0][f][0].copy()
                    bq = parts[0][f][1].copy()
                    for p in parts[1:]:
                        gq += p[f][0]
                        bq += p[f][1]
                    nf = max(int(fold_counts[f]), 1)
                    grad = gq.astype(np.float64) / GRAD_SCALE - l2 * Wcs[f]
                    vws[f] = 0.9 * vws[f] + grad / nf
                    vbs[f] = 0.9 * vbs[f] + (
                        bq.astype(np.float64) / GRAD_SCALE) / nf
                    Wcs[f] += lr * vws[f]
                    bs[f] += lr * vbs[f]
            return list(zip(Wcs, bs))

        fold_clf = fit_folds()
        _ray.get([a.relabel_own_fold.remote(_ray.put(fold_clf))
                  for a in actors])

        yW = np.zeros((R, Y_DIM), dtype=np.float64)
        yB = np.zeros(R, dtype=np.float64)
        yW[:, _F_ATLEAST] = BIG_WEIGHT
        yW[:, _F_NONE] = -BIG_WEIGHT

        if not only_local and n:
            for _epoch in range(em_epochs):
                ref = _ray.put((fold_clf, yW, yB))
                parts = _ray.get([
                    a.e_step.remote(ref, y_features, active)
                    for a in actors
                ])
                flips = sum(p[0] for p in parts)
                rows = sorted((r for p in parts for r in p[1]),
                              key=lambda r: r[0])
                if flips == 0:
                    break
                fold_clf = fit_folds()
                for j in active:
                    X = np.stack([y_feature_vector(j, counts, y_features)
                                  for _b, counts, _pos in rows])
                    y = np.asarray([1.0 if j in pos else 0.0
                                    for _b, _c, pos in rows])
                    w, b_ = _fit_binary(X, y)
                    yW[j], yB[j] = w, b_

        def all_grad_fn(Wc, bias):
            ref = _ray.put((Wc, bias))
            parts = _ray.get([
                a.all_grad.remote(ref, only_local) for a in actors
            ])
            gq = parts[0][0].copy()
            bq = parts[0][1].copy()
            for g2, b2 in parts[1:]:
                gq += g2
                bq += b2
            return gq, bq

        Wc_all, bias_all = softmax_optimize(
            all_grad_fn, n_classes, d_c, n, epochs=z_epochs, lr=lr, l2=l2)
    finally:
        for a in actors:
            _ray.kill(a)
    zw = np.zeros((n_classes, D_FEATURES), dtype=np.float32)
    zw[:, dims] = Wc_all.astype(np.float32)
    return MimlModel(zw, bias_all.astype(np.float32),
                     yW.astype(np.float32), yB.astype(np.float32),
                     y_features=y_features)
