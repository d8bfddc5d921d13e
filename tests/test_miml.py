"""MIML-RE (JOINT_BAYES) trainer: EM must denoise multi-instance bags
that defeat the purely-local model, deterministically."""

import numpy as np
import pytest

from stanford_re_ray.stages.miml import (MimlModel, NIL_IDX, classify_bags,
                                         train_mimlre, y_feature_vector)


def _noisy_world():
    """Positive bags hold one SIGNAL mention (feature 10) and one NOISE
    mention (feature 20); negative bags hold only noise mentions.  Naive
    distant supervision labels the noise mentions positive, so a local
    model predicts per:spouse for the negative bags; MIML's EM should
    reassign the noise mentions to NIL."""
    feats, labels, bags = [], [], []
    for i in range(12):
        feats.append(np.array([10, 11], dtype=np.int64))
        labels.append({"per:spouse"})
        bags.append(f"pos{i:02d}")
        feats.append(np.array([20, 21], dtype=np.int64))
        labels.append({"per:spouse"})
        bags.append(f"pos{i:02d}")
    for i in range(18):
        feats.append(np.array([20, 21], dtype=np.int64))
        labels.append(set())
        bags.append(f"neg{i:02d}")
    return feats, labels, bags


def _bag_f1(preds: dict, gold_pos: set) -> float:
    tp = sum(1 for b, p in preds.items() if "per:spouse" in p and b in gold_pos)
    fp = sum(1 for b, p in preds.items() if "per:spouse" in p and b not in gold_pos)
    fn = sum(1 for b in gold_pos if "per:spouse" not in preds.get(b, {}))
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def test_em_beats_local_on_noisy_bags():
    feats, labels, bags = _noisy_world()
    bag_datums = {}
    for f, b in zip(feats, bags):
        bag_datums.setdefault(b, []).append(f)
    gold_pos = {b for b, l in zip(bags, labels) if l}

    local = train_mimlre(feats, labels, bags, only_local=True)
    full = train_mimlre(feats, labels, bags)

    f1_local = _bag_f1(classify_bags(local, bag_datums), gold_pos)
    f1_full = _bag_f1(classify_bags(full, bag_datums), gold_pos)
    assert f1_full >= f1_local
    assert f1_full >= 0.95
    # the EM model must not hallucinate spouse on pure-noise bags
    full_preds = classify_bags(full, bag_datums)
    assert not any("per:spouse" in full_preds[f"neg{i:02d}"]
                   for i in range(18))
    # ...while still recalling the signal bags
    assert all("per:spouse" in full_preds[f"pos{i:02d}"] for i in range(12))


def test_miml_deterministic():
    feats, labels, bags = _noisy_world()
    m1 = train_mimlre(feats, labels, bags)
    m2 = train_mimlre(feats, labels, bags)
    assert np.array_equal(m1.z_weights, m2.z_weights)
    assert np.array_equal(m1.y_weights, m2.y_weights)
    assert np.array_equal(m1.z_bias, m2.z_bias)


def test_miml_roundtrip(tmp_path):
    feats, labels, bags = _noisy_world()
    m = train_mimlre(feats, labels, bags, em_epochs=2)
    p = str(tmp_path / "miml.parquet")
    m.save(p)
    m2 = MimlModel.load(p)
    assert np.array_equal(m.z_weights, m2.z_weights)
    assert np.array_equal(m.y_weights, m2.y_weights)
    assert np.array_equal(m.y_bias, m2.y_bias)


def test_y_feature_semantics():
    from stanford_re_ray.relations import RELATION_NAMES

    r0, r1 = 0, 1
    counts = np.zeros(len(RELATION_NAMES) + 1, dtype=np.int64)
    # no z proposed r0 → NONE only
    v = y_feature_vector(r0, counts, ("atleast_once", "cooc", "unique"))
    assert v[0] == 1.0 and v[1] == 0.0 and v[2] == 0.0
    # r0 proposed alone → ATLEAST + UNIQUE, no cooc
    counts[r0] = 2
    v = y_feature_vector(r0, counts, ("atleast_once", "cooc", "unique"))
    assert v[0] == 0.0 and v[1] == 1.0 and v[2] == 1.0
    assert v[3:].sum() == 0.0
    # r1 also present → cooc fires, UNIQUE off
    counts[r1] = 1
    v = y_feature_vector(r0, counts, ("atleast_once", "cooc", "unique"))
    assert v[1] == 1.0 and v[2] == 0.0 and v[3 + r1] == 1.0


def test_scorer_takes_compact_view():
    """MimlScorer scores identically from the model or its compact
    ``(dims, Wc, z_bias)`` view — the broadcast payload, a fraction of
    the pickled dense model."""
    import pickle

    import pyarrow as pa

    from stanford_re_ray.stages.miml import MimlScorer

    feats, labels, bags = _noisy_world()
    m = train_mimlre(feats, labels, bags, em_epochs=2)
    n = 4
    i32 = pa.array([0] * n, pa.int32())
    batch = pa.table({
        "subj": ["A", "B", "C", "D"], "subj_type": ["PERSON"] * n,
        "obj": ["E", "F", "G", "H"], "obj_type": ["PERSON"] * n,
        "doc_id": ["d1", "d2", "d3", "d4"], "sent_idx": i32,
        "subj_begin": i32, "subj_end": i32, "obj_begin": i32, "obj_end": i32,
        "features": pa.array([[10, 11], [20, 21], [], [10, 99]],
                             pa.list_(pa.int64()))})
    got = MimlScorer(m.compact())(batch)
    assert got.num_rows > 0 and got.equals(MimlScorer(m)(batch))
    assert m.compact() is m.compact()
    assert len(pickle.dumps(m.compact())) * 100 < len(pickle.dumps(m))
