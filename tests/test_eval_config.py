"""Eval harness (threshold sweep, PR curve, validation mode), config
registry, distributed feature vocab, ensemble-style scoring."""

import numpy as np
import pyarrow as pa
import pytest

from stanford_re_ray.fixtures import gen_corpus


def _triples(rows):
    return pa.table({
        "subj": [r[0] for r in rows], "subj_type": ["PERSON"] * len(rows),
        "pred": [r[1] for r in rows], "obj": [r[2] for r in rows],
        "obj_type": ["CITY"] * len(rows),
        "score": pa.array([r[3] for r in rows], pa.float64()),
        "doc_id": ["d"] * len(rows),
        "sent_idx": pa.array([0] * len(rows), pa.int32()),
        "subj_begin": pa.array([0] * len(rows), pa.int32()),
        "subj_end": pa.array([1] * len(rows), pa.int32()),
        "obj_begin": pa.array([2] * len(rows), pa.int32()),
        "obj_end": pa.array([3] * len(rows), pa.int32()),
    })


def test_threshold_tuning_and_pr_curve():
    from stanford_re_ray.pipelines.eval import pr_curve, tune_thresholds

    guess = _triples([
        ("A", "per:city_of_birth", "Paris", 0.9),   # correct
        ("B", "per:city_of_birth", "Rome", 0.8),    # correct
        ("C", "per:city_of_birth", "Lyon", 0.3),    # wrong
    ])
    gold = _triples([
        ("A", "per:city_of_birth", "Paris", 1.0),
        ("B", "per:city_of_birth", "Rome", 1.0),
    ])
    best = tune_thresholds(guess, gold)
    # any threshold in (0.3, 0.8] gives P=1 R=1; sweep must find one
    assert best["f1"] == 1.0
    assert 0.3 < best["threshold"] <= 0.8
    curve = pr_curve(guess, gold, n_points=3)
    assert curve["recall"].iloc[-1] == 1.0
    assert curve["precision"].iloc[0] == 1.0


def test_validation_mode(ray_session):
    import ray.data as rd

    from stanford_re_ray.pipelines.eval import validate_fills
    from stanford_re_ray.pipelines.train import train_model

    train = gen_corpus(200, per_lo=0, per_hi=200, org_lo=0, org_hi=100)
    model = train_model(rd.from_arrow(train.pages).repartition(4), train.kb,
                        dicts=train.dicts, clusters=train.clusters,
                        negative_subsample=1.0, epochs=80)
    test = gen_corpus(60, per_lo=200, per_hi=400, org_lo=100, org_hi=200,
                      base_url="https://t.example")
    gold = test.gold
    proposed = pa.table({
        "subj": list(gold.column("subj").to_pylist()[:3]) + ["Nobody Realman"],
        "pred": list(gold.column("pred").to_pylist()[:3]) + ["per:spouse"],
        "obj": list(gold.column("obj").to_pylist()[:3]) + ["Jane Fake"],
    })
    judged = validate_fills(proposed, model,
                            rd.from_arrow(test.pages).repartition(4),
                            dicts=test.dicts, clusters=test.clusters)
    j = judged.column("judgement").to_pylist()
    assert j[3] == -1                      # fabricated fill rejected
    assert sum(1 for x in j[:3] if x == 1) >= 2   # real fills accepted


def test_stage_registry():
    from stanford_re_ray.config import PipelineConfig

    assert PipelineConfig().keep_threshold == 0.5


def test_distributed_feature_vocab(ray_session):
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import (extract_stage, nlp_stage,
                                              pairs_stage)
    from stanford_re_ray.pipelines.train import feature_vocab

    train = gen_corpus(100, per_lo=0, per_hi=200, org_lo=0, org_hi=100)
    pairs = pairs_stage(
        nlp_stage(extract_stage(rd.from_arrow(train.pages).repartition(4)),
                  train.dicts),
        train.clusters,
    )
    vocab5 = feature_vocab(pairs, threshold=5)
    vocab1 = feature_vocab(pairs, threshold=1)
    assert len(vocab5) > 0
    assert len(vocab1) > len(vocab5)
    assert np.all(np.diff(vocab5) > 0)  # sorted unique
