"""Distributed MIML-RE inference: the Ray stages (scorer → combiner →
y-layer bag reduce) must agree with the in-memory classify_bags reference
implementation, and the full pipeline must extract real triples."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def miml_world(ray_session):
    import ray.data as rd

    from stanford_re_ray.fixtures import gen_corpus
    from stanford_re_ray.pipelines.train import train_model_mimlre

    train = gen_corpus(120, per_lo=0, per_hi=80, org_lo=0, org_hi=40)
    model = train_model_mimlre(
        rd.from_arrow(train.pages).repartition(4), train.kb,
        dicts=train.dicts, clusters=train.clusters,
        negative_subsample=1.0, em_epochs=2, z_epochs=60)
    return train, model


def test_miml_pipeline_extracts_triples(miml_world):
    import ray.data as rd

    from stanford_re_ray.evaluate import score_triples
    from stanford_re_ray.pipelines.kg import dataset_to_table, triples_stage

    train, model = miml_world
    triples = triples_stage(
        rd.from_arrow(train.pages).repartition(4), model,
        dicts=train.dicts, clusters=train.clusters)
    tbl = dataset_to_table(triples.materialize())
    assert tbl.num_rows > 0
    s = score_triples(tbl, train.gold)
    assert s.precision >= 0.8
    assert s.recall >= 0.5


def test_distributed_bags_match_classify_bags(miml_world):
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import (bag_stage, dataset_to_table,
                                              extract_stage, nlp_stage,
                                              pairs_stage)
    from stanford_re_ray.stages.miml import (classify_bags, miml_bag_combine,
                                             miml_bag_reducer,
                                             miml_score_stage)

    train, model = miml_world
    pages = rd.from_arrow(train.pages).repartition(4)
    pairs = pairs_stage(nlp_stage(extract_stage(pages), train.dicts),
                        train.clusters).materialize()

    # distributed path (pre-consistency)
    dist = dataset_to_table(
        bag_stage(miml_score_stage(pairs, model),
                  bag_reduce=miml_bag_reducer(model),
                  combine=miml_bag_combine)
    ).to_pandas()
    dist_set = {(r.subj, r.subj_type, r.obj, r.obj_type, r.pred)
                for r in dist.itertuples()}

    # in-memory reference path over the same pairs
    ptbl = dataset_to_table(pairs)
    bag_datums: dict = {}
    for rec in ptbl.to_pylist():
        key = (rec["subj"], rec["subj_type"], rec["obj"], rec["obj_type"])
        bag_datums.setdefault(key, []).append(
            np.asarray(rec["features"], dtype=np.int64))
    ref = classify_bags(model, bag_datums)
    ref_set = {k + (rel,) for k, preds in ref.items() for rel in preds}

    assert dist_set == ref_set
    assert len(dist_set) > 0


def test_miml_distributed_deterministic(miml_world):
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import dataset_to_table, triples_stage

    train, model = miml_world

    def digest(n_parts):
        import hashlib

        t = dataset_to_table(triples_stage(
            rd.from_arrow(train.pages).repartition(n_parts), model,
            dicts=train.dicts, clusters=train.clusters).materialize())
        df = t.to_pandas().sort_values(
            ["subj", "pred", "obj", "doc_id"]).reset_index(drop=True)
        return hashlib.sha256(
            df.to_csv(index=False).encode()).hexdigest()

    assert digest(2) == digest(7)
