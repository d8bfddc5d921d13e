"""Model zoo (perceptron, ensemble), config-driven pipeline, salted
canonicalization equivalence."""

import numpy as np
import pyarrow as pa
import pytest

from stanford_re_ray.fixtures import gen_corpus


def test_perceptron_separates_simple_data():
    from stanford_re_ray.stages.classify import train_perceptron

    # datums: feature 1 ⇒ per:spouse, feature 2 ⇒ negative
    feats = [np.array([1]), np.array([2]), np.array([1]), np.array([2])] * 3
    labels = [{"per:spouse"}, set(), {"per:spouse"}, set()] * 3
    m = train_perceptron(feats, labels, epochs=5, feature_count_threshold=1)
    from stanford_re_ray.relations import RELATION_NAMES

    r = RELATION_NAMES.index("per:spouse")
    assert m.weights[r, 1] > 0
    assert m.weights[r, 1] > m.weights[r, 2]


def _scored(rows, model_tag):
    return pa.table({
        "subj": [r[0] for r in rows], "subj_type": ["PERSON"] * len(rows),
        "obj": [r[1] for r in rows], "obj_type": ["PERSON"] * len(rows),
        "doc_id": ["d"] * len(rows),
        "sent_idx": pa.array([0] * len(rows), pa.int32()),
        "subj_begin": pa.array([0] * len(rows), pa.int32()),
        "subj_end": pa.array([1] * len(rows), pa.int32()),
        "obj_begin": pa.array([r[3] for r in rows], pa.int32()),
        "obj_end": pa.array([r[3] + 1 for r in rows], pa.int32()),
        "rel": [r[2] for r in rows],
        "sum_q": pa.array([r[4] for r in rows], pa.int64()),
        "best_q": pa.array([r[4] for r in rows], pa.int64()),
    })


def test_ensemble_vote_modes():
    from stanford_re_ray.stages.classify import ensemble_scores

    m1 = _scored([("A", "B", "per:spouse", 2, 900), ("A", "C", "per:siblings", 5, 700)], 0)
    m2 = _scored([("A", "B", "per:spouse", 2, 800)], 1)
    any_ = ensemble_scores([m1, m2], "agree_any").to_pandas()
    assert len(any_) == 2
    # max score wins for the agreed key
    assert any_[any_["rel"] == "per:spouse"]["sum_q"].iloc[0] == 900
    all_ = ensemble_scores([m1, m2], "agree_all").to_pandas()
    assert len(all_) == 1 and all_["rel"].iloc[0] == "per:spouse"


@pytest.fixture(scope="module")
def trained(ray_session):
    import ray.data as rd

    from stanford_re_ray.pipelines.train import train_model

    train = gen_corpus(250, per_lo=0, per_hi=200, org_lo=0, org_hi=100)
    model = train_model(rd.from_arrow(train.pages).repartition(4), train.kb,
                        dicts=train.dicts, clusters=train.clusters,
                        negative_subsample=1.0, epochs=100)
    test = gen_corpus(120, per_lo=200, per_hi=400, org_lo=100, org_hi=200,
                      base_url="https://t.example")
    return model, test


def test_cfg_pipeline_with_rules_and_competition(ray_session, trained):
    import ray.data as rd

    from stanford_re_ray.config import PipelineConfig
    from stanford_re_ray.evaluate import score_triples
    from stanford_re_ray.pipelines.kg import dataset_to_table, run_kg_pipeline

    model, test = trained
    cfg = PipelineConfig(use_rules=True, sentence_competition=False,
                        add_inverses=True)
    res = run_kg_pipeline(rd.from_arrow(test.pages).repartition(4),
                          model, cfg, dicts=test.dicts,
                          clusters=test.clusters)
    tri = dataset_to_table(res["triples"])
    s = score_triples(tri, test.gold)
    assert s.precision >= 0.95 and s.recall >= 0.95
    edges = res["edges"].to_pandas()
    assert len(edges) > 0


def test_salted_canonicalization_matches_unsalted(ray_session, trained):
    import ray.data as rd

    from stanford_re_ray.pipelines.kg import (consistency_stage, bag_stage,
                                              dataset_to_table, extract_stage,
                                              nlp_stage, nodes_stage,
                                              pairs_stage, score_stage)

    model, test = trained
    scored = score_stage(
        pairs_stage(
            nlp_stage(extract_stage(rd.from_arrow(test.pages).repartition(4)),
                      test.dicts),
            test.clusters),
        model)
    triples = consistency_stage(bag_stage(scored)).materialize()
    plain = dataset_to_table(nodes_stage(triples, n_salt=1)).to_pandas()
    salted = dataset_to_table(nodes_stage(triples, n_salt=4)).to_pandas()
    # identical surfaces always colocate → same entity ids either way for
    # exact-name entities (the fixture world has no cross-page variants
    # beyond coref, which is resolved pre-canonicalization)
    assert set(plain["entity_id"]) == set(salted["entity_id"])


def test_atleast_once_em_denoises_bags():
    from stanford_re_ray.relations import RELATION_NAMES
    from stanford_re_ray.stages.classify import train_atleast_once, train_lr

    # bags of 2 mentions: one true trigger (feat 10), one bag-noise mention
    # (feat 20) that ALSO appears in pure-negative bags.  Naive DS labels
    # both; at-least-once should concentrate the label on the trigger.
    feats, labels, bag_ids = [], [], []
    for k in range(12):
        feats += [np.array([10]), np.array([20])]
        labels += [{"per:spouse"}, {"per:spouse"}]
        bag_ids += [f"pos{k}", f"pos{k}"]
        feats.append(np.array([20]))
        labels.append(set())
        bag_ids.append(f"neg{k}")
    naive = train_lr(feats, labels, epochs=80, feature_count_threshold=1)
    alo = train_atleast_once(feats, labels, bag_ids, em_iters=2,
                             epochs=80, feature_count_threshold=1)
    r = RELATION_NAMES.index("per:spouse")
    # EM strictly reduces the noise feature's weight relative to naive DS
    assert alo.weights[r, 20] < naive.weights[r, 20]
    assert alo.weights[r, 10] > 0


def test_hoffmann_conditional_inference():
    """generateZUpdate edge cover (HoffmannExtractor.java:328-401): each
    gold label claims its best unassigned mention; leftover mentions take
    their own best non-NIL label; more-golds-than-mentions covers
    greedily."""
    import numpy as np

    from stanford_re_ray.stages.classify import _hoffmann_z_update

    nil = 41
    # 2 mentions, 2 golds: mention 0 prefers label 1, mention 1 prefers 2
    S = np.zeros((2, 42))
    S[0, 1], S[0, 2] = 5.0, 1.0
    S[1, 1], S[1, 2] = 2.0, 4.0
    assert _hoffmann_z_update(S, {1, 2}, nil) == [{1}, {2}]
    # both mentions prefer label 1 -> best one gets it, other takes 2
    S2 = np.zeros((2, 42))
    S2[0, 1], S2[1, 1], S2[1, 2] = 5.0, 6.0, 1.0
    assert _hoffmann_z_update(S2, {1, 2}, nil) == [{1}, {2}] or \
        _hoffmann_z_update(S2, {1, 2}, nil) == [{2}, {1}]
    out2 = _hoffmann_z_update(S2, {1, 2}, nil)
    assert out2[1] == {1}          # mention 1 scored higher for label 1
    # more golds than mentions: greedy cover, one label per mention
    S3 = np.zeros((1, 42))
    S3[0, 3] = 2.0
    out3 = _hoffmann_z_update(S3, {1, 2, 3}, nil)
    assert out3 == [{3}]
    # leftover mention whose best candidate is NIL stays empty
    S4 = np.zeros((2, 42))
    S4[0, 1] = 3.0
    S4[1, nil] = 9.0
    assert _hoffmann_z_update(S4, {1}, nil) == [{1}, set()]


def test_hoffmann_beats_em_on_ambiguous_bags():
    """The fixture the EM approximation cannot solve: every positive bag
    holds two mentions carrying BOTH labels (naive DS); EM's per-label
    independent argmax piles both labels onto the first mention, so the
    second relation never learns its trigger feature.  Hoffmann's edge
    cover assigns distinct mentions to distinct labels and recovers
    both."""
    import numpy as np

    from stanford_re_ray.relations import RELATION_NAMES
    from stanford_re_ray.stages.classify import (train_atleast_once,
                                                 train_hoffmann)

    r1, r2 = "per:children", "per:parents"
    feats, labels, bag_ids = [], [], []
    for k in range(15):
        feats += [np.array([10, 30]), np.array([20, 30])]
        labels += [{r1, r2}, {r1, r2}]
        bag_ids += [f"pos{k}", f"pos{k}"]
        feats.append(np.array([30]))
        labels.append(set())
        bag_ids.append(f"neg{k}")

    em = train_atleast_once(feats, labels, bag_ids, em_iters=2, epochs=80,
                            feature_count_threshold=1)
    hoff = train_hoffmann(feats, labels, bag_ids, epochs=10)

    def em_predict(ids):
        s = em.weights[:, ids].sum(axis=1) + em.bias
        p = 1 / (1 + np.exp(-s))
        return {RELATION_NAMES[j] for j in np.nonzero(p > 0.5)[0]}

    test_bags = {"t10": [np.array([10, 30])], "t20": [np.array([20, 30])]}
    gold = {"t10": r1, "t20": r2}
    em_recall = sum(gold[b] in em_predict(test_bags[b][0])
                    for b in gold) / len(gold)
    hoff_recall = sum(gold[b] in hoff.classify_bag(test_bags[b])
                      for b in gold) / len(gold)
    assert hoff_recall == 1.0
    assert hoff_recall > em_recall


def test_hoffmann_deterministic():
    import numpy as np

    from stanford_re_ray.stages.classify import train_hoffmann

    feats = [np.array([1, 2]), np.array([3]), np.array([2, 3])]
    labels = [{"per:spouse"}, set(), {"per:title"}]
    bags = ["a", "b", "c"]
    m1 = train_hoffmann(feats, labels, bags, epochs=7)
    m2 = train_hoffmann(feats, labels, bags, epochs=7)
    assert np.array_equal(m1.avg_weights, m2.avg_weights)
    assert np.array_equal(m1.dims, m2.dims)


def test_hoffmann_e2e_pipeline(ray_session):
    """End-to-end AT_LEAST_ONCE: distant-supervision train via
    train_model_hoffmann, inference via triples_stage
    (HoffmannScorer + max-reduce bag stage + shared consistency), gated
    on the same P/R >= 0.95 bar as the LR pipeline."""
    import ray.data as rd

    from stanford_re_ray.evaluate import score_triples
    from stanford_re_ray.fixtures import gen_corpus
    from stanford_re_ray.pipelines.kg import dataset_to_table, triples_stage
    from stanford_re_ray.pipelines.train import train_model_hoffmann

    train = gen_corpus(200, per_lo=0, per_hi=120, org_lo=0, org_hi=60)
    test = gen_corpus(120, per_lo=200, per_hi=320, org_lo=100, org_hi=160,
                      base_url="https://t.example")
    model = train_model_hoffmann(
        rd.from_arrow(train.pages).repartition(4), train.kb,
        dicts=train.dicts, clusters=train.clusters,
        negative_subsample=1.0, epochs=10)
    triples = triples_stage(
        rd.from_arrow(test.pages).repartition(4), model,
        dicts=test.dicts, clusters=test.clusters)
    tbl = dataset_to_table(triples)
    s = score_triples(tbl, test.gold)
    assert s.precision >= 0.95
    assert s.recall >= 0.95


def test_hoffmann_model_roundtrip():
    """Save/load through the Parquet weight table preserves scoring
    (all-zero dims may be dropped; scores and argmax are unchanged)."""
    import numpy as np

    from stanford_re_ray.stages.classify import HoffmannModel, train_hoffmann

    feats = [np.array([3, 7]), np.array([9]), np.array([7, 9])]
    labels = [{"per:spouse"}, set(), {"per:title"}]
    m = train_hoffmann(feats, labels, ["a", "b", "c"], epochs=5)
    m2 = HoffmannModel.from_table(m.to_table())
    for ids in (np.array([3, 7]), np.array([9]), np.array([]),
                np.array([12345])):
        np.testing.assert_allclose(m.mention_scores(ids),
                                   m2.mention_scores(ids))
    assert m.classify_bag([np.array([3, 7])]) == \
        m2.classify_bag([np.array([3, 7])])
