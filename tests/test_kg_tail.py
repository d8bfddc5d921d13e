"""The fused S6+S7 tail (``pipelines.kg.kg_tail``): it must equal the
composed ``consistency_stage(bag_stage(...))`` row for row for every bag
reducer, run as ONE all-to-all exchange after S5, emit the declared Arrow
types, and never make Ray Data warn of block-schema drift."""

import logging

import pyarrow as pa
import pytest

from stanford_re_ray.fixtures import gen_corpus

_DRIFT_LOGGER = "ray.data._internal.execution.streaming_executor_state"


def _blocks(table: pa.Table, n: int):
    """A dataset of ``n`` input blocks, with no exchange in its lineage."""
    import ray.data as rd

    size = -(-table.num_rows // n)
    return rd.from_arrow([table.slice(off, size)
                          for off in range(0, table.num_rows, size)])


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.fixture(scope="module")
def world(ray_session):
    return gen_corpus(120, per_lo=0, per_hi=80, org_lo=0, org_hi=40)


@pytest.fixture(scope="module")
def lr_model(world):
    from stanford_re_ray.pipelines.train import train_model

    return train_model(_blocks(world.pages, 4), world.kb, dicts=world.dicts,
                       clusters=world.clusters, negative_subsample=1.0,
                       epochs=60)


@pytest.fixture(scope="module")
def models(world, lr_model):
    """One trained model per bag reducer kind."""
    from stanford_re_ray.pipelines import train as tr

    pages = _blocks(world.pages, 4)
    fit = dict(dicts=world.dicts, clusters=world.clusters,
               negative_subsample=1.0)
    return {"lr": lr_model,
            "hoffmann": tr.train_model_hoffmann(pages, world.kb, epochs=5,
                                                **fit),
            "miml": tr.train_model_mimlre(pages, world.kb, em_epochs=1,
                                          z_epochs=30, **fit)}


def _scored(kind, pairs, model):
    """(scored mentions, the matching ``kg_tail`` reducer kwargs)."""
    import ray

    from stanford_re_ray.pipelines import kg

    if kind == "lr":
        return kg.score_stage(pairs, model), {}
    if kind == "hoffmann":
        from stanford_re_ray.stages.classify import (HoffmannScorer,
                                                     hoffmann_bag_reduce)

        scored = pairs.map_batches(HoffmannScorer(ray.put(model)),
                                   batch_format="pyarrow",
                                   batch_size=kg.MAP_BATCH_SIZE)
        return scored, {"bag_reduce": hoffmann_bag_reduce}
    from stanford_re_ray.stages.miml import (miml_bag_combine,
                                             miml_bag_reducer,
                                             miml_score_stage)

    return miml_score_stage(pairs, model), {
        "bag_reduce": miml_bag_reducer(model), "combine": miml_bag_combine}


def _pairs(world, n_blocks: int):
    from stanford_re_ray.pipelines import kg

    pages = _blocks(world.pages, n_blocks)
    return kg.pairs_stage(kg.nlp_stage(kg.extract_stage(pages), world.dicts),
                          world.clusters).materialize()


def _fused_and_composed(kind, world, models):
    """(fused triples, composed triples) Datasets for one model kind."""
    from stanford_re_ray.pipelines import kg

    model = models[kind]
    fused = kg.triples_stage(_blocks(world.pages, 4), model,
                             dicts=world.dicts, clusters=world.clusters)
    scored, tail = _scored(kind, _pairs(world, 4), model)
    composed = kg.bag_stage(scored, **tail)
    return fused, kg.consistency_stage(composed)


def test_model_type_picks_the_scorer(world):
    """``triples_stage`` takes an LR, Hoffmann or MIML model; any other
    type raises instead of guessing a scorer."""
    from stanford_re_ray.pipelines import kg

    with pytest.raises(TypeError, match="dict"):
        kg.triples_stage(_blocks(world.pages, 1), {"weights": None},
                         dicts=world.dicts)


@pytest.mark.parametrize("kind", ["lr", "hoffmann", "miml"])
def test_fused_tail_equals_composed_stages(world, models, kind):
    from stanford_re_ray.pipelines.kg import dataset_to_table
    from stanford_re_ray.schema import TRIPLES

    fused, composed = _fused_and_composed(kind, world, models)
    got, want = dataset_to_table(fused), dataset_to_table(composed)
    assert got.num_rows > 0
    assert got.schema == TRIPLES and want.schema == TRIPLES
    assert _sorted(got).equals(_sorted(want))


def _exchanges(ds) -> int:
    """All-to-all exchanges in ``ds``'s executed lineage: each shows up in
    ``Dataset.stats()`` as one run of consecutive sub-operators (e.g.
    SortMap, SortReduce)."""
    ops, todo = [], [ds._get_stats_summary()]
    while todo:
        s = todo.pop(0)
        ops.extend(s.operators_stats)
        todo.extend(s.parents)
    return sum(1 for i, o in enumerate(ops) if o.is_sub_operator
               and (i == 0 or not ops[i - 1].is_sub_operator))


@pytest.fixture(scope="module")
def lr_runs(world, lr_model):
    """run_kg_pipeline on a 200-page and an 8-page corpus, with every
    Ray Data schema-drift warning logged meanwhile."""
    from stanford_re_ray.pipelines.kg import dataset_to_table, run_kg_pipeline

    drift: list[str] = []

    class Catch(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                drift.append(record.getMessage())

    logger = logging.getLogger(_DRIFT_LOGGER)
    handler, level = Catch(level=logging.WARNING), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        test = gen_corpus(200, per_lo=200, per_hi=400, org_lo=100,
                          org_hi=200, base_url="https://t.example")
        runs = []
        for pages in (test.pages, test.pages.slice(0, 8)):
            res = run_kg_pipeline(_blocks(pages, 4), lr_model,
                                  dicts=test.dicts, clusters=test.clusters)
            runs.append({"triples_ds": res["triples"],
                         **{k: dataset_to_table(res[k])
                            for k in ("triples", "nodes", "edges")}})
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return runs, drift


def test_one_exchange_between_scores_and_triples(lr_runs):
    runs, _ = lr_runs
    for run in runs:
        assert run["triples"].num_rows > 0
        assert _exchanges(run["triples_ds"]) == 1


def test_kg_outputs_have_declared_types(lr_runs):
    from stanford_re_ray.pipelines.kg import NODES_MEMBERS
    from stanford_re_ray.schema import EDGES, TRIPLES

    runs, _ = lr_runs
    for run in runs:
        assert run["triples"].schema == TRIPLES
        assert run["nodes"].schema == NODES_MEMBERS
        assert run["nodes"].schema.field("alt_names").type == \
            pa.list_(pa.string())
        assert run["edges"].schema == EDGES


def test_no_schema_drift_warning(lr_runs):
    _, drift = lr_runs
    assert not drift, drift[:2]


def test_bag_reducers_emit_typed_empty_tables():
    import pandas as pd

    from stanford_re_ray.schema import TRIPLES
    from stanford_re_ray.stages.classify import (bag_reduce_bucket,
                                                 hoffmann_bag_reduce)

    for reduce in (bag_reduce_bucket, hoffmann_bag_reduce):
        assert reduce(pd.DataFrame()).schema == TRIPLES


@pytest.mark.parametrize("kind", ["lr", "hoffmann", "miml"])
def test_tail_blocks_are_typed_arrow(world, models, kind):
    """Every block the fused tail materializes is an Arrow table; every
    block with rows is typed as TRIPLES — with the default bucket count
    and far more buckets than entities (then every block is TRIPLES),
    and with one bucket over 16 input blocks, where the sort exchange
    leaves partitions empty.  Ray passes an empty partition through
    without calling the reducer, as a column-less block of the map
    side's format: Arrow here (pandas blocks used to appear)."""
    import ray

    from stanford_re_ray.pipelines import kg
    from stanford_re_ray.schema import TRIPLES

    # the corpus has at most 120 entities (persons 0-80, orgs 0-40)
    for n_blocks, n_buckets in ((4, None), (4, 4096), (16, 1)):
        scored, tail = _scored(kind, _pairs(world, n_blocks), models[kind])
        ds = kg.kg_tail(scored, n_buckets=n_buckets, **tail).materialize()
        blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert all(isinstance(b, pa.Table) for b in blocks), n_buckets
        full = [b for b in blocks if b.num_rows]
        assert full and all(b.schema == TRIPLES for b in full), n_buckets
        if n_buckets == 1:
            assert len(full) < len(blocks)
        else:
            assert all(b.schema == TRIPLES for b in blocks), n_buckets
        assert kg.dataset_to_table(ds).schema == TRIPLES
