"""Round-2 coverage closers: KB XML (DOM) reader, transitive relation
completion, and the pass-2 consistency chain (entailment closure +
global filters)."""

import pyarrow as pa
import pytest

KB_XML = """<?xml version="1.0" encoding="UTF-8"?>
<knowledge_base>
  <entity name="Ada Lovelace (mathematician)" id="E0001">
    <facts class="person">
      <fact name="spouse"><link>William King</link></fact>
      <fact name="born">1815</fact>
      <fact name="birth_place"><link>London</link></fact>
    </facts>
  </entity>
  <entity name="The Rolling Pins" id="E0002">
    <facts class="person">
      <fact name="background">group_or_band</fact>
      <fact name="spouse"><link>Nobody</link></fact>
    </facts>
  </entity>
  <entity name="List of composers" id="E0003">
    <facts class="person">
      <fact name="spouse"><link>Ghost</link></fact>
    </facts>
  </entity>
  <entity name="Acme Ltd" id="E0004">
    <facts class="company">
      <fact name="founded">1999</fact>
      <fact name="key_people"><link>Jane Doe</link><link>John Roe</link></fact>
    </facts>
  </entity>
  <entity name="Mystery Object" id="E0005">
    <facts class="asteroid">
      <fact name="spouse"><link>Moon</link></fact>
    </facts>
  </entity>
</knowledge_base>
"""

INFOBOX_MAP = {
    ("person", "spouse"): {"per:spouse"},
    # ambiguous: resolved by the filler-type heuristic
    ("person", "born"): {"per:date_of_birth", "per:city_of_birth"},
    ("person", "birth_place"): {"per:date_of_birth", "per:city_of_birth"},
    ("company", "founded"): {"org:founded"},
    ("company", "key_people"): {"org:top_members/employees"},
}


def test_kb_xml_reader(tmp_path):
    from stanford_re_ray.sources.readers import read_kb_xml

    p = tmp_path / "kb.xml"
    p.write_text(KB_XML)
    t = read_kb_xml(str(p), INFOBOX_MAP, per_classes={"person"},
                    org_classes={"company"})
    rows = {(r["entity_id"], r["rel"], r["slot_value"])
            for r in t.to_pylist()}
    # parentheses stripped from the entity name
    assert all(r["entity_name"] == "Ada Lovelace"
               for r in t.to_pylist() if r["entity_id"] == "E0001")
    assert ("E0001", "per:spouse", "William King") in rows
    # ambiguous facts: year → DATE relation; link text → city relation
    assert ("E0001", "per:date_of_birth", "1815") in rows
    assert ("E0001", "per:city_of_birth", "London") in rows
    assert ("E0001", "per:date_of_birth", "London") not in rows
    # one row per <link> filler
    assert ("E0004", "org:top_members/employees", "Jane Doe") in rows
    assert ("E0004", "org:top_members/employees", "John Roe") in rows
    assert ("E0004", "org:founded", "1999") in rows
    # band, "List of", and unmapped entity classes are skipped
    assert not any(eid in ("E0002", "E0003", "E0005") for eid, _, _ in rows)


def test_kb_xml_dataset(ray_session, tmp_path):
    from stanford_re_ray.sources.readers import kb_xml_dataset

    p = tmp_path / "kb.xml"
    p.write_text(KB_XML)
    ds = kb_xml_dataset([str(p)], INFOBOX_MAP, {"person"}, {"company"})
    assert ds.count() == 6


def test_transitive_completion(ray_session):
    import ray.data as rd

    from stanford_re_ray.pipelines.graph_ops import transitive_completion

    edges = rd.from_arrow(pa.table({
        "src_id": ["a", "b", "x"],
        "pred": ["org:alternate_names", "org:alternate_names",
                 "org:member_of"],
        "dst_id": ["b", "c", "y"],
        "score": [0.9, 0.6, 0.8],
        "n_support": pa.array([1, 1, 1], pa.int64()),
        "doc_id": ["d1", "d2", "d3"],
        "sent_idx": pa.array([0, 1, 2], pa.int32()),
    }))
    out = transitive_completion(edges).to_pandas()
    got = {(r.src_id, r.pred, r.dst_id): round(r.score, 6)
           for r in out.itertuples()}
    # derived a→c with min score, non-transitive edge untouched
    assert ("a", "org:alternate_names", "c") in got
    assert got[("a", "org:alternate_names", "c")] == pytest.approx(0.6)
    assert ("x", "org:member_of", "y") in got
    assert ("a", "org:alternate_names", "b") in got
    # no self loops, no spurious chains
    assert not any(s == d for (s, _, d) in got)


def test_entailment_closure():
    from stanford_re_ray.stages.consistency import (ENTAILMENT_WEIGHT,
                                                    GeoMaps,
                                                    entailment_closure)

    geo = GeoMaps(city_to_state={"Springfield": "Illinois"},
                  city_to_country={"Springfield": "United States"},
                  state_to_country={"Illinois": "United States"},
                  country_to_nationality={"United States": "American"})
    rows = [{
        "subj": "Bart", "subj_type": "PERSON",
        "pred": "per:city_of_birth", "obj": "Springfield",
        "obj_type": "CITY", "score": 0.9, "doc_id": "d", "sent_idx": 0,
    }]
    out = entailment_closure(rows, geo)
    got = {(r["pred"], r["obj"]): r["score"] for r in out}
    assert got[("per:city_of_birth", "Springfield")] == 0.9
    assert got[("per:stateorprovince_of_birth", "Illinois")] == ENTAILMENT_WEIGHT
    assert got[("per:country_of_birth", "United States")] == ENTAILMENT_WEIGHT
    # closure: country-of-birth further entails per:origin
    assert got[("per:origin", "American")] == ENTAILMENT_WEIGHT
    # deterministic: same closure twice
    assert out == entailment_closure(rows, geo)


def test_mitigate_loc_of_death_and_chain():
    from stanford_re_ray.stages.consistency import (GeoMaps,
                                                    mitigate_loc_of_death,
                                                    pass2_chain)

    base = {"subj": "X", "subj_type": "PERSON", "obj_type": "CITY",
            "doc_id": "d", "sent_idx": 0}
    lod = dict(base, pred="per:city_of_death", obj="Paris", score=0.8)
    dod = dict(base, pred="per:date_of_death", obj="2001-01-01",
               obj_type="DATE", score=0.9)
    other = dict(base, pred="per:employee_of", obj="Acme", score=0.7,
                 obj_type="ORGANIZATION")
    # without a date of death, loc-of-death is dropped
    assert mitigate_loc_of_death([lod, other]) == [other]
    # with one, it survives
    assert lod in mitigate_loc_of_death([lod, dod, other])
    # full chain: low-probability fills die at the end
    weak = dict(base, pred="per:title", obj="chef", score=0.001,
                obj_type="TITLE")
    out = pass2_chain(GeoMaps())([lod, dod, weak])
    preds = {r["pred"] for r in out}
    assert "per:title" not in preds
    assert {"per:city_of_death", "per:date_of_death"} <= preds


def test_cfg_entailment_wiring(ray_session):
    """PipelineConfig.entailment=True must not break the cfg pipeline."""
    import ray.data as rd

    from stanford_re_ray.config import PipelineConfig
    from stanford_re_ray.fixtures import gen_corpus
    from stanford_re_ray.pipelines.kg import run_kg_pipeline
    from stanford_re_ray.pipelines.train import train_model

    train = gen_corpus(40, per_lo=0, per_hi=40, org_lo=0, org_hi=20)
    model = train_model(rd.from_arrow(train.pages).repartition(2), train.kb,
                        dicts=train.dicts, clusters=train.clusters,
                        negative_subsample=1.0, epochs=30)
    res = run_kg_pipeline(
        rd.from_arrow(train.pages), model, PipelineConfig(entailment=True),
        dicts=train.dicts, clusters=train.clusters)
    assert res["triples"].count() > 0
