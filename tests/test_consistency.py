"""S7 consistency: rewrites, unary filters, per-entity greedy semantics."""

import pandas as pd
import pyarrow as pa

from stanford_re_ray.stages.consistency import (
    greedy_consistency,
    normalize_date,
    normalize_number,
    normalize_url,
    unary_filter_batch,
)


def test_date_normalization():
    assert normalize_date("1983") == "1983-XX-XX"
    assert normalize_date("May 1983") == "1983-05-XX"
    assert normalize_date("May 3, 1983") == "1983-05-03"
    assert normalize_date("1983-05-03") == "1983-05-03"
    assert normalize_date("someday") == "someday"


def test_number_and_url_normalization():
    assert normalize_number("about 4,200 people") == "4200"
    assert normalize_url("http://www.acme.example.com/about/") == "www.acme.example.com"


def _triples_table(rows):
    cols = {
        "subj": [], "subj_type": [], "pred": [], "obj": [], "obj_type": [],
        "score": [], "doc_id": [], "sent_idx": [], "subj_begin": [],
        "subj_end": [], "obj_begin": [], "obj_end": [],
    }
    for r in rows:
        cols["subj"].append(r[0]); cols["subj_type"].append(r[1])
        cols["pred"].append(r[2]); cols["obj"].append(r[3])
        cols["obj_type"].append(r[4]); cols["score"].append(r[5])
        cols["doc_id"].append("d"); cols["sent_idx"].append(0)
        cols["subj_begin"].append(0); cols["subj_end"].append(1)
        cols["obj_begin"].append(2); cols["obj_end"].append(3)
    return pa.table({
        "subj": pa.array(cols["subj"]), "subj_type": pa.array(cols["subj_type"]),
        "pred": pa.array(cols["pred"]), "obj": pa.array(cols["obj"]),
        "obj_type": pa.array(cols["obj_type"]),
        "score": pa.array(cols["score"], pa.float64()),
        "doc_id": pa.array(cols["doc_id"]),
        "sent_idx": pa.array(cols["sent_idx"], pa.int32()),
        "subj_begin": pa.array(cols["subj_begin"], pa.int32()),
        "subj_end": pa.array(cols["subj_end"], pa.int32()),
        "obj_begin": pa.array(cols["obj_begin"], pa.int32()),
        "obj_end": pa.array(cols["obj_end"], pa.int32()),
    })


def test_unary_type_and_sanity_filters():
    t = _triples_table([
        ("John Smith", "PERSON", "per:city_of_birth", "Paris", "CITY", 0.9),
        # wrong object type for the relation
        ("John Smith", "PERSON", "per:city_of_birth", "1983", "DATE", 0.9),
        # subj == obj
        ("John Smith", "PERSON", "per:spouse", "john smith", "PERSON", 0.9),
        # overlong value
        ("John Smith", "PERSON", "per:title", "x" * 100, "TITLE", 0.9),
        # date rewrite applied
        ("John Smith", "PERSON", "per:date_of_birth", "1983", "DATE", 0.9),
    ])
    out = unary_filter_batch(t)
    assert out.num_rows == 2
    objs = out.column("obj").to_pylist()
    assert "Paris" in objs and "1983-XX-XX" in objs


def test_greedy_single_cardinality_and_duplicates():
    df = pd.DataFrame([
        # SINGLE relation: keep best only
        {"subj": "A", "subj_type": "PERSON", "pred": "per:city_of_birth",
         "obj": "Paris", "obj_type": "CITY", "score": 0.9},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:city_of_birth",
         "obj": "Rome", "obj_type": "CITY", "score": 0.5},
        # exact duplicate pred+obj: keep one
        {"subj": "A", "subj_type": "PERSON", "pred": "per:spouse",
         "obj": "Mary Smith", "obj_type": "PERSON", "score": 0.8},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:spouse",
         "obj": "mary smith", "obj_type": "PERSON", "score": 0.7},
        # LIST relation: multiple objects survive
        {"subj": "A", "subj_type": "PERSON", "pred": "per:cities_of_residence",
         "obj": "Lyon", "obj_type": "CITY", "score": 0.6},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:cities_of_residence",
         "obj": "Osaka", "obj_type": "CITY", "score": 0.4},
    ])
    out = greedy_consistency(df)
    preds = out.groupby("pred").size().to_dict()
    assert preds["per:city_of_birth"] == 1
    assert preds["per:spouse"] == 1
    assert preds["per:cities_of_residence"] == 2
    # the SINGLE winner is the higher-scoring fill
    assert out[out["pred"] == "per:city_of_birth"]["obj"].iloc[0] == "Paris"


def test_greedy_implausible_cooccurrence():
    # same (subj,obj) with two relations that cannot co-occur:
    # per:spouse + per:siblings -> keep only the higher-scoring one
    df = pd.DataFrame([
        {"subj": "A", "subj_type": "PERSON", "pred": "per:spouse",
         "obj": "B C", "obj_type": "PERSON", "score": 0.9},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:siblings",
         "obj": "B C", "obj_type": "PERSON", "score": 0.8},
    ])
    out = greedy_consistency(df)
    assert len(out) == 1 and out["pred"].iloc[0] == "per:spouse"


def test_greedy_near_duplicate_values():
    # NoDuplicatesApproximate: "J. Smith" entity-links to the accepted
    # "John Smith" under per:spouse → dropped; a different person survives
    df = pd.DataFrame([
        {"subj": "A", "subj_type": "PERSON", "pred": "per:spouse",
         "obj": "John Smith", "obj_type": "PERSON", "score": 0.9},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:spouse",
         "obj": "J. Smith", "obj_type": "PERSON", "score": 0.7},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:children",
         "obj": "Mary Poe", "obj_type": "PERSON", "score": 0.6},
    ])
    out = greedy_consistency(df)
    objs = set(out["obj"])
    assert objs == {"John Smith", "Mary Poe"}


def test_geo_consistency_filter():
    # gazetteer says Paris → France; a conflicting country fill loses
    df = pd.DataFrame([
        {"subj": "Acme Corp", "subj_type": "ORGANIZATION",
         "pred": "org:city_of_headquarters", "obj": "Paris",
         "obj_type": "CITY", "score": 0.9},
        {"subj": "Acme Corp", "subj_type": "ORGANIZATION",
         "pred": "org:country_of_headquarters", "obj": "Germany",
         "obj_type": "COUNTRY", "score": 0.6},
    ])
    out = greedy_consistency(df, city_to_country={"Paris": "France"})
    assert set(out["pred"]) == {"org:city_of_headquarters"}
    # agreeing pair survives intact
    df.loc[1, "obj"] = "France"
    out2 = greedy_consistency(df, city_to_country={"Paris": "France"})
    assert len(out2) == 2


def test_gibbs_sum_objective_beats_greedy_trap():
    """GibbsObjective.SUM: greedy (canonical order) takes the 0.9 fill
    that blocks two compatible 0.5 fills; the sampled Σ-score filter must
    find the {0.5, 0.5} set instead."""
    import pandas as pd

    from stanford_re_ray.stages.consistency import (gibbs_consistency,
                                                    greedy_consistency)

    rows = pd.DataFrame([
        {"subj": "Ann Smith", "subj_type": "PERSON",
         "pred": "per:other_family", "obj": "Bob Jones",
         "obj_type": "PERSON", "score": 0.9, "doc_id": "d1", "sent_idx": 0,
         "subj_begin": 0, "subj_end": 2, "obj_begin": 3, "obj_end": 5},
        {"subj": "Ann Smith", "subj_type": "PERSON",
         "pred": "per:alternate_names", "obj": "Bob Jones",
         "obj_type": "PERSON", "score": 0.5, "doc_id": "d2", "sent_idx": 0,
         "subj_begin": 0, "subj_end": 2, "obj_begin": 3, "obj_end": 5},
        {"subj": "Ann Smith", "subj_type": "PERSON",
         "pred": "per:children", "obj": "Bob Jones",
         "obj_type": "PERSON", "score": 0.5, "doc_id": "d3", "sent_idx": 0,
         "subj_begin": 0, "subj_end": 2, "obj_begin": 3, "obj_end": 5},
    ])
    greedy = greedy_consistency(rows)
    assert set(greedy["pred"]) == {"per:other_family"}
    gibbs = gibbs_consistency(rows, mixing_time=50)
    assert set(gibbs["pred"]) == {"per:alternate_names", "per:children"}
    assert gibbs["score"].sum() > greedy["score"].sum()
    # deterministic across calls
    again = gibbs_consistency(rows, mixing_time=50)
    assert gibbs.reset_index(drop=True).equals(again.reset_index(drop=True))


def _bucket_fills() -> pa.Table:
    """One shuffle bucket of several entities (two share a name but not a
    type), after the unary pass: random fills plus a geo conflict and a
    rewrite collision ('1983' and '1983-XX-XX' under one slot)."""
    import random

    rnd = random.Random(7)
    ents = [("Ann Lee", "PERSON"), ("Zoë Brandt", "PERSON"),
            ("Acme", "ORGANIZATION"), ("Acme", "PERSON"), ("李明", "PERSON")]
    slots = [("per:city_of_birth", ["Paris", "Lyon", "Zürich"], "CITY"),
             ("per:country_of_birth", ["Germany", "France"], "COUNTRY"),
             ("per:cities_of_residence", ["Paris", "Osaka", "Lyon"], "CITY"),
             ("per:spouse", ["Bob Jones", "B. Jones", "Carl Poe"], "PERSON"),
             ("per:siblings", ["Bob Jones", "Dan Wu"], "PERSON"),
             ("per:date_of_birth", ["1983", "1983-XX-XX", "May 1983"],
              "DATE"),
             ("org:city_of_headquarters", ["Paris", "Osaka"], "CITY"),
             ("org:country_of_headquarters", ["Germany", "Japan"],
              "COUNTRY"),
             ("per:city_of_death", ["Lyon"], "CITY")]
    rows = []
    for _ in range(90):
        subj, subj_type = rnd.choice(ents)
        pred, objs, obj_type = rnd.choice(slots)
        rows.append((subj, subj_type, pred, rnd.choice(objs), obj_type,
                     rnd.choice([0.9, 0.7, 0.5, 0.3, 0.011, 0.005]),
                     f"d{rnd.randrange(3)}", rnd.randrange(2)))
    rows += [("Ann Lee", "PERSON", "per:date_of_birth", "1983", "DATE", 0.99,
              "d9", 0),
             ("Ann Lee", "PERSON", "per:date_of_birth", "1983-XX-XX", "DATE",
              0.99, "d1", 0)]
    # a city and a country the gazetteer disagrees on
    rows += [("Acme", "ORGANIZATION", "org:city_of_headquarters", "Osaka",
              "CITY", 0.97, "d2", 1),
             ("Acme", "ORGANIZATION", "org:country_of_headquarters",
              "Germany", "COUNTRY", 0.96, "d2", 1)]
    # the greedy trap the Gibbs SUM objective escapes
    rows += [("Zoë Brandt", "PERSON", pred, "Eve Hart", "PERSON", q, "d1", 0)
             for pred, q in (("per:other_family", 0.95),
                             ("per:alternate_names", 0.6),
                             ("per:children", 0.6))]
    rnd.shuffle(rows)
    cols = list(zip(*rows))
    t = pa.table({
        "subj": pa.array(cols[0]), "subj_type": pa.array(cols[1]),
        "pred": pa.array(cols[2]), "obj": pa.array(cols[3]),
        "obj_type": pa.array(cols[4]),
        "score": pa.array(cols[5], pa.float64()),
        "doc_id": pa.array(cols[6]),
        "sent_idx": pa.array(cols[7], pa.int32()),
        "subj_begin": pa.array([0] * len(rows), pa.int32()),
        "subj_end": pa.array([2] * len(rows), pa.int32()),
        "obj_begin": pa.array([4] * len(rows), pa.int32()),
        "obj_end": pa.array([5] * len(rows), pa.int32()),
    })
    return unary_filter_batch(t)


def _per_entity_oracle(df: pd.DataFrame, city_to_country=None,
                       extra_pass=None, gibbs_mixing_time=None) -> pa.Table:
    """The per-entity loop over DataFrames: group by entity (sorted), run
    the entity filter on each group, then ``extra_pass`` on its records."""
    from stanford_re_ray.schema import TRIPLES, conform, pd_to_arrow
    from stanford_re_ray.stages.consistency import gibbs_consistency

    outs = []
    for _, g in df.groupby(["subj", "subj_type"], sort=True):
        if gibbs_mixing_time:
            o = gibbs_consistency(g, mixing_time=gibbs_mixing_time,
                                  city_to_country=city_to_country)
        else:
            o = greedy_consistency(g, city_to_country)
        if extra_pass is not None and len(o):
            o = pd.DataFrame(extra_pass(o.to_dict("records")),
                             columns=list(g.columns))
        outs.append(o)
    return conform(pd_to_arrow(pd.concat(outs, ignore_index=True)), TRIPLES)


def test_bucket_greedy_matches_per_entity_oracle():
    """The one-sort bucket reduce keeps the same rows, in the same order,
    as the entity-by-entity DataFrame loop, for every S7 variant."""
    from stanford_re_ray.schema import TRIPLES
    from stanford_re_ray.stages.consistency import (
        GeoMaps, greedy_consistency_bucket, pass2_chain)

    fills = _bucket_fills()
    df = fills.to_pandas()
    assert df.groupby(["subj", "subj_type"]).ngroups == 5
    geo = GeoMaps(city_to_state={"Lyon": "Rhône"},
                  city_to_country={"Paris": "France", "Zürich": "Switzerland"},
                  country_to_nationality={"France": "French"})
    variants = [
        {},
        {"city_to_country": {"Paris": "France", "Osaka": "Japan"}},
        {"gibbs_mixing_time": 30},
        {"extra_pass": pass2_chain(GeoMaps())},
        {"extra_pass": pass2_chain(geo)},
    ]
    default = _per_entity_oracle(df)
    for kw in variants:
        want = _per_entity_oracle(df, **kw)
        assert kw == {} or not want.equals(default), kw
        for bucket in (fills, df.assign(__bucket=3)):
            got = greedy_consistency_bucket(bucket, **kw)
            assert got.schema == TRIPLES
            assert got.equals(want), kw
    # the colliding dates: the one kept is the first in canonical order
    dob = default.filter(pa.compute.and_(
        pa.compute.equal(default["subj"], "Ann Lee"),
        pa.compute.equal(default["pred"], "per:date_of_birth")))
    assert dob["doc_id"].to_pylist() == ["d1"]
    assert greedy_consistency_bucket(fills.slice(0, 0)).equals(
        TRIPLES.empty_table())
