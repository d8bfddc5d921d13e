"""S7 — slot-fill consistency: unary filters/rewrites + per-entity greedy
global filter.

Rebuilt from the reference's consistency engine (SURVEY.md §2.8):

- unary pass (stateless ``map_batches``):
  * RespectRelationTypes — object NER type must be valid for the relation
    (SlotfillPostProcessor.java:83-118);
  * SanityCheckFilter — value length ≤ 80, subj ≠ obj
    (same table, "SanityCheckFilter");
  * slot-value rewrites — Timex padding (``1983`` → ``1983-XX-XX``), number
    extraction, URL base extraction
    (HeuristicSlotfillPostProcessors.java:186-241, 298-367);
- global pass (``greedy_consistency_bucket``, the Arrow reduce of a
  shuffle keyed by entity, ``classify.ENTITY_KEY``: each entity's run of sorted
  row dicts through ``entity_fills`` — entity-local, the greedy set is
  bounded by fills-per-entity, SURVEY.md §2.8 mapping):
  * canonical KBPSlotFill ordering — score desc, slot-token-count desc,
    name-length desc, lexicographic (KBPSlotFill.compareTo,
    KBPSlotFill.java:58-80);
  * greedy enable while consistent (HeuristicSlotfillPostProcessor
    .filterStep/greedyEnableSlotsInPlace, lines 187-310):
      - NoDuplicates: one fill per (pred, normalized obj)
        (HeuristicSlotfillPostProcessors.java:506-515);
      - SINGLE-cardinality relations keep only the best object
        (DuplicateRelationOnlyInListRelations, lines 576-598);
      - RespectDeclaredIncompatibilities: a (subj, obj) pair may carry two
        relations only if ``plausibly_cooccurs`` allows it
        (RelationType.plausibleOverlappingRelations).
"""

from __future__ import annotations

import re
from itertools import groupby

import pandas as pd
import pyarrow as pa

from ..relations import RELATION_BY_NAME, plausibly_cooccurs

_MONTHS = {
    "january": "01", "february": "02", "march": "03", "april": "04",
    "may": "05", "june": "06", "july": "07", "august": "08",
    "september": "09", "october": "10", "november": "11", "december": "12",
}
_YEAR = re.compile(r"^(1[6-9]\d\d|20\d\d)$")
_ISO = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_NUM = re.compile(r"\d+(?:[.,]\d+)*")
MAX_SLOT_LEN = 80  # SanityCheckFilter


def normalize_date(value: str) -> str:
    """Timex normalization with XX wildcards
    (HeuristicSlotfillPostProcessors.java:186-241)."""
    v = value.strip()
    if _ISO.match(v):
        return v
    if _YEAR.match(v):
        return f"{v}-XX-XX"
    parts = v.split()
    if len(parts) == 2 and parts[0].lower() in _MONTHS and _YEAR.match(parts[1]):
        return f"{parts[1]}-{_MONTHS[parts[0].lower()]}-XX"
    if (
        len(parts) == 3
        and parts[0].lower() in _MONTHS
        and parts[1].rstrip(",").isdigit()
        and _YEAR.match(parts[2])
    ):
        return f"{parts[2]}-{_MONTHS[parts[0].lower()]}-{int(parts[1].rstrip(',')):02d}"
    return v


def normalize_number(value: str) -> str:
    """Number extraction (HeuristicSlotfillPostProcessors.java:332-350)."""
    m = _NUM.search(value)
    return m.group(0).replace(",", "") if m else value


def normalize_url(value: str) -> str:
    """URL base extraction (HeuristicSlotfillPostProcessors.java:255-295)."""
    v = value.strip().rstrip("/.")
    v = re.sub(r"^https?://", "", v)
    return v.split("/")[0].lower()


def rewrite_value(pred: str, obj: str, obj_type: str) -> str:
    rel = RELATION_BY_NAME.get(pred)
    if rel is None:
        return obj
    if "DATE" in rel.object_types and obj_type == "DATE":
        return normalize_date(obj)
    if "NUMBER" in rel.object_types and obj_type == "NUMBER":
        return normalize_number(obj)
    if "URL" in rel.object_types and obj_type == "URL":
        return normalize_url(obj)
    return obj


def unary_filter_batch(batch: pa.Table,
                       max_slot_len: int = MAX_SLOT_LEN) -> pa.Table:
    """Stateless unary pass over TRIPLES: type check + sanity + rewrites."""
    preds = batch.column("pred").to_pylist()
    subjs = batch.column("subj").to_pylist()
    subj_ts = batch.column("subj_type").to_pylist()
    objs = batch.column("obj").to_pylist()
    obj_ts = batch.column("obj_type").to_pylist()
    keep: list[int] = []
    new_obj: list[str] = []
    for i, pred in enumerate(preds):
        rel = RELATION_BY_NAME.get(pred)
        if rel is None:
            continue
        if rel.subject_type != subj_ts[i] or obj_ts[i] not in rel.object_types:
            continue
        if not objs[i] or len(objs[i]) > max_slot_len:
            continue
        if objs[i].lower() == subjs[i].lower():
            continue
        keep.append(i)
        new_obj.append(rewrite_value(pred, objs[i], obj_ts[i]))
    out = batch.take(pa.array(keep, pa.int64()))
    return out.set_column(out.schema.get_field_index("obj"), "obj",
                          pa.array(new_obj, pa.string()))


def _fill_sort_key(row) -> tuple:
    """KBPSlotFill.compareTo total order (KBPSlotFill.java:58-80), expressed
    for ascending sort: score desc, obj token count desc, subj length desc,
    then lexicographic.  Extended with obj_type + provenance columns so the
    order is TOTAL over post-bag rows — two fills whose objs rewrite to the
    same value (e.g. '1983' and '1983-XX-XX' both → '1983-XX-XX') must not
    fall back to nondeterministic post-shuffle arrival order."""
    return (
        -row["score"],
        -len(str(row["obj"]).split()),
        -len(str(row["subj"])),
        row["pred"],
        row["obj"],
        str(row.get("obj_type", "")),
        str(row.get("doc_id", "")),
        int(row.get("sent_idx", 0) or 0),
        int(row.get("subj_begin", 0) or 0),
        int(row.get("obj_begin", 0) or 0),
    )


GEO_CHECK_PAIRS = (
    # (city relation, country relation) pairs that must geo-agree
    ("per:city_of_birth", "per:country_of_birth"),
    ("per:city_of_death", "per:country_of_death"),
    ("org:city_of_headquarters", "org:country_of_headquarters"),
)


def geo_filter(rows: list[dict], city_to_country: dict[str, str]) -> list[dict]:
    """WorldKnowledgePostProcessor geo-consistency
    (kbp/sf/evaluate/WorldKnowledgePostProcessor.java:30-115): when an
    entity carries both a city and a country fill of the same event and
    the gazetteer maps the city to a DIFFERENT country, drop the
    lower-scoring fill of the pair."""
    if not city_to_country:
        return rows
    by_pred: dict[str, dict] = {}
    for r in rows:
        cur = by_pred.get(r["pred"])
        if cur is None or r["score"] > cur["score"]:
            by_pred[r["pred"]] = r
    drop: set[int] = set()
    for city_rel, country_rel in GEO_CHECK_PAIRS:
        c = by_pred.get(city_rel)
        k = by_pred.get(country_rel)
        if c is None or k is None:
            continue
        mapped = city_to_country.get(c["obj"])
        if mapped is not None and mapped != k["obj"]:
            loser = c if c["score"] <= k["score"] else k
            drop.add(id(loser))
    return [r for r in rows if id(r) not in drop]


def greedy_consistency_bucket(group,
                              city_to_country: dict[str, str] | None = None,
                              enforce_cardinality: bool = True,
                              enforce_incompatibilities: bool = True,
                              extra_pass=None,
                              gibbs_mixing_time: int | None = None,
                              ) -> pa.Table:
    """The S7 reduce over one hash bucket of subjects (Arrow or pandas in,
    TRIPLES out): each row becomes a dict once, ONE sort orders them by
    entity then ``_fill_sort_key``, and each entity's run goes through
    ``entity_fills``.  ``extra_pass`` (a ``list[dict] -> list[dict]`` like
    ``pass2_chain()``) runs per entity after it — the
    finalConsistencyAndProvenancePass slot; it may add or rewrite fills,
    so its output is rebuilt from the dicts instead of taken by index."""
    from ..schema import TRIPLES, conform, untagged

    t = untagged(group)
    if not t.num_rows:
        return TRIPLES.empty_table()
    rows = t.to_pylist()
    order = sorted(range(len(rows)), key=lambda i: (
        rows[i]["subj"], rows[i]["subj_type"], _fill_sort_key(rows[i])))
    kept: list[dict] = []
    for _, run in groupby(order, key=lambda i: (rows[i]["subj"],
                                                 rows[i]["subj_type"])):
        out = entity_fills([rows[i] for i in run], city_to_country,
                           enforce_cardinality, enforce_incompatibilities,
                           gibbs_mixing_time)
        if extra_pass is not None and out:
            out = extra_pass(out)
        kept.extend(out)
    if extra_pass is not None:
        return conform(pa.Table.from_pylist(kept, schema=t.schema), TRIPLES)
    position = {id(r): i for i, r in enumerate(rows)}
    return conform(t.take(pa.array([position[id(r)] for r in kept],
                                   pa.int64())), TRIPLES)


def entity_fills(rows: list[dict],
                 city_to_country: dict[str, str] | None = None,
                 enforce_cardinality: bool = True,
                 enforce_incompatibilities: bool = True,
                 gibbs_mixing_time: int | None = None) -> list[dict]:
    """One entity's consistent fills (row dicts in ``_fill_sort_key``
    order → the kept ones, in that order): the gazetteer geo filter, then
    the greedy enable — or, with ``gibbs_mixing_time``, the Gibbs SUM
    sampler."""
    if city_to_country:
        rows = geo_filter(rows, city_to_country)
    checks = (enforce_cardinality, enforce_incompatibilities)
    enabled = (_gibbs_enable(rows, gibbs_mixing_time, *checks)
               if gibbs_mixing_time
               else _enable_in_order(rows, range(len(rows)), *checks))
    return [rows[i] for i in enabled]


def _enable_in_order(rows: list[dict], order,
                     enforce_cardinality: bool = True,
                     enforce_incompatibilities: bool = True) -> list[int]:
    """greedyEnableSlotsInPlace (HeuristicSlotfillPostProcessor.java:
    187-310): enable each slot in ``order`` iff consistent with the slots
    enabled so far.  Checks: NoDuplicates on (pred, normalized obj);
    NoDuplicatesApproximate (entity-linked values of the same relation —
    HeuristicSlotfillPostProcessors.java:518-573); SINGLE cardinality;
    RespectDeclaredIncompatibilities.  Returns enabled indices in
    enable order."""
    seen_pred_obj: set[tuple[str, str]] = set()
    single_taken: set[str] = set()
    pair_rels: dict[str, list[str]] = {}
    enabled: list[int] = []
    for idx in order:
        r = rows[idx]
        pred, obj = r["pred"], r["obj"]
        key = (pred, obj.lower())
        if key in seen_pred_obj:
            continue
        rel = RELATION_BY_NAME[pred]
        if enforce_cardinality and rel.is_single and pred in single_taken:
            continue
        if r["obj_type"] in ("PERSON", "ORGANIZATION"):
            from .canonicalize import same_entity

            dup = False
            for p2, o2 in seen_pred_obj:
                if p2 == pred and same_entity(obj, o2, r["obj_type"]):
                    dup = True
                    break
            if dup:
                continue
        ok = True
        if enforce_incompatibilities:
            prev = pair_rels.get(obj.lower(), [])
            for p2 in prev:
                if not plausibly_cooccurs(pred, p2):
                    ok = False
                    break
        if not ok:
            continue
        seen_pred_obj.add(key)
        if rel.is_single:
            single_taken.add(pred)
        pair_rels.setdefault(obj.lower(), []).append(pred)
        enabled.append(idx)
    return enabled


def greedy_consistency(group: pd.DataFrame,
                       city_to_country: dict[str, str] | None = None,
                       enforce_cardinality: bool = True,
                       enforce_incompatibilities: bool = True,
                       gibbs_mixing_time: int | None = None,
                       ) -> pd.DataFrame:
    """``entity_fills`` over one entity's fills as a DataFrame."""
    rows = sorted(group.to_dict("records"), key=_fill_sort_key)
    out = entity_fills(rows, city_to_country, enforce_cardinality,
                       enforce_incompatibilities, gibbs_mixing_time)
    return pd.DataFrame(out, columns=group.columns) if out else group.iloc[0:0]


def gibbs_consistency(group: pd.DataFrame, mixing_time: int = 1000,
                      **kw) -> pd.DataFrame:
    """The GibbsObjective.SUM filter over one entity's DataFrame."""
    return greedy_consistency(group, gibbs_mixing_time=mixing_time, **kw)


def _gibbs_enable(rows: list[dict], mixing_time: int,
                  enforce_cardinality: bool = True,
                  enforce_incompatibilities: bool = True) -> list[int]:
    """GibbsObjective.SUM — the pass the default TOP objective skips
    (HeuristicSlotfillPostProcessor.filterStep:223-296;
    Props.TEST_CONSISTENCY_MIXINGTIME=1000, Props.java:249-250): greedy
    init in canonical order, then ``mixing_time`` random-restart sweeps,
    each greedily enabling slots in a shuffled order; the active set
    maximizing Σ score wins (its indices into ``rows``, ascending).

    Determinism (repo policy): the reference's ``Random(42)`` shuffle is
    replaced by per-sweep orders from content hashes (crc32 of sweep
    index + slot identity) — no RNG state, reproducible anywhere; ties on
    the objective keep the earlier sweep's set."""
    import zlib as _z

    n = len(rows)
    best_set = _enable_in_order(rows, range(n), enforce_cardinality,
                                enforce_incompatibilities)
    best_obj = sum(rows[i]["score"] for i in best_set)
    slot_keys = [
        f"{r['pred']}\x00{r['obj']}\x00{r.get('doc_id', '')}\x00{i}"
        for i, r in enumerate(rows)
    ]
    for sweep in range(mixing_time):
        order = sorted(
            range(n),
            key=lambda i: _z.crc32(f"{sweep}:{slot_keys[i]}".encode()),
        )
        en = _enable_in_order(rows, order, enforce_cardinality,
                              enforce_incompatibilities)
        obj = sum(rows[i]["score"] for i in en)
        if obj > best_obj + 1e-12:
            best_obj, best_set = obj, en
    return sorted(best_set)


# ---------------------------------------------------------------------------
# Pass-2 consistency: entailment closure + composable post-processor chain
# (HeuristicSlotfillPostProcessor.generateStep, :341-368;
#  WorldKnowledgePostProcessor.entailsDirectly/geoEntailments, :512-620;
#  SlotfillPostProcessor.all/and chaining, SlotfillPostProcessor.java:100-166)
#
# The fork's SimpleSlotFiller short-circuits this pass; InferentialSlotFiller
# runs it via finalConsistencyAndProvenancePass.  Config-gated OFF by default
# (PipelineConfig.entailment) to keep fork parity.
# ---------------------------------------------------------------------------

#: relation families (city, state/province, country) for geo entailment
GEO_ENTAIL_FAMILIES = (
    ("per:city_of_birth", "per:stateorprovince_of_birth",
     "per:country_of_birth"),
    ("per:city_of_death", "per:stateorprovince_of_death",
     "per:country_of_death"),
    ("per:cities_of_residence", "per:stateorprovinces_of_residence",
     "per:countries_of_residence"),
    ("org:city_of_headquarters", "org:stateorprovince_of_headquarters",
     "org:country_of_headquarters"),
)

#: FilterVeryLowProbabilitySlots.threshold + 1e-5
#: (WorldKnowledgePostProcessor.java:512; threshold = 0.01 at
#:  HeuristicSlotfillPostProcessors.java:138)
ENTAILMENT_WEIGHT = 0.01 + 1e-5


class GeoMaps:
    """Gazetteer lookup bundle for the geo entailments (the
    WorldKnowledgePostProcessor map files)."""

    def __init__(self, city_to_state=None, city_to_country=None,
                 state_to_country=None, country_to_nationality=None):
        self.city_to_state = city_to_state or {}
        self.city_to_country = city_to_country or {}
        self.state_to_country = state_to_country or {}
        self.country_to_nationality = country_to_nationality or {}


def entails_directly(fill: dict, geo: GeoMaps) -> list[dict]:
    """WorldKnowledgePostProcessor.entailsDirectly geo rules (:561-620):
    city fills entail their state/country of the same family; state fills
    entail their country; country-of-birth entails per:origin nationality.
    Consequents carry ENTAILMENT_WEIGHT and the antecedent's provenance."""
    out: list[dict] = []

    def mk(pred: str, obj: str, obj_type: str) -> dict:
        c = dict(fill)
        c["pred"] = pred
        c["obj"] = obj
        c["obj_type"] = obj_type
        c["score"] = ENTAILMENT_WEIGHT
        return c

    pred, obj = fill["pred"], fill["obj"]
    for city_rel, state_rel, country_rel in GEO_ENTAIL_FAMILIES:
        if pred == city_rel:
            st = geo.city_to_state.get(obj)
            if st:
                out.append(mk(state_rel, st, "STATE_OR_PROVINCE"))
            co = geo.city_to_country.get(obj)
            if co:
                out.append(mk(country_rel, co, "COUNTRY"))
        elif pred == state_rel:
            co = geo.state_to_country.get(obj)
            if co:
                out.append(mk(country_rel, co, "COUNTRY"))
    if pred == "per:country_of_birth":
        nat = geo.country_to_nationality.get(obj)
        if nat:
            out.append(mk("per:origin", nat, "NATIONALITY"))
    return out


def entailment_closure(rows: list[dict], geo: GeoMaps) -> list[dict]:
    """generateStep's BFS queue to fixpoint
    (HeuristicSlotfillPostProcessor.java:341-368): every fill is an
    antecedent once; consequents join the queue unless already seen.
    Deterministic: queue order is input order, consequents append in
    rule order; dedup key is (pred, obj)."""
    queue = list(rows)
    seen: set[tuple[str, str]] = {(r["pred"], r["obj"]) for r in rows}
    out: list[dict] = []
    while queue:
        fill = queue.pop(0)
        out.append(fill)
        for consequent in entails_directly(fill, geo):
            key = (consequent["pred"], consequent["obj"])
            if key not in seen:
                seen.add(key)
                queue.append(consequent)
    return out


def mitigate_loc_of_death(rows: list[dict]) -> list[dict]:
    """MitigateLocOfDeath (HeuristicSlotfillPostProcessors.java:636-658):
    location-of-death fills survive only if a per:date_of_death fill also
    exists for the entity."""
    has_dod = any(r["pred"] == "per:date_of_death" for r in rows)
    if has_dod:
        return rows
    lod = {"per:city_of_death", "per:country_of_death",
           "per:stateorprovince_of_death"}
    return [r for r in rows if r["pred"] not in lod]


def filter_low_probability(rows: list[dict],
                           threshold: float = 0.01) -> list[dict]:
    """FilterVeryLowProbabilitySlots (HeuristicSlotfillPostProcessors
    .java:137-143)."""
    return [r for r in rows if r.get("score", 1.0) >= threshold]


def chain(*passes):
    """SlotfillPostProcessor.all / .and composition
    (SlotfillPostProcessor.java:141-166; HeuristicSlotfillPostProcessor
    .and, :372-421): each pass is ``list[dict] -> list[dict]`` over one
    entity's fills; the chain applies left to right."""
    def run(rows: list[dict]) -> list[dict]:
        for p in passes:
            rows = p(rows)
            if not rows:
                return rows
        return rows
    return run


def pass2_chain(geo: GeoMaps | None = None,
                low_prob_threshold: float = 0.01):
    """The finalConsistencyAndProvenancePass analog
    (InferentialSlotFiller.java:160; SlotfillPostProcessor.global pass 2):
    entailment closure → loc-of-death mitigation → low-probability filter.
    Returns a ``list[dict] -> list[dict]`` suitable for
    ``consistency_stage(..., extra_pass=...)``."""
    g = geo or GeoMaps()
    return chain(
        lambda rows: entailment_closure(rows, g),
        mitigate_loc_of_death,
        lambda rows: filter_low_probability(rows, low_prob_threshold),
    )
