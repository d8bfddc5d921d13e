"""Rule-based relation extraction — the TokensRegex classifier analog
(kbp/sf/classify/TokenRegexExtractor.java:42-96): per-relation patterns
matched over annotated sentences; a match scores +infinity (here: the
quantized maximum), and rule results are UNIONED with the statistical
classifier's scored mentions before bag aggregation — mirroring the
reference's rule-based additions (SimpleSlotFiller.java:257-279).

Patterns are plain regexes over the sentence TEXT with two named groups
``subj`` and ``obj``; matches are validated against the sentence's
mentions (the group must align with a detected mention of a compatible
type), which supplies canonicalization + spans for free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import pyarrow as pa

from ..relations import RELATION_BY_NAME
from .classify import SCORE_SCALE
from .mentions import find_mentions

_NAME = r"[A-Z][A-Za-z0-9&-]*(?: [A-Z][A-Za-z0-9&-]*)*"


@dataclass(frozen=True)
class Rule:
    relation: str
    pattern: str  # must contain (?P<subj>...) and (?P<obj>...)


DEFAULT_RULES: tuple[Rule, ...] = (
    Rule("per:spouse",
         rf"(?P<subj>{_NAME}) is married to (?P<obj>{_NAME})"),
    Rule("org:founded_by",
         rf"(?P<subj>{_NAME}) was founded by (?P<obj>{_NAME})"),
    Rule("per:date_of_birth",
         rf"(?P<subj>{_NAME}) was born .* in (?P<obj>\d{{4}})"),
)


class RuleExtractor:
    """``map_batches`` over SENTENCES → scored-mention rows (same schema as
    MentionScorer output: rel, sum_q, best_q, provenance), score = the
    quantized max.  Patterns compile once per worker (actor-pool-style
    state without pinning CPUs)."""

    def __init__(self, rules: tuple[Rule, ...] = DEFAULT_RULES):
        self._rules = rules
        self._compiled = None

    def _get(self):
        if self._compiled is None:
            self._compiled = [(r.relation, re.compile(r.pattern))
                              for r in self._rules]
        return self._compiled

    def __call__(self, batch: pa.Table) -> pa.Table:
        compiled = self._get()
        cols = {k: [] for k in ("subj", "subj_type", "obj", "obj_type",
                                "doc_id", "sent_idx", "subj_begin",
                                "subj_end", "obj_begin", "obj_end",
                                "rel", "sum_q", "best_q")}
        from ..schema import str_lists

        for did, sidx, text, toks, poss, ners, antes in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("sent_idx").to_pylist(),
            batch.column("text").to_pylist(),
            str_lists(batch, "tokens"),
            str_lists(batch, "pos"),
            str_lists(batch, "ner"),
            str_lists(batch, "antecedents"),
        ):
            mentions = None
            for rel_name, rx in compiled:
                m = rx.search(text)
                if not m:
                    continue
                if mentions is None:
                    mentions = find_mentions(toks, poss, ners, antes)
                rel = RELATION_BY_NAME[rel_name]
                subj_m = next(
                    (mm for mm in mentions
                     if mm.surface == m.group("subj")
                     and mm.ner == rel.subject_type), None)
                obj_m = next(
                    (mm for mm in mentions
                     if mm.surface == m.group("obj")
                     and mm.ner in rel.object_types), None)
                if subj_m is None or obj_m is None:
                    continue
                cols["subj"].append(subj_m.canonical)
                cols["subj_type"].append(subj_m.ner)
                cols["obj"].append(obj_m.canonical)
                cols["obj_type"].append(obj_m.ner)
                cols["doc_id"].append(did)
                cols["sent_idx"].append(sidx)
                cols["subj_begin"].append(subj_m.begin)
                cols["subj_end"].append(subj_m.end)
                cols["obj_begin"].append(obj_m.begin)
                cols["obj_end"].append(obj_m.end)
                cols["rel"].append(rel_name)
                cols["sum_q"].append(SCORE_SCALE)
                cols["best_q"].append(SCORE_SCALE)
        return pa.table(
            {
                "subj": pa.array(cols["subj"], pa.string()),
                "subj_type": pa.array(cols["subj_type"], pa.string()),
                "obj": pa.array(cols["obj"], pa.string()),
                "obj_type": pa.array(cols["obj_type"], pa.string()),
                "doc_id": pa.array(cols["doc_id"], pa.string()),
                "sent_idx": pa.array(cols["sent_idx"], pa.int32()),
                "subj_begin": pa.array(cols["subj_begin"], pa.int32()),
                "subj_end": pa.array(cols["subj_end"], pa.int32()),
                "obj_begin": pa.array(cols["obj_begin"], pa.int32()),
                "obj_end": pa.array(cols["obj_end"], pa.int32()),
                "rel": pa.array(cols["rel"], pa.string()),
                "sum_q": pa.array(cols["sum_q"], pa.int64()),
                "best_q": pa.array(cols["best_q"], pa.int64()),
            }
        )


# --- RelationFilter component chain (RelationFilter.java:73-144,297-480) ----
# The reference runs an ordered chain of FilterComponents over the scored
# sentence groups of one query entity's retrieved documents.  In
# discovery mode the equivalent scope is the DOCUMENT: all scored
# mentions of one doc (every subject is its own "query entity"; its coref
# chain resolves to one canonical subj string).  Each component keeps
# every row tied at the maximum (the reference keeps exact-score ties),
# so output is a deterministic SET regardless of row order.

def coref_filter_component(df):
    """Per (subject chain, slot value), keep only the top-scoring relation
    mention; relations of other subjects pass through untouched
    (CorefFilterComponent, RelationFilter.java:297-360 — implemented as
    the documented intent: the global max per slot value; the Java loop's
    keep-every-running-max artifact is not reproduced).  Exact-score ties
    all survive."""
    mx = df.groupby(["subj", "obj"])["best_q"].transform("max")
    return df[df["best_q"] == mx]


def per_reltype_competition_component(df):
    """Per (slot value, predicted relation) ACROSS subjects, keep only the
    top-scoring mention (PerRelTypeCompetitionFilterComponent,
    RelationFilter.java:362-430).  Ties survive."""
    mx = df.groupby(["obj", "rel"])["best_q"].transform("max")
    return df[df["best_q"] == mx]


def cross_reltype_competition_component(df):
    """Per slot value regardless of relation type or subject, keep only
    the top-scoring mention (CrossRelTypeCompetitionFilterComponent,
    RelationFilter.java:432-480).  Ties survive."""
    mx = df.groupby("obj")["best_q"].transform("max")
    return df[df["best_q"] == mx]


FILTER_COMPONENTS = {
    "coref": coref_filter_component,
    "per_reltype": per_reltype_competition_component,
    "cross_reltype": cross_reltype_competition_component,
}


def relation_filter_stage(scored, components, n_buckets: int | None = None,
                          est_rows: int | None = None):
    """Apply an ordered RelationFilter component chain over the scored
    candidate stream, grouped per document — one shuffle of the (already
    combiner-thin) scored rows keyed by an int bucket of doc_id; the
    per-doc filtering runs vectorized inside each bucket.  Off unless
    ``PipelineConfig.relation_filter_components`` selects components.
    ``n_buckets`` is size-derived from ``est_rows`` (expected scored rows,
    e.g. pages × mentions-per-page) when not given, so reduce parallelism
    scales with the corpus instead of capping at the old constant 64."""
    import pandas as pd

    from ..functions.relational import bucket_reduce

    fns = [FILTER_COMPONENTS[c] for c in components]

    def filter_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g
        parts = []
        for _, scope in g.groupby("doc_id", sort=True):
            for fn in fns:
                scope = fn(scope)
            parts.append(scope)
        return pd.concat(parts, ignore_index=True)

    return bucket_reduce(scored, "doc_id", filter_bucket, n_buckets=n_buckets,
                         est_rows=est_rows, batch_format="pandas")


def sentence_competition(batch: pa.Table) -> pa.Table:
    """Within-sentence competition (RelationFilter analog,
    kbp/sf/process/RelationFilter.java:73-144, components 297-480): for
    each (doc, sentence, object mention), keep only the top-scoring
    relation mention across subjects and labels
    (CrossRelTypeCompetitionFilterComponent semantics).  Sentence-local;
    off by default, matching Props.java:289-295."""
    import pandas as pd

    df = batch.to_pandas()
    if not len(df):
        return batch
    df = df.sort_values(
        ["doc_id", "sent_idx", "obj_begin", "best_q", "subj_begin"],
        ascending=[True, True, True, False, True], kind="mergesort",
    )
    keep = df.drop_duplicates(["doc_id", "sent_idx", "obj_begin", "obj_end"],
                              keep="first")
    from ..schema import pd_to_arrow

    return pd_to_arrow(keep)
