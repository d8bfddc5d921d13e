"""Pipeline configuration — the user-extension surface of the KG run.

The reference's knobs are ``@Option`` statics populated from
properties/HOCON (kbp/sf/common/Props.java, 518 lines; SlotfillingSystem
.exec — SURVEY.md §2.12); its model registry constructs classifiers by
reflection (ModelType.java:12-92).

Here: one dataclass holding the semantics knobs the reference exposes
(caps, thresholds, rule additions, consistency toggles, graph
completion), read by ``pipelines.kg.triples_stage`` and
``run_kg_pipeline``.  There is no model registry: the model's type picks
the scorer and the bag reducer (``pipelines.kg._score``).  Training
knobs are the training functions' own arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class PipelineConfig:
    # S1 extract
    lang: str = "en"                       # language filter ("" = keep all)
    # S2 NLP
    max_sentences_per_doc: int = 512
    nlp_mode: str = "tasks"                # "tasks" | "actors"
    nlp_concurrency: Any = None            # actor-pool bounds when "actors"
    # S3/S4 mentions + pairs (reference caps)
    max_pair_distance: int = 25            # RelationMentionAnnotator.closeEnough
    max_sent_tokens: int = 150             # PreFeaturizerAnnotator.java:99
    use_cluster_features: bool = True
    # S5 classify
    keep_threshold: float = 0.5            # OneVsAll p>0.5 keep rule
    use_rules: bool = False                # TokenRegex-style additions
    sentence_competition: bool = False     # RelationFilter (off by default,
                                           # Props.java:289-295)
    #: RelationFilter component chain applied per (doc, subject) scope
    #: between scoring and bag formation, in order; any of "coref",
    #: "per_reltype", "cross_reltype" (RelationFilter.java:297-480).
    #: Empty = filter disabled (the reference default).
    relation_filter_components: tuple = ()
    # S7 consistency
    enforce_cardinality: bool = True
    enforce_incompatibilities: bool = True
    max_slot_len: int = 80                 # SanityCheckFilter
    entailment: bool = False               # pass-2 chain (entailment closure
                                           # + global filters) — OFF by
                                           # default: the fork short-circuits
                                           # pass 2 (SimpleSlotFiller);
                                           # InferentialSlotFiller turns it on
    gibbs_objective: str = "top"           # "top" (default — skips Gibbs,
                                           # Props.java GibbsObjective) |
                                           # "sum" (sampled Σ-score filter)
    gibbs_mixing_time: int = 1000          # Props.java:249-250
    # S8 graph
    n_salt: int = 1                        # canonicalization skew salting
    max_cluster: int = 150                 # TEST_GRAPH_MAXSIZE analog
    symmetrize: bool = False
    add_inverses: bool = False
    # shuffles
    n_buckets: int | None = None           # explicit bucket count wins;
    est_rows: int | None = None            # else size-derived from this
                                           # row estimate (resolve_n_buckets;
                                           # bare default 64)
