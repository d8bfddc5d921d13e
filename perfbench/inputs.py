"""Seeded benchmark inputs: KG page corpora and near-duplicate corpora.

Everything here is a pure function of its arguments; the program under
test only ever sees the tables and files these functions build.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

#: entity ranges of the KG test corpus: the widest ``gen_corpus`` supports,
#: disjoint from the training corpus ranges below
TEST_RANGES = dict(per_lo=200, per_hi=1000, org_lo=100, org_hi=300)
TRAIN_RANGES = dict(per_lo=0, per_hi=200, org_lo=0, org_hi=100)
TRAIN_PAGES = 400
TRAIN_EPOCHS = 150

#: ids of the 64-bit dedup corpus start here, as content-digest ids do
WIDE_ID_BASE = 1 << 60


def kg_corpus(n_pages: int, seed: int):
    """``gen_corpus`` over the test ranges with its pages shuffled by
    ``seed``.  Returns (pages table, Corpus)."""
    from stanford_re_ray.fixtures import gen_corpus

    corpus = gen_corpus(n_pages, base_url="https://t.example", **TEST_RANGES)
    order = list(range(n_pages))
    random.Random(seed).shuffle(order)
    return corpus.pages.take(order), corpus


def train_corpus():
    from stanford_re_ray.fixtures import gen_corpus

    return gen_corpus(TRAIN_PAGES, **TRAIN_RANGES)


def write_shards(pages: pa.Table, out_dir: str, n_shards: int) -> list[str]:
    """Split ``pages`` into ``n_shards`` equal contiguous Parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-pages.num_rows // n_shards)
    paths = []
    for i in range(n_shards):
        path = os.path.join(out_dir, f"shard-{i:03d}.parquet")
        pq.write_table(pages.slice(i * per, per), path)
        paths.append(path)
    return paths


def rewrite_same_bytes(path: str) -> None:
    """Rewrite a file with identical bytes; its mtime changes."""
    with open(path, "rb") as f:
        data = f.read()
    st = os.stat(path)
    with open(path, "wb") as f:
        f.write(data)
    # a coarse filesystem clock could keep the old mtime: force a new one
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))


# --- near-duplicate corpora -------------------------------------------------

_SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "su",
              "da", "fe", "gu", "ho", "ji", "be"]
DOC_WORDS = 60


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def dedup_corpus(n_docs: int, seed: int, id_base: int = 0):
    """A corpus of ``n_docs`` documents with planted near-duplicate
    clusters.

    Documents are 60 random pseudo-words.  About a third of them are
    singletons; the rest form clusters of 2–4 members: the base text plus
    copies that replace one word (word 5-shingle Jaccard 71/81 ≈ 0.88 to
    the base) or repeat it exactly.  Copies in a cluster alter different
    positions, so two copies can fall below a 0.8 threshold with each
    other; the cluster stays connected through its base.  Ids are
    ``id_base + i`` over a seed-shuffled order.

    Returns (table(doc_id int64, text string), expected survivor ids):
    the minimum id of each cluster plus every singleton."""
    rng = random.Random(seed)
    groups: list[list[str]] = []
    n_left = n_docs
    while n_left > 0:
        base = [_word(rng) for _ in range(DOC_WORDS)]
        size = 1 if rng.random() < 0.5 else rng.randint(2, 4)
        size = min(size, n_left)
        members = [" ".join(base)]
        positions = rng.sample(range(DOC_WORDS), size)
        for c in range(1, size):
            if c == 3:
                members.append(members[0])      # an exact repeat
                continue
            copy = list(base)
            copy[positions[c]] = _word(rng) + "x"
            members.append(" ".join(copy))
        groups.append(members)
        n_left -= size
    slots = list(range(n_docs))
    rng.shuffle(slots)
    ids, texts, expected = [], [], []
    k = 0
    for members in groups:
        cluster_ids = []
        for text in members:
            ids.append(id_base + slots[k])
            texts.append(text)
            cluster_ids.append(id_base + slots[k])
            k += 1
        expected.append(min(cluster_ids))
    order = sorted(range(n_docs), key=lambda i: ids[i])
    table = pa.table({
        "doc_id": pa.array([ids[i] for i in order], pa.int64()),
        "text": pa.array([texts[i] for i in order], pa.string()),
    })
    return table, sorted(expected)
