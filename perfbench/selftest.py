"""Shows that each output check of the benchmark can fail.

    python3 perfbench/selftest.py

Builds correct outputs from the fixture generator's gold triples (no Ray),
confirms the checks accept them, then feeds each check one fault and
expects a rejection: a dropped triple, an edge scored below its best
supporting triple, one wrong dedup survivor, a resume that reprocesses an
untouched shard, and a corrupted join payload.  Exits 1 if any fault
slips through.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict

import pyarrow as pa

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402


def kg_outputs(gold: pa.Table):
    """Triples = the gold rows with scores; one node per surface; edges as
    the noisy-OR merge of their triples."""
    n = gold.num_rows
    triples = gold.append_column(
        "score", pa.array([0.55 + 0.4 * ((i * 7) % 10) / 10 for i in range(n)],
                          pa.float64()))
    names = sorted({(s, t) for s, t in zip(
        triples.column("subj").to_pylist() + triples.column("obj").to_pylist(),
        triples.column("subj_type").to_pylist()
        + triples.column("obj_type").to_pylist())})
    nodes = pa.table({
        "entity_id": [f"{t}:{s}" for s, t in names],
        "name": [s for s, _ in names],
        "type": [t for _, t in names],
        "alt_names": pa.array([[] for _ in names], pa.list_(pa.string())),
    })
    groups = defaultdict(list)
    for s, st, p, o, ot, sc in zip(*(triples.column(c).to_pylist() for c in (
            "subj", "subj_type", "pred", "obj", "obj_type", "score"))):
        groups[(f"{st}:{s}", p, f"{ot}:{o}")].append(sc)
    keys = sorted(groups)
    edges = pa.table({
        "src_id": [k[0] for k in keys], "pred": [k[1] for k in keys],
        "dst_id": [k[2] for k in keys],
        "score": [1 - math.prod(1 - s for s in groups[k]) for k in keys],
        "n_support": pa.array([len(groups[k]) for k in keys], pa.int64()),
    })
    return triples, nodes, edges


def expect_reject(label: str, fn) -> bool:
    try:
        fn()
    except checks.CheckFailed as e:
        print(f"ok   {label}: rejected ({e})")
        return True
    print(f"FAIL {label}: accepted")
    return False


def main() -> int:
    from stanford_re_ray.fixtures import gen_corpus

    gold = gen_corpus(200, base_url="https://t.example",
                      **inputs.TEST_RANGES).gold
    triples, nodes, edges = kg_outputs(gold)
    checks.check_kg(triples, nodes, edges, gold)
    print("ok   correct KG outputs accepted")
    results = []

    dropped = triples.slice(1)
    results.append(expect_reject(
        "dropped triple",
        lambda: checks.check_kg(dropped, nodes, edges, gold)))

    scores = edges.column("score").to_pylist()
    scores[0] = 0.5 * min(triples.column("score").to_pylist())
    low = edges.set_column(edges.schema.get_field_index("score"), "score",
                           pa.array(scores, pa.float64()))
    results.append(expect_reject(
        "edge scored below its support",
        lambda: checks.check_kg(triples, nodes, low, gold)))

    table, expected = inputs.dedup_corpus(300, 1)
    checks.check_survivors(list(expected), expected)
    print("ok   correct survivors accepted")
    wrong = list(expected)
    wrong[0] = next(d for d in table.column("doc_id").to_pylist()
                    if d not in set(expected))
    results.append(expect_reject(
        "one wrong survivor", lambda: checks.check_survivors(wrong, expected)))

    stamp = {"triples/part=a": (1, 1, 1, "x"), "triples/part=b": (1, 1, 2, "y")}
    resumed = {"failed": [], "processed": ["a", "b"],
               "completed_previously": []}
    results.append(expect_reject(
        "resume reprocessed an untouched shard",
        lambda: checks.check_resume(resumed, ["a"], ["a", "b"], stamp, stamp)))

    left = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                     "l_payload": pa.array([2**60 + 1, 2**60 + 2, 2**60 + 3],
                                           pa.int64())})
    right = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "r_payload": pa.array([7, 8], pa.int64())})
    good = left.join(right, keys=["k"]).select(["k", "l_payload", "r_payload"])
    bad = good.set_column(1, "l_payload",
                          pa.array([2**60, 2**60 + 2, 2**60 + 3], pa.int64()))

    def join_check():
        if checks.join_wrong_rows(good, left, right, ["k"]):
            raise AssertionError("a correct join counted wrong rows")
        n = checks.join_wrong_rows(bad, left, right, ["k"])
        if n:
            raise checks.CheckFailed(f"{n} wrong join row")

    results.append(expect_reject("corrupted join payload", join_check))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
