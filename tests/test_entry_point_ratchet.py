"""Source-scan ratchet for the one KG entry point (no Ray): the S1–S7
chain is built only in ``pipelines/kg.py`` (``triples_stage``), which
defines one ``run_kg_pipeline*``.  Outside it, no module of the package,
nor ``__ray_entry__.py`` or ``bench.py``, calls an S5 scorer or
``kg_tail`` to hand-write its own chain.  Benchmark and test code are
out of scope: they time and check the stages one by one."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
KG = ROOT / "stanford_re_ray" / "pipelines" / "kg.py"

#: callables that only the one pipeline builder may call
CHAIN_CALLS = {"score_stage", "miml_score_stage", "HoffmannScorer",
               "kg_tail"}


def _chain_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every call to a ``CHAIN_CALLS`` name, bare or as
    an attribute (``kg.kg_tail(...)``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in CHAIN_CALLS:
                out.append((name, node.lineno))
    return out


def _scanned() -> list[pathlib.Path]:
    pkg = sorted((ROOT / "stanford_re_ray").rglob("*.py"))
    return [p for p in pkg if p != KG] + [ROOT / "__ray_entry__.py",
                                          ROOT / "bench.py"]


def test_ratchet_scan_sees_hand_written_chain():
    src = '''
def entry(pages, model):
    pairs = pairs_stage(nlp_stage(extract_stage(pages)))
    return kg.kg_tail(score_stage(pairs, model))

class Runner:
    def run(self, pairs, m):
        return pairs.map_batches(HoffmannScorer(ray.put(m)))
'''
    assert sorted(_chain_calls(ast.parse(src))) == [
        ("HoffmannScorer", 8), ("kg_tail", 4), ("score_stage", 4)]


def test_one_run_kg_pipeline():
    tree = ast.parse(KG.read_text())
    runs = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)
            and n.name.startswith("run_kg_pipeline")]
    assert runs == ["run_kg_pipeline"]


def test_no_hand_written_kg_chain_outside_kg():
    for path in _scanned():
        calls = _chain_calls(ast.parse(path.read_text()))
        assert not calls, f"{path.relative_to(ROOT)}: {calls}"
