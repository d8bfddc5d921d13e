"""Source-scan ratchet for the bucketed shuffle (no Ray): keyed bucket
shuffles go through ``relational.bucket_reduce``.  In the migrated
modules a ``groupby`` on a ``__bucket`` column may stay only in the
functions that route by range or replicate rows, in ``hash_join``'s
salted exchange and in the iterative graph loops that tag two sides
separately; no code that builds a ``__bucket`` column may compute
``crc32(...) % <anything>``, nor may any ``crc32(...)`` be taken modulo
a bucket count; and ``analytics.py`` may not add hand-rolled sites.
Every top-level function, class and module-level statement is scanned,
nested code included."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parents[1] / "stanford_re_ray"

#: module → the functions allowed their own ``groupby("__bucket")``
HAND_ROLLED = {
    "functions/relational.py": {"bucket_reduce", "hash_join", "range_join"},
    "functions/dedup.py": {"sorted_neighborhood_pairs"},
    "functions/corpus.py": set(),
    "functions/profiling.py": set(),
    "functions/mixing.py": {"sequence_packing"},
    "pipelines/kg.py": set(),
    "pipelines/graph_ops.py": {"pagerank", "label_propagation",
                               "msf_boruvka", "maximal_matching",
                               "link_prediction_topk"},
    "stages/rules.py": set(),
    "stages/classify.py": set(),
    "stages/miml.py": set(),
}
ANALYTICS_MAX = 48


def _top_level(tree: ast.Module):
    """(name, node) of every top-level statement: a function's or class's
    own name, ``<module>`` for anything else."""
    for node in tree.body:
        yield getattr(node, "name", "<module>"), node


def _bucket_groupbys(tree: ast.Module) -> list[str]:
    """Top-level owner of every ``groupby`` on a ``__bucket`` column."""
    return [name for name, top in _top_level(tree)
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "groupby" and node.args
            and "__bucket" in ast.unparse(node.args[0])]


def _crc32_mods(top: ast.AST) -> list[ast.BinOp]:
    return [node for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and "crc32(" in ast.unparse(node.left)]


def _crc32_bucket_routing(tree: ast.Module) -> list[int]:
    """Lines of ``crc32(...) % <...bucket...>`` anywhere, and of any
    ``crc32(...) % <...>`` in a top-level owner that names ``__bucket``."""
    out = []
    for _, top in _top_level(tree):
        tags = any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and "__bucket" in n.value for n in ast.walk(top))
        out += [m.lineno for m in _crc32_mods(top)
                if tags or "bucket" in ast.unparse(m.right)]
    return out


def test_ratchet_scan_sees_hand_rolled_routing():
    """The scan flags the shapes it forbids: a crc32 modulo any name where
    ``__bucket`` is built, and a ``__bucket`` groupby inside a class."""
    src = '''
def route(batch, n):
    b = [zlib.crc32(k.encode()) % n for k in keys]
    return batch.append_column("__bucket", b)

class Stage:
    def run(self, ds):
        return ds.groupby(["__bucket"]).map_groups(f)
'''
    tree = ast.parse(src)
    assert _crc32_bucket_routing(tree) == [3]
    assert _bucket_groupbys(tree) == ["Stage"]


def test_keyed_bucket_shuffles_go_through_bucket_reduce():
    for rel, allowed in HAND_ROLLED.items():
        tree = ast.parse((PKG / rel).read_text())
        extra = sorted(set(_bucket_groupbys(tree)) - allowed)
        assert not extra, f"{rel}: hand-rolled __bucket shuffle in {extra}"
        assert not _crc32_bucket_routing(tree), rel


def test_analytics_hand_rolled_sites_do_not_grow():
    tree = ast.parse((PKG / "pipelines/analytics.py").read_text())
    assert len(_bucket_groupbys(tree)) <= ANALYTICS_MAX
