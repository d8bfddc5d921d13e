"""Stable, process-independent hashing utilities.

The reference leans on JVM iteration order and fixed ``Random`` seeds for
determinism (SURVEY.md §4 "Ordering"); under parallel execution we instead
derive every sampling / bucketing / tie-break decision from a content hash,
so results are independent of block arrival order and process boundaries.
Python's builtin ``hash`` is salted per process and must never be used.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa

#: 64-bit FNV-1a constants (public domain algorithm)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def sha1_hex(s: str | bytes) -> str:
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return hashlib.sha1(s).hexdigest()


def stable_u32(s: str | bytes) -> int:
    """Deterministic 32-bit hash (crc32)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return zlib.crc32(s) & 0xFFFFFFFF


def stable_u64(s: str | bytes) -> int:
    """Deterministic 64-bit hash (first 8 bytes of md5)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.md5(s).digest()[:8], "little")


def hash_sample_keep(key: str, rate: float, salt: str = "") -> bool:
    """Deterministic Bernoulli(rate) keyed on content.

    Replaces the reference's ``new Random(0)`` negative subsampling
    (KBPTrainer.java:258,278) with an order-independent decision.
    """
    h = stable_u64(salt + "\x00" + key)
    return (h % 1_000_000) < rate * 1_000_000


def fnv1a_u64_vec(arr: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over a uint64 array (mixes each element)."""
    h = np.full(arr.shape, _FNV_OFFSET, dtype=np.uint64)
    x = arr.astype(np.uint64)
    for shift in (0, 8, 16, 24, 32, 40, 48, 56):
        byte = (x >> np.uint64(shift)) & np.uint64(0xFF)
        h = (h ^ byte) * _FNV_PRIME
    return h


#: odd 64-bit multiplier (2^64 / golden ratio) for ``mix64`` folds and
#: the per-byte weights of ``bytes_u64_vec``
MIX_K = np.uint64(0x9E3779B97F4A7C15)


def mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array: every input bit
    reaches every output bit, so ``% n`` of the result is well spread."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def bytes_u64_vec(arr) -> np.ndarray:
    """Deterministic 64-bit hash of every value of an Arrow string or
    binary array (null slots hash as empty), straight off its offsets
    and data buffers — no per-row Python.  Per value: the polynomial
    ``Σ (byte_i + 1) · MIX_K^i`` mod 2^64 (prefix sums over the whole
    buffer, differenced at the offsets), xor its length, ``mix64``."""
    wide = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    offs = np.frombuffer(arr.buffers()[1], np.int64 if wide else np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = arr.buffers()[2]
    lo = offs[0]
    b = (np.frombuffer(data, np.uint8)[lo:offs[-1]] if data is not None
         else np.zeros(0, np.uint8))
    lens = np.diff(offs)
    pos = np.arange(len(b)) - np.repeat(offs[:-1] - lo, lens)
    powers = np.cumprod(np.full(int(lens.max(initial=0)) + 1, MIX_K))
    cs = np.zeros(len(b) + 1, np.uint64)
    np.cumsum((b.astype(np.uint64) + np.uint64(1)) * powers[pos], out=cs[1:])
    return mix64((cs[offs[1:] - lo] - cs[offs[:-1] - lo])
                 ^ lens.astype(np.uint64))


def str_hash_u64_vec(strings) -> np.ndarray:
    """Deterministic 64-bit hashes for a sequence of Python strings.

    Per-string md5 — used for content ids; hot paths should hash once per
    row and carry the column, not rehash per stage.
    """
    out = np.empty(len(strings), dtype=np.uint64)
    for i, s in enumerate(strings):
        out[i] = stable_u64(s)
    return out


def rendezvous_assign(ids, n_shards: int, salt: str = "hrw") -> np.ndarray:
    """Rendezvous (highest-random-weight) shard assignment: each id goes
    to ``argmax over s of stable_u64(f"{salt}\\0{s}\\0{id}")`` — the
    consistent-placement scheme where growing N → N+1 shards moves ONLY
    the ids won by the new shard (≈ 1/(N+1) of them) and every mover
    lands on the new shard; hash/modulo placement reshuffles ~all.
    Ties (md5-collision-rare) break to the LOWEST shard, matching the
    SQL twin's ``ORDER BY weight DESC, shard ASC``.  Returns an int64
    shard per id; pure per-row math — embarrassingly parallel map-side,
    no state, no shuffle."""
    out = np.empty(len(ids), dtype=np.int64)
    for i, v in enumerate(ids):
        best_s, best_h = 0, -1
        for s in range(n_shards):
            h = stable_u64(f"{salt}\x00{s}\x00{v}")
            if h > best_h:
                best_s, best_h = s, h
        out[i] = best_s
    return out
