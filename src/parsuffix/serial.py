"""Versioned binary container for built indexes.

Layout, version 3 (all integers little-endian):

    magic   "PQST"
    version u8      (3)
    kind    u8      (0 = trie, 1 = tree, 2 = interleaved)
    p       u32     (layer count bound; 1 for trie/tree)
    digest  32 B    (SHA-256 of the raw text followed by the pair-dict
                    blocks)
    rawlen  u64, raw text bytes

    index blocks, then pair-dict blocks (:meth:`Container.blocks`): one
    of each for a trie or tree; for an interleaved index one per layer
    k = 1, 2, 4, ..., p, then one per upper layer k = 2, 4, ..., p

    index block:
        stride u32, then the suffix array of the index's data (the text's
        stride interleaved subsequences end to end, rawlen + stride
        symbols): the 1-based start u32 of each suffix, in suffix order;
        4 B per data symbol

    pair-dict block:
        entry count u32, then (a u32, b u32, w u32) triples sorted by key

An index is its data's suffix array (``SuffixIndex.sa``): the loader
derives every column from it with the function the builders use
(:func:`~parsuffix.suffixindex.fill_from_suffix_array`), so node ids are
the same preorder, children in symbol order, and survive a round trip
unchanged; dictionary triples and query traces stay comparable.  A pair
dictionary's packed keys (``a << 32 | b``) sort as the (a, b) pairs do,
so the triples come out in the same order.

Loading raises ``ContainerError`` at the first failed check, in this
order:

1. what reading needs: the header's version, kind and ``p``, which is 1
   for a trie or tree and a power of two for an interleaved index; each
   index block's stride, which its position implies (1 for a trie or
   tree, k for layer k), checked before any text is made from it; no
   dictionary block maps a pair twice, or a node twice or to the root;
   the input ends with the last block;
2. the digest.  It covers the raw text (a changed symbol can leave every
   suffix array of the text valid) and which pair a dictionary entry
   holds, and nothing reads either before it matches;
3. each suffix array, in O(n) (Burkhardt & Kärkkäinen 2003): it must be a
   permutation of the data positions, and the pairs (symbol at the
   suffix's start, rank of the suffix one position on) must rise
   strictly along it.  That holds for the true suffix array only, and an
   index derived from it is the text's suffix tree or trie by
   construction: the index blocks need no digest and no structural
   checks;
4. the derivation of each suffix tree, and then each dictionary block's
   size and range: it maps every non-root node of its target, from pairs
   of nodes of its owner.  A trie's size is checked on its tree, before
   the edges are expanded into the trie's nodes.

Version 1 files (node ids in build order) and version 2 files (four
columns per node) are rejected with a request to rebuild the index.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, lt, mul
from typing import Optional

from .halving import (PairDict, build_tree_halving_dict,
                      build_trie_halving_dict)
from .interleaved import LayerIndex, LayeredIndex, build_layered_index
from .lanes import is_pow2
from .suffixindex import (ROOT, SuffixIndex, build_suffix_tree,
                          build_suffix_trie, expand_edges,
                          fill_from_suffix_array, gather)
from .textmodel import make_text

MAGIC = b"PQST"
VERSION = 3
_KINDS = {"trie": 0, "tree": 1, "interleaved": 2}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_HEAD = struct.Struct("<BBI")          # version, kind, p
_DIGEST_SIZE = 32
_RAWLEN = struct.Struct("<Q")
_COUNT = struct.Struct("<I")
_BIG_ENDIAN = sys.byteorder == "big"


class ContainerError(ValueError):
    pass


def _strides(kind: str, p: int) -> list[int]:
    """The strides of a container's index blocks, in file order."""
    return [1 << i for i in range(p.bit_length())] \
        if kind == "interleaved" else [1]


@dataclass
class Container:
    """A text's built indexes, as built or loaded: what every query
    algorithm runs on; :meth:`blocks` lists them in file order.  A tree's
    suffix links are kept on the tree (``index.ancestry``), not here."""

    kind: str                      # "trie" | "tree" | "interleaved"
    raw: bytes
    p: int
    index: Optional[SuffixIndex] = None       # trie / tree kinds
    dct: Optional[PairDict] = None            # halving dict for the index
    layered: Optional[LayeredIndex] = None    # interleaved kind

    def blocks(self) -> tuple[list[SuffixIndex], list[PairDict]]:
        """The index blocks, then the dictionary blocks, in file order."""
        if self.layered is None:
            return [self.index], [self.dct]
        strides = _strides(self.kind, self.p)
        return ([self.layered.layers[k].tree for k in strides],
                [self.layered.dicts[k] for k in strides[1:]])


def build_container(raw: bytes, kind: str, p: int = 1) -> Container:
    if kind == "trie":
        idx = build_suffix_trie(make_text(raw, 1))
        return Container(kind, raw, 1, idx, build_trie_halving_dict(idx))
    if kind == "tree":
        idx = build_suffix_tree(make_text(raw, 1))
        return Container(kind, raw, 1, idx, build_tree_halving_dict(idx))
    if kind == "interleaved":
        return Container(kind, raw, p, layered=build_layered_index(raw, p))
    raise ContainerError("unknown index kind %r" % kind)


# -- encoding ----------------------------------------------------------


def _le_bytes(col: array) -> bytes:
    """A column's values as little-endian bytes."""
    if _BIG_ENDIAN:
        col = array(col.typecode, col)
        col.byteswap()
    return col.tobytes()


def _pack_index(out: bytearray, index: SuffixIndex) -> None:
    out += _COUNT.pack(index.stride)
    out += _le_bytes(index.sa)


def _pack_dict(out: bytearray, d: PairDict) -> None:
    keys = sorted(d.entries)
    triples = array("I", bytes(12 * len(keys)))
    triples[0::3] = array("I", [key >> 32 for key in keys])
    triples[1::3] = array("I", [key & 0xFFFFFFFF for key in keys])
    triples[2::3] = array("I", gather(d.entries, keys))
    out += _COUNT.pack(len(keys))
    out += _le_bytes(triples)


def dump_container(cont: Container) -> bytes:
    indexes, dicts = cont.blocks()
    dict_blocks = bytearray()
    for d in dicts:
        _pack_dict(dict_blocks, d)
    digest = hashlib.sha256(cont.raw)
    digest.update(dict_blocks)
    out = bytearray(MAGIC)
    out += _HEAD.pack(VERSION, _KINDS[cont.kind], cont.p)
    out += digest.digest()
    out += _RAWLEN.pack(len(cont.raw))
    out += cont.raw
    for index in indexes:
        _pack_index(out, index)
    out += dict_blocks
    return bytes(out)


# -- decoding ----------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = memoryview(data)
        self.pos = 0

    def take(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take_bytes(fmt.size))

    def take_bytes(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ContainerError("truncated container")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def take_column(self, typecode: str, count: int) -> array:
        """``count`` little-endian values read into an array."""
        col = array(typecode)
        col.frombytes(self.take_bytes(col.itemsize * count))
        if _BIG_ENDIAN:
            col.byteswap()
        return col

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ContainerError("%d trailing bytes after the last block"
                                 % (len(self.data) - self.pos))


def _unpack_index(raw: bytes, kind: str, stride: int,
                  sa: array) -> SuffixIndex:
    """An index block's suffix array, checked, and the suffix tree it
    gives (a trie index holds its tree's columns until
    :func:`_expand_trie`)."""
    index = SuffixIndex(make_text(raw, stride), kind)
    _check_suffix_array(index.data, sa)
    fill_from_suffix_array(index, sa)
    return index


def _expand_trie(trie: SuffixIndex, block: tuple[array, dict[int, int]]
                 ) -> None:
    """Expand a trie block's tree into the trie, after checking that the
    dictionary, which maps each non-root trie node, has one entry per
    node.  The suffix array of n symbols can stand for a trie of order n²
    nodes: checked after the expansion, a small file would make the
    loader build it."""
    count, nodes = len(block[1]), sum(trie.skip)   # the root's skip is 0
    if count != nodes:
        raise ContainerError("dictionary has %d entries for %d non-root "
                             "nodes" % (count, nodes))
    expand_edges(trie)


def _check_suffix_array(data: tuple[int, ...], sa: array) -> None:
    """``sa`` holds every position of ``data`` once, and (symbol, rank of
    the next suffix) rises strictly along it: ``sa`` is the suffix array
    (Burkhardt & Kärkkäinen 2003).  By induction on the suffix length,
    those pairs compare as the suffixes do once the ranks are right."""
    n = len(data)
    if min(sa) < 1 or max(sa) > n:
        raise ContainerError("a suffix array entry outside the data")
    rank = [-1] * (n + 2)               # -1 for the empty suffix at n + 1
    any(map(rank.__setitem__, sa, range(n)))
    if rank.count(-1) > 2:
        raise ContainerError("the suffix array holds a position twice")
    at = (0,) + data
    width = n + 1
    # (symbol, rank of the next suffix) as one int: ranks run from -1
    keys = list(map(add, map(mul, gather(at, sa), repeat(width)),
                    gather(rank, list(map(add, sa, repeat(1))))))
    if not all(map(lt, keys, islice(keys, 1, None))):
        raise ContainerError("the suffix array is not in suffix order")


def _take_dict(rd: _Reader) -> tuple[array, dict[int, int]]:
    """A dictionary block's triples and entries: no pair may map twice,
    and no node may be mapped twice or be the root."""
    (count,) = rd.take(_COUNT)
    triples = rd.take_column("I", 3 * count)
    a, b, w = triples[0::3], triples[1::3], triples[2::3]
    entries = {x << 32 | y: z for x, y, z in zip(a, b, w)}
    if len(entries) != count:
        seen = set()
        for pair in zip(a, b):
            if pair in seen:
                raise ContainerError("dictionary maps the pair (%d, %d) "
                                     "twice" % pair)
            seen.add(pair)
    nodes = set(w)
    if len(nodes) != count:
        seen = set()
        for node in w:
            if node in seen:
                raise ContainerError("dictionary maps node %d twice" % node)
            seen.add(node)
    if ROOT in nodes:
        raise ContainerError("dictionary maps a pair to the root")
    return triples, entries


def _unpack_dict(block: tuple[array, dict[int, int]], owner: SuffixIndex,
                 target: SuffixIndex) -> PairDict:
    """A dictionary block: it must map every non-root node of ``target``,
    each once (checked as it was read), from pairs of ``owner``'s
    nodes."""
    triples, entries = block
    count = len(entries)
    if count != len(target) - 1:
        raise ContainerError("dictionary has %d entries for %d non-root "
                             "nodes" % (count, len(target) - 1))
    if count and (max(triples[0::3]) >= len(owner) or
                  max(triples[1::3]) >= len(owner) or
                  max(triples[2::3]) >= len(target)):
        raise ContainerError("dictionary entry references missing node")
    return PairDict(owner=owner, target=target, entries=entries)


def load_container(data: bytes) -> Container:
    rd = _Reader(data)
    if rd.take_bytes(4) != MAGIC:
        raise ContainerError("bad magic (not a PQST container)")
    version, kind_code, p = rd.take(_HEAD)
    if version != VERSION:
        raise ContainerError("unsupported container version %d (this "
                             "program reads version %d); rebuild the index "
                             "with `parsuffix build`" % (version, VERSION))
    if kind_code not in _KIND_NAMES:
        raise ContainerError("unknown index kind code %d" % kind_code)
    kind = _KIND_NAMES[kind_code]
    if not (is_pow2(p) if kind == "interleaved" else p == 1):
        raise ContainerError("a %s container with p = %d (a trie or tree "
                             "needs 1, an interleaved index a power of two)"
                             % (kind, p))
    digest = bytes(rd.take_bytes(_DIGEST_SIZE))
    (rawlen,) = rd.take(_RAWLEN)
    raw = bytes(rd.take_bytes(rawlen))

    strides = _strides(kind, p)
    sas = []
    for k in strides:
        (got,) = rd.take(_COUNT)
        if got != k:
            raise ContainerError("index block has stride %d where %d belongs"
                                 % (got, k))
        sas.append(rd.take_column("i", rawlen + k))
    dict_start = rd.pos
    dict_count = len(strides) - 1 if kind == "interleaved" else 1
    dict_blocks = [_take_dict(rd) for _ in range(dict_count)]
    rd.expect_end()
    check = hashlib.sha256(raw)
    check.update(rd.data[dict_start:])
    if check.digest() != digest:
        raise ContainerError("the raw text or a dictionary block does not "
                             "match the container's digest")

    indexes = [_unpack_index(raw, "trie" if kind == "trie" else "tree", k, sa)
               for k, sa in zip(strides, sas)]
    if kind == "trie":
        _expand_trie(indexes[0], dict_blocks[0])
    if kind == "interleaved":
        # layer k's dictionary maps pairs of its nodes to layer k/2's nodes
        dicts = {k: _unpack_dict(block, upper, lower) for k, block, upper,
                 lower in zip(strides[1:], dict_blocks, indexes[1:], indexes)}
        layers = {k: LayerIndex(k, tree) for k, tree in zip(strides, indexes)}
        return Container(kind, raw, p, layered=LayeredIndex(layers, dicts))
    index = indexes[0]
    return Container(kind, raw, p, index, _unpack_dict(dict_blocks[0], index,
                                                       index))


def save_file(path: str, cont: Container) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_container(cont))


def load_file(path: str) -> Container:
    with open(path, "rb") as fh:
        return load_container(fh.read())
