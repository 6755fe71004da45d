"""Versioned binary container for built indexes.

Layout, version 2 (all integers little-endian):

    magic   "PQST"
    version u8      (2)
    kind    u8      (0 = trie, 1 = tree, 2 = interleaved)
    p       u32     (layer count bound; 1 for trie/tree)
    digest  32 B    (SHA-256 of the raw text followed by the pair-dict
                    blocks)
    rawlen  u64, raw text bytes

    index blocks, then pair-dict blocks (:meth:`Container.blocks`): one
    of each for a trie or tree; for an interleaved index one per layer
    k = 1, 2, 4, ..., p, then one per upper layer k = 2, 4, ..., p

    index block:
        stride u32, node count n u32, then four columns of n values, by
        node id: parent i32 (-1 for the root), skip u32, ref u32 (0 =
        none), and sym u16 (the first symbol of the node's incoming edge,
        0 for the root); 14 B per node

    pair-dict block:
        entry count u32, then (a u32, b u32, w u32) triples sorted by key

Node ids are a preorder with children in symbol order
(:meth:`~parsuffix.suffixindex.SuffixIndex.finalize`), so every subtree
is one contiguous id range and a node's first child is the next id.  The
sym column is the index's own, written and read as it is.  The loader
reads each column with one ``frombytes`` and derives the rest in passes
over the columns, with no tree walk: cumulative skips top-down,
subtree sizes and leftmost leaf refs bottom-up, and the reporting range
as a running count of the reported leaves.  The child table comes from
the parent and sym columns as ``finalize`` derives it
(:func:`~parsuffix.suffixindex.child_table`): a node whose next id is
not its child is a leaf, and the later children are sorted by parent.
Ids survive a round trip unchanged, so dictionary triples and query
traces stay comparable.  A pair dictionary's packed keys
(``a << 32 | b``) sort as the (a, b) pairs do, so the triples come out
in the same order.

Loading raises ``ContainerError`` unless the header's ``p`` is 1 for a
trie or tree and a power of two for an interleaved index, every index
block has the stride its position implies (1 for a trie or tree, k for
layer k) and spells one tree in preorder rooted at node 0 (each parent
id below its child's, each node's id range inside its parent's, no empty
edges and none on the root, only one-symbol edges in a trie, refs inside
the data) whose children come in rising symbol order, so no two share
one (checked along the child table: each later child against the entry
before it, a second child against the first child's ``fsym``), whose
leaves report every text position exactly once, each leaf at its
suffix's depth, every edge symbol is the data symbol at that depth below
its child's leftmost leaf, every dictionary block maps each non-root
node of its target exactly once from distinct pairs, every non-root
inner node of a tree (plain or layer) has a later child, that is two
children or more, the input ends with the last block, and the digest
matches.

The digest covers what no structural check can: the raw text (a changed
symbol can keep every edge symbol and depth consistent) and which pair a
dictionary entry holds.  The index blocks are left out of it; their
checks above are what stands between a damaged block and a query.
Version 1 files, whose node ids were in build order, are rejected with a
request to rebuild the index.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import add, eq, le, lt, ne
from typing import Optional

from .halving import (PairDict, build_tree_halving_dict,
                      build_trie_halving_dict)
from .interleaved import LayerIndex, LayeredIndex, build_layered_index
from .lanes import is_pow2
from .suffixindex import (NO_PARENT, NO_SYM, SuffixIndex, build_suffix_tree,
                          build_suffix_trie, child_table, gather)
from .textmodel import make_text

MAGIC = b"PQST"
VERSION = 2
_KINDS = {"trie": 0, "tree": 1, "interleaved": 2}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_HEAD = struct.Struct("<BBI")          # version, kind, p
_DIGEST_SIZE = 32
_RAWLEN = struct.Struct("<Q")
_INDEX_HEAD = struct.Struct("<II")     # stride, node count
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
    out += _INDEX_HEAD.pack(index.stride, len(index))
    for col in (index.parent, index.skip, index.ref, index.sym):
        out += _le_bytes(col)


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


def _unpack_index(rd: _Reader, raw: bytes, kind: str,
                  stride: int) -> SuffixIndex:
    """An index block: its four columns, checked, and what they imply."""
    got, count = rd.take(_INDEX_HEAD)
    if got != stride:
        raise ContainerError("index block has stride %d where %d belongs"
                             % (got, stride))
    if count < 2:
        raise ContainerError("index block has %d nodes, not a root and a "
                             "leaf at least" % count)
    parent, skip, ref = (rd.take_column("i", count) for _ in range(3))
    sym = rd.take_column("H", count)
    index = SuffixIndex(make_text(raw, stride), kind)
    data_len = len(index.data)
    if parent[0] != NO_PARENT or skip[0] != 0 or sym[0] != 0:
        raise ContainerError("node 0 is not a root")
    if min(islice(parent, 1, None)) < 0 or \
            not all(map(lt, islice(parent, 1, None), range(1, count))):
        raise ContainerError("a parent id at or after its child's: node "
                             "ids are not a preorder")
    shortest, longest = min(islice(skip, 1, None)), max(skip)
    if shortest < 1 or longest > (1 if kind == "trie" else data_len):
        raise ContainerError("an edge of %d symbols in a %s"
                             % (shortest if shortest < 1 else longest, kind))
    if min(ref) < 0 or max(ref) > data_len:
        raise ContainerError("a suffix ref outside the text")

    size, end, index.leftmost_leaf_ref = _subtrees(parent, ref)
    index.cum = _cums(parent, skip)
    index.parent, index.skip, index.ref = parent, skip, ref
    _set_child_table(index, sym)
    _check_labels(index, [v for v, s in enumerate(size) if s == 1], sym)
    _set_reporting_range(index, size, end)
    n = index.base_len
    pos = index.leaf_pos
    if len(pos) != n or len(set(pos)) != n or (n and min(pos) < 1):
        raise ContainerError("the leaves are not the text's %d suffixes, "
                             "each once" % n)
    # an inner node with no later child has one child
    cstart = index.cstart
    if kind == "tree" and any(map(ne, compress(
            islice(index.fsym, 1, None),
            map(eq, islice(cstart, 1, None), islice(cstart, 2, None))),
            repeat(NO_SYM))):
        raise ContainerError("a tree's inner node other than the root has "
                             "one child")
    return index


def _subtrees(parent: array, ref: array) -> tuple[list[int], list[int],
                                                  array]:
    """Bottom-up, in reverse id order: subtree sizes, the id just past
    each subtree, and leftmost leaf refs (an inner node's is its first
    child's, the next id).  Each node's id range must lie inside its
    parent's, which makes the ids a preorder."""
    count = len(parent)
    size = [1] * count
    lref = array("i", ref)
    for v in range(count - 1, 0, -1):
        s = size[v]
        if s > 1:
            lref[v] = lref[v + 1]
        size[parent[v]] += s
    lref[0] = lref[1]
    end = [v + s for v, s in enumerate(size)]
    if not all(map(le, islice(end, 1, None), gather(end, parent[1:]))):
        raise ContainerError("a node outside its parent's id range: node "
                             "ids are not a preorder")
    return size, end, lref


def _cums(parent: array, skip: array) -> array:
    """Top-down, in id order: cumulative skips."""
    cum = [0] * len(parent)
    for v, par, s in zip(range(1, len(parent)), islice(parent, 1, None),
                         islice(skip, 1, None)):
        cum[v] = cum[par] + s
    try:
        return array("i", cum)
    except OverflowError:
        raise ContainerError("a path longer than the text") from None


def _set_child_table(index: SuffixIndex, sym: array) -> None:
    """The child table from the parent and sym columns, as finalize
    derives it.  Each later child's symbol must be above its previous
    sibling's (the table entry before it, or for a second child the
    first child's): children in symbol order, no two sharing a symbol."""
    fsym, cstart, cid, csym = child_table(index.parent, sym)
    group = last = -1
    for par, c in zip(gather(index.parent, cid), csym):
        if par != group:
            group, last = par, fsym[par]
        if c <= last:
            raise ContainerError("two children of node %d share a symbol "
                                 "or are out of symbol order" % par)
        last = c
    index.child_maps = None
    index.sym = sym
    index.fsym, index.cstart, index.cid, index.csym = fsym, cstart, cid, csym


def _set_reporting_range(index: SuffixIndex, size: list[int],
                         end: list[int]) -> None:
    """``leaf_pos``, ``leaf_lo`` and ``leaf_hi`` as finalize sets them:
    in preorder the leaves come in leaf order, so a node's slice starts
    at the count of reported leaves before it and ends at the count
    before the id just past its subtree."""
    n = index.base_len
    tpos = gather(index.text_positions(), index.ref)
    reported = [s == 1 and t <= n for s, t in zip(size, tpos)]
    below = list(accumulate(reported, initial=0))
    index.leaf_pos = array("i", compress(tpos, reported))
    index.leaf_lo = array("i", below[:-1])
    index.leaf_hi = array("i", gather(below, end))


def _check_labels(index: SuffixIndex, leaves: list[int], sym: array) -> None:
    """Every leaf holds a suffix ref and sits at that suffix's depth
    within its subsequence, and every edge's symbol is the one its child's
    leftmost leaf has at the parent's depth."""
    refs = gather(index.ref, leaves)
    # the end of each subsequence, one past it, by 1-based start index
    ends = (0,) + index.seq_starts[1:] + (len(index.data) + 1,)
    if not all(refs) or \
            list(map(add, gather(index.cum, leaves), refs)) != \
            list(map(ends.__getitem__,
                     map(bisect_right, repeat(index.seq_starts), refs))):
        raise ContainerError("a leaf is not at its suffix's depth")
    # at[lref + depth] is the symbol at ``depth`` below a leftmost leaf
    at = (0,) + index.data
    got = gather(at, list(map(add, islice(index.leftmost_leaf_ref, 1, None),
                              gather(index.cum, index.parent[1:]))))
    if got != tuple(sym[1:]):
        child = next(v for v, want, have in zip(range(1, len(sym)),
                                                 sym[1:], got)
                     if want != have)
        raise ContainerError("node %d: edge symbol %d disagrees with the "
                             "text" % (child, sym[child]))


def _unpack_dict(rd: _Reader, owner: SuffixIndex,
                 target: SuffixIndex) -> PairDict:
    """A dictionary block: it must map every non-root node of ``target``
    exactly once, each from its own pair."""
    (count,) = rd.take(_COUNT)
    if count != len(target) - 1:
        raise ContainerError("dictionary has %d entries for %d non-root "
                             "nodes" % (count, len(target) - 1))
    triples = rd.take_column("I", 3 * count)
    a, b, w = triples[0::3], triples[1::3], triples[2::3]
    if count and (max(a) >= len(owner) or max(b) >= len(owner) or
                  max(w) >= len(target)):
        raise ContainerError("dictionary entry references missing node")
    d = PairDict(owner=owner, target=target,
                 entries={x << 32 | y: z for x, y, z in zip(a, b, w)})
    if len(d.entries) != count:
        seen = set()
        for pair in zip(a, b):
            if pair in seen:
                raise ContainerError("dictionary maps the pair (%d, %d) "
                                     "twice" % pair)
            seen.add(pair)
    mapped = bytearray(len(target))
    mapped[0] = 1                               # the root maps from no pair
    for node in w:
        if mapped[node]:
            raise ContainerError("dictionary maps node %d twice" % node)
        mapped[node] = 1
    return d


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
    indexes = [_unpack_index(rd, raw, "trie" if kind == "trie" else "tree", k)
               for k in strides]
    dict_start = rd.pos
    if kind == "interleaved":
        # layer k's dictionary maps pairs of its nodes to layer k/2's nodes
        dicts = {k: _unpack_dict(rd, upper, lower) for k, upper, lower
                 in zip(strides[1:], indexes[1:], indexes)}
        layers = {k: LayerIndex(k, tree) for k, tree in zip(strides, indexes)}
        cont = Container(kind, raw, p, layered=LayeredIndex(layers, dicts))
    else:
        index = indexes[0]
        cont = Container(kind, raw, p, index, _unpack_dict(rd, index, index))
    rd.expect_end()
    check = hashlib.sha256(raw)
    check.update(rd.data[dict_start:])
    if check.digest() != digest:
        raise ContainerError("the raw text or a dictionary block does not "
                             "match the container's digest")
    return cont


def save_file(path: str, cont: Container) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_container(cont))


def load_file(path: str) -> Container:
    with open(path, "rb") as fh:
        return load_container(fh.read())
