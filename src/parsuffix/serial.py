"""Versioned binary container for built indexes.

Layout (all integers little-endian):

    magic   "PQST"
    version u8      (currently 1)
    kind    u8      (0 = trie, 1 = tree, 2 = interleaved)
    p       u32     (layer count bound; 1 for trie/tree)
    rawlen  u64, raw text bytes

    index blocks, then pair-dict blocks (:meth:`Container.blocks`): one
    of each for a trie or tree; for an interleaved index one per layer
    k = 1, 2, 4, ..., p, then one per upper layer k = 2, 4, ..., p

    index block:
        stride u32, node count u32, then per node (in id order):
        parent u32 (0xFFFFFFFF for the root), skip u32,
        ref u32 (0 = none), child count u16,
        then per child, by symbol: symbol u16, child id u32

    pair-dict block:
        entry count u32, then (a u32, b u32, w u32) triples sorted by key

Only the structural fields are stored; cumulative skips, leftmost leaf
references and child ordering are recomputed on load, and suffix links /
lifting tables are rebuilt on demand.  A node record is appended field by
field to the index's arrays (:class:`~parsuffix.suffixindex.SuffixIndex`),
so a node's id is its record's position, and ids survive a round trip
unchanged: dictionary triples and query traces stay comparable.  A pair
dictionary's packed keys (``a << 32 | b``) sort as the (a, b) pairs do,
so the triples come out in the same order.

Loading raises ``ContainerError`` unless the header's ``p`` is 1 for a
trie or tree and a power of two for an interleaved index, every index
block has the stride its position implies (1 for a trie or tree, k for
layer k) and spells one tree rooted at node 0 (child and parent ids in
range, each node listed once and by the parent it names, no empty edges
and none on the root, only one-symbol edges in a trie, refs inside the
data) whose leaves report every text position exactly once, each leaf at
its suffix's depth, every edge symbol is the data symbol at that depth
below its child's leftmost leaf, every dictionary block maps each
non-root node of its target exactly once from distinct pairs, every
non-root inner node of a tree (plain or layer) has two children or more,
and the input ends with the last block.

Left unchecked: the raw text (a changed symbol can keep every edge symbol
and depth consistent) and which pair a dictionary entry holds; catching
either needs a checksum or a per-leaf label check.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .halving import (PairDict, build_tree_halving_dict,
                      build_trie_halving_dict)
from .interleaved import LayerIndex, LayeredIndex, build_layered_index
from .lanes import is_pow2
from .suffixindex import (NO_CHILDREN, NO_PARENT, SuffixIndex,
                          build_suffix_tree, build_suffix_trie)
from .textmodel import make_text

MAGIC = b"PQST"
VERSION = 1
_KINDS = {"trie": 0, "tree": 1, "interleaved": 2}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_NO_PARENT = 0xFFFFFFFF
_HEAD = struct.Struct("<BBI")          # version, kind, p
_RAWLEN = struct.Struct("<Q")
_INDEX_HEAD = struct.Struct("<II")     # stride, node count
_NODE = struct.Struct("<IIIH")         # parent, skip, ref, child count
_CHILD = struct.Struct("<HI")          # symbol, child id
_COUNT = struct.Struct("<I")
_TRIPLE = struct.Struct("<III")        # a, b, w


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


def _pack_index(out: bytearray, index: SuffixIndex) -> None:
    out += _INDEX_HEAD.pack(index.stride, len(index))
    for parent, skip, ref, children in zip(index.parent, index.skip,
                                           index.ref, index.children):
        out += _NODE.pack(_NO_PARENT if parent == NO_PARENT else parent,
                          skip, ref, len(children))
        for sym, child in children.items():
            out += _CHILD.pack(sym, child)


def _pack_dict(out: bytearray, d: PairDict) -> None:
    out += _COUNT.pack(len(d))
    for (a, b), w in d.pairs():
        out += _TRIPLE.pack(a, b, w)


def dump_container(cont: Container) -> bytes:
    out = bytearray()
    out += MAGIC
    out += _HEAD.pack(VERSION, _KINDS[cont.kind], cont.p)
    out += _RAWLEN.pack(len(cont.raw))
    out += cont.raw
    indexes, dicts = cont.blocks()
    for index in indexes:
        _pack_index(out, index)
    for d in dicts:
        _pack_dict(out, d)
    return bytes(out)


# -- decoding ----------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, fmt: struct.Struct) -> tuple:
        if self.pos + fmt.size > len(self.data):
            raise ContainerError("truncated container")
        vals = fmt.unpack_from(self.data, self.pos)
        self.pos += fmt.size
        return vals

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ContainerError("truncated container")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ContainerError("%d trailing bytes after the last block"
                                 % (len(self.data) - self.pos))


def _unpack_index(rd: _Reader, raw: bytes, kind: str,
                  stride: int) -> SuffixIndex:
    got, count = rd.take(_INDEX_HEAD)
    if got != stride:
        raise ContainerError("index block has stride %d where %d belongs"
                             % (got, stride))
    if count < 1:
        raise ContainerError("index block has no root")
    index = SuffixIndex(make_text(raw, stride), kind)
    data_len = len(index.data)
    max_skip = 1 if kind == "trie" else data_len
    # each record is appended to the arrays; a leaf shares NO_CHILDREN,
    # as finalize leaves it anyway
    parents, skips, refs = array("i"), array("i"), array("i")
    children: list[dict[int, int]] = []
    for nid in range(count):
        parent, skip, ref, nchild = rd.take(_NODE)
        if parent == _NO_PARENT:
            parent = NO_PARENT
            bad_edge = skip != 0
        else:
            bad_edge = not 1 <= skip <= max_skip or parent >= count
        if bad_edge or ref > data_len:
            raise ContainerError("node %d: edge of %d symbols in a %s, "
                                 "parent out of range, or suffix ref "
                                 "outside the text" % (nid, skip, kind))
        parents.append(parent)
        skips.append(skip)
        refs.append(ref)
        children.append(dict(_CHILD.iter_unpack(
            rd.take_bytes(_CHILD.size * nchild))) if nchild else NO_CHILDREN)
    if parents[0] != NO_PARENT:
        raise ContainerError("node 0 is not a root")
    # Parents before children, each node reached once, from the node its
    # parent field names: the block spells one tree rooted at node 0.
    cum = array("i", bytes(4 * count))
    reached = bytearray(count)
    order = [0]
    try:
        for nid in order:
            for child in children[nid].values():
                if parents[child] != nid or reached[child]:
                    raise ContainerError("node %d listed twice or under a "
                                         "node other than its parent" % child)
                reached[child] = 1
                cum[child] = cum[nid] + skips[child]
                order.append(child)
    except (IndexError, OverflowError):
        raise ContainerError("child id out of range, or a path longer "
                             "than the text") from None
    if len(order) != count:
        raise ContainerError("%d nodes unreachable from the root"
                             % (count - len(order)))
    index.parent, index.skip, index.cum, index.ref = parents, skips, cum, refs
    index.leftmost_leaf_ref = array("i", bytes(4 * count))
    index.children = children
    index.finalize()
    _check_labels(index)
    n = index.base_len
    pos = index.leaf_pos
    if len(pos) != n or len(set(pos)) != n or (n and min(pos) < 1):
        raise ContainerError("the leaves are not the text's %d suffixes, "
                             "each once" % n)
    if kind == "tree" and 1 in map(len, index.children[1:]):
        raise ContainerError("a tree's inner node other than the root has "
                             "one child")
    return index


def _check_labels(index: SuffixIndex) -> None:
    """Every leaf holds a suffix ref and sits at that suffix's depth
    within its subsequence, and every edge's symbol is the one its child's
    leftmost leaf has at the parent's depth."""
    cum = index.cum
    lrefs = index.leftmost_leaf_ref
    data = index.data
    starts = index.seq_starts
    ends = starts[1:] + (len(data) + 1,)        # one past each subsequence
    try:
        for nid, children in enumerate(index.children):
            if children:
                depth = cum[nid] - 1
                for sym, child in children.items():
                    if data[lrefs[child] + depth] != sym:
                        raise ContainerError("node %d: edge symbol %d "
                                             "disagrees with the text"
                                             % (child, sym))
                continue
            ref = index.ref[nid]
            if not ref or \
                    cum[nid] != ends[bisect_right(starts, ref) - 1] - ref:
                raise ContainerError("a leaf is not at its suffix's depth")
    except IndexError:
        raise ContainerError("a leaf is not at its suffix's depth") from None


def _unpack_dict(rd: _Reader, owner: SuffixIndex,
                 target: SuffixIndex) -> PairDict:
    """A dictionary block: it must map every non-root node of ``target``
    exactly once, each from its own pair."""
    (count,) = rd.take(_COUNT)
    nodes_o, nodes_t = len(owner), len(target)
    if count != nodes_t - 1:
        raise ContainerError("dictionary has %d entries for %d non-root "
                             "nodes" % (count, nodes_t - 1))
    d = PairDict(owner=owner, target=target)
    entries = d.entries
    seen = bytearray(nodes_t)
    seen[0] = 1                                 # the root maps from no pair
    for a, b, w in _TRIPLE.iter_unpack(rd.take_bytes(_TRIPLE.size * count)):
        if a >= nodes_o or b >= nodes_o or w >= nodes_t:
            raise ContainerError("dictionary entry references missing node")
        key = a << 32 | b
        if key in entries:
            raise ContainerError("dictionary maps the pair (%d, %d) twice"
                                 % (a, b))
        if seen[w]:
            raise ContainerError("dictionary maps node %d twice" % w)
        seen[w] = 1
        entries[key] = w
    return d


def load_container(data: bytes) -> Container:
    rd = _Reader(data)
    if rd.take_bytes(4) != MAGIC:
        raise ContainerError("bad magic (not a PQST container)")
    version, kind_code, p = rd.take(_HEAD)
    if version != VERSION:
        raise ContainerError("unsupported container version %d" % version)
    if kind_code not in _KIND_NAMES:
        raise ContainerError("unknown index kind code %d" % kind_code)
    kind = _KIND_NAMES[kind_code]
    if not (is_pow2(p) if kind == "interleaved" else p == 1):
        raise ContainerError("a %s container with p = %d (a trie or tree "
                             "needs 1, an interleaved index a power of two)"
                             % (kind, p))
    (rawlen,) = rd.take(_RAWLEN)
    raw = rd.take_bytes(rawlen)

    strides = _strides(kind, p)
    indexes = [_unpack_index(rd, raw, "trie" if kind == "trie" else "tree", k)
               for k in strides]
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
    return cont


def save_file(path: str, cont: Container) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_container(cont))


def load_file(path: str) -> Container:
    with open(path, "rb") as fh:
        return load_container(fh.read())
