"""Suffix tries and patricia-compressed suffix trees over a static text.

Both index kinds share one struct-of-arrays node store
(:class:`SuffixIndex`), after the enhanced suffix array's tables of
Abouelhoda, Kurtz & Ohlebusch (2004): a node is an id into a few
``array("i")`` fields and one list of child dicts, not an object, and
the ids of a finished index are a preorder, children in symbol order.  A
node's incoming edge is described only by its first (discriminator)
character and its length (``skip``); the full label is recovered from
the indexed symbol sequence via ``leftmost_leaf_ref``.  Navigation
therefore compares only discriminator characters, and callers must
verify skipped characters against the text before trusting a match
(patricia semantics).

A text with k delimiters is indexed as its k interleaved subsequences
(the interleaved layers; k = 1 is the plain text): they are concatenated
into one ``data`` array and suffixes stay within their own subsequence.
Each subsequence ends with a unique delimiter, so no suffix is a prefix
of another.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .textmodel import Pattern, Text, interleave

if TYPE_CHECKING:
    from .ancestry import AncestryIndex

NodeId = int
ROOT: NodeId = 0
NO_PARENT = -1                   # the root's parent
# the child map every leaf of a finalized index shares
NO_CHILDREN = MappingProxyType({})


class SuffixIndex:
    """The nodes of a suffix trie or tree over the text's interleaved
    subsequences, one entry per node in each per-field array, indexed by
    node id (the root is node 0; :meth:`finalize` numbers the nodes in
    preorder):

    - ``parent`` (``NO_PARENT`` for the root), ``skip`` (incoming edge
      length in symbols, 0 for the root), ``cum`` (cumulative skip, root
      to node), ``ref`` (a leaf's 1-based suffix start in ``data``, 0 for
      none) and ``leftmost_leaf_ref`` (the 1-based data position of one
      suffix below) are ``array("i")``s, 4 bytes per node each;
    - ``children`` lists one symbol -> child dict per node, and every
      leaf of a finalized index shares :data:`NO_CHILDREN`.

    A dict holding only ints is not tracked by CPython's collector, so an
    index is a handful of collector objects, not one per node.  A suffix
    tree of a random binary text of 16000 symbols holds 183 B per node in
    all (tracemalloc, CPython 3.11), most of it in the child dicts.

    ``stride`` is the text's delimiter count k and ``base_len`` its length
    without them.  ``data`` is the concatenation of the text's k
    interleaved subsequences (just the text symbols for k = 1), and
    ``seq_starts`` holds the 1-based data position where each subsequence
    begins; leaf refs map back to text positions through both.
    """

    def __init__(self, text: Text, kind: str) -> None:
        assert kind in ("trie", "tree")
        self.base_len = text.base_len
        self.kind = kind
        self.stride = text.k
        seqs = interleave(text.symbols, text.k)
        self.data = tuple(chain.from_iterable(seqs))
        self.seq_starts = tuple(accumulate((len(seq) for seq in seqs[:-1]),
                                           initial=1))
        self.parent = array("i", [NO_PARENT])
        self.skip = array("i", [0])
        self.cum = array("i", [0])
        self.ref = array("i", [0])
        self.leftmost_leaf_ref = array("i", [0])
        self.children: list[dict[int, NodeId]] = [{}]
        # suffix links, built once by ancestry.build_ancestry
        self.ancestry: Optional[AncestryIndex] = None
        # the reporting range, built by finalize() or the container loader
        self.leaf_pos = array("i")
        self.leaf_lo = array("i")
        self.leaf_hi = array("i")

    # -- raw access ---------------------------------------------------

    def at(self, pos: int) -> int:
        """Symbol at 1-based data position."""
        return self.data[pos - 1]

    def __len__(self) -> int:
        return len(self.cum)

    def new_node(self, parent: NodeId, skip: int, lref: int,
                 ref: int = 0) -> NodeId:
        """Append a node below ``parent``.  A node made with a suffix
        ``ref`` is a leaf of a suffix tree and shares NO_CHILDREN."""
        nid = len(self.cum)
        self.parent.append(parent)
        self.skip.append(skip)
        self.cum.append(self.cum[parent] + skip)
        self.ref.append(ref)
        self.leftmost_leaf_ref.append(lref)
        self.children.append(NO_CHILDREN if ref else {})
        return nid

    def spelling(self, nid: NodeId) -> tuple[int, ...]:
        """The node's longest corresponding substring."""
        r = self.leftmost_leaf_ref[nid]
        return self.data[r - 1: r - 1 + self.cum[nid]]

    def shortest_len(self, nid: NodeId) -> int:
        """Length of the node's shortest corresponding substring."""
        return self.cum[nid] - self.skip[nid] + 1

    def data_pos_to_text_pos(self, dpos: int) -> int:
        """Map a 1-based data position to the 1-based original-text position
        of the symbol stored there (delimiter tail positions map past n)."""
        si = bisect_right(self.seq_starts, dpos) - 1
        offset = dpos - self.seq_starts[si]          # 0-based within sequence
        return (si + 1) + offset * self.stride

    def text_positions(self) -> array:
        """The text position of each data position: ``t[d]`` for 1-based
        data position d (delimiter tail positions map past the text), and
        ``t[0] = base_len + 1``, also past the text, for a missing ref."""
        k = self.stride
        if k == 1:
            table = array("i", range(len(self.data) + 1))
        else:
            ends = self.seq_starts[1:] + (len(self.data) + 1,)
            table = array("i", [0])
            for i, (start, end) in enumerate(zip(self.seq_starts, ends), 1):
                table.extend(range(i, i + k * (end - start), k))
        table[0] = self.base_len + 1
        return table

    def finalize(self) -> None:
        """Renumber the nodes in preorder, children in symbol order, and
        build what the walk gives: sorted child maps holding the new ids,
        leftmost leaf refs and the reporting range.

        In preorder a parent's id is below its children's, each subtree
        is one contiguous id range, and a node's first child is the next
        id.  ``leaf_pos`` lists the text positions of the reported leaves
        (those with a suffix ref that starts in the text, not in the
        delimiter tail) in leaf order; ``leaf_pos[leaf_lo[v]:leaf_hi[v]]``
        are the ones below node ``v``.  Leaves drop their empty child
        dicts for :data:`NO_CHILDREN`, so the index is not built further
        after this."""
        children = self.children
        ref = self.ref
        n = len(children)
        tpos = self.text_positions()
        base_len = self.base_len
        order = [ROOT]                 # old id of each new id
        parent = [NO_PARENT]           # by new id
        lo = array("i", bytes(4 * n))
        hi = array("i", lo)
        lref = array("i", lo)
        pos = array("i")
        pending = [ROOT]              # visited, leftmost leaf not yet seen
        # The node being expanded: its new id, its child map, the one
        # being filled with new ids, and its symbols still to visit; the
        # frames hold the same for its ancestors.
        top, kids, new_kids = ROOT, children[ROOT], {}
        new_children: list[dict[int, NodeId]] = [new_kids]
        syms = iter(sorted(kids))
        frames = []
        while True:
            for sym in syms:
                old = kids[sym]
                nid = new_kids[sym] = len(order)
                order.append(old)
                parent.append(top)
                lo[nid] = len(pos)
                grand = children[old]
                children[old] = NO_CHILDREN   # the old map is freed once walked
                if grand:
                    frames.append((top, kids, new_kids, syms))
                    top, kids, new_kids = nid, grand, {}
                    new_children.append(new_kids)
                    syms = iter(sorted(grand) if len(grand) > 1 else grand)
                    pending.append(nid)
                    break
                new_children.append(NO_CHILDREN)
                r = lref[nid] = ref[old]
                if tpos[r] <= base_len:
                    pos.append(tpos[r])
                hi[nid] = len(pos)
                for up in pending:
                    lref[up] = r
                pending.clear()
            else:
                hi[top] = len(pos)
                if not frames:
                    break
                top, kids, new_kids, syms = frames.pop()
        self.parent = array("i", parent)
        self.skip, self.cum, self.ref = (array("i", gather(field, order))
                                         for field in (self.skip, self.cum, ref))
        self.children = new_children
        self.leftmost_leaf_ref = lref
        self.leaf_pos, self.leaf_lo, self.leaf_hi = pos, lo, hi


def gather(values: Sequence[int] | Mapping[int, int],
           ids: Sequence[int]) -> tuple[int, ...]:
    """``values[i]`` for each i in ``ids``, read in one C-level call."""
    if len(ids) > 1:
        return itemgetter(*ids)(values)
    return tuple(values[i] for i in ids)


# -- construction ------------------------------------------------------


def _suffix_ranges(index: SuffixIndex) -> list[tuple[int, int]]:
    starts = list(index.seq_starts) + [len(index.data) + 1]
    return [(starts[i], starts[i + 1] - 1) for i in range(len(starts) - 1)]


def build_suffix_trie(text: Text) -> SuffixIndex:
    """Suffix trie by direct suffix insertion: one node per distinct
    nonempty substring, all skip values 1."""
    if len(text) < 1:
        raise ValueError("text must be nonempty")
    idx = SuffixIndex(text, "trie")
    children = idx.children
    data = idx.data
    for lo, hi in _suffix_ranges(idx):
        for s in range(lo, hi + 1):
            cur = ROOT
            for pos in range(s, hi + 1):
                c = data[pos - 1]
                nxt = children[cur].get(c)
                if nxt is None:
                    nxt = children[cur][c] = idx.new_node(cur, 1, s)
                cur = nxt
            if not idx.ref[cur]:
                idx.ref[cur] = s
    idx.finalize()
    return idx


def build_suffix_tree(text: Text) -> SuffixIndex:
    """Suffix tree over all suffixes of the text's k interleaved
    subsequences (the plain suffix tree for k = 1), by McCreight's
    algorithm (:func:`_insert_all_suffixes`); O(n) node visits plus O(n)
    character comparisons."""
    if len(text) < 1:
        raise ValueError("text must be nonempty")
    idx = SuffixIndex(text, "tree")
    _insert_all_suffixes(idx)
    idx.finalize()
    return idx


def _insert_all_suffixes(idx: SuffixIndex) -> None:
    """McCreight's algorithm (McCreight 1976).

    Suffixes are inserted longest first, one sequence after another.  The
    head of a suffix is the node its leaf hangs from.  The head of suffix
    s+1 is found from the head h of suffix s: if h existed before step s,
    it has a suffix link and the scan resumes there; otherwise the walk
    follows the suffix link of h's parent, rescans the rest of h's string
    minus its first character by skip/count (one comparison per node, the
    string is known to be present), and then scans character by
    character.  Every step creates the same nodes in the same order as
    inserting each suffix from the root would, so the finished tree does
    not depend on the method.  Suffix links are kept only while building.
    """
    parent = idx.parent
    cum = idx.cum
    children = idx.children
    data = idx.data                      # 0-based: data[p - 1] is at(p)
    link: dict[NodeId, NodeId] = {ROOT: ROOT}
    for lo, hi in _suffix_ranges(idx):
        head = ROOT                      # the last suffix is one delimiter
        for s in range(lo, hi + 1):
            if head in link:
                cur = link[head]
            else:
                # head was created in the previous step: rescan its string
                # minus the first character below its parent's link
                want = cum[head] - 1
                cur = link[parent[head]]
                while cum[cur] < want:
                    child = children[cur][data[s - 1 + cum[cur]]]
                    if cum[child] > want:
                        cur = _split(idx, cur, child, want)
                        break
                    cur = child
                link[head] = cur
            head = _scan(idx, cur, s, hi)


def _split(idx: SuffixIndex, cur: NodeId, child: NodeId, depth: int) -> NodeId:
    """Insert a node at string depth ``depth`` on the edge cur -> child."""
    cum = idx.cum
    lref = idx.leftmost_leaf_ref[child]
    mid = idx.new_node(cur, depth - cum[cur], lref)
    idx.children[cur][idx.data[lref - 1 + cum[cur]]] = mid
    idx.parent[child] = mid
    idx.skip[child] = cum[child] - depth
    idx.children[mid][idx.data[lref - 1 + depth]] = child
    return mid


def _scan(idx: SuffixIndex, cur: NodeId, s: int, e: int) -> NodeId:
    """Insert suffix data[s .. e], whose first ``cum(cur)`` symbols spell
    ``cur``, comparing symbols from there on; returns the suffix's head."""
    cum = idx.cum
    children = idx.children
    data = idx.data
    pos = s + cum[cur]
    while True:
        child = children[cur].get(data[pos - 1])
        if child is None:
            break
        lref = idx.leftmost_leaf_ref[child]
        end = cum[child]
        j = cum[cur] + 1
        while j <= end and pos <= e and data[lref + j - 2] == data[pos - 1]:
            j += 1
            pos += 1
        if j > end:
            if pos > e:
                # suffix ends exactly at an existing node; impossible with
                # unique terminating delimiters
                raise AssertionError("duplicate suffix during construction")
            cur = child
            continue
        if pos > e:
            raise AssertionError("suffix is a proper edge prefix; "
                                 "text lacks a unique terminator")
        cur = _split(idx, cur, child, j - 1)
        break
    children[cur][data[pos - 1]] = idx.new_node(cur, e - pos + 1, s, s)
    return cur


# -- queries -----------------------------------------------------------


def descend(index: SuffixIndex, seq: Sequence[int]
            ) -> tuple[list[tuple[NodeId, int]], bool]:
    """Blind patricia descent along ``seq``'s discriminator symbols, from
    the root to the first node with cumulative skip >= ``len(seq)``.

    Returns the path as (node, cumulative skip) pairs, root included, and
    whether its last node covers ``seq``; False means the walk fell off
    there.  Skipped symbols are not compared: callers verify them.  For
    callers that read the whole path; :func:`navigate` keeps only its end."""
    children = index.children
    cums = index.cum
    m = len(seq)
    cur, cum = ROOT, 0
    path = [(ROOT, 0)]
    append = path.append
    while cum < m:
        cur = children[cur].get(seq[cum])
        if cur is None:
            return path, False
        cum = cums[cur]
        append((cur, cum))
    return path, True


def navigate(index: SuffixIndex, seq: Sequence[int]
             ) -> tuple[NodeId, int, bool]:
    """The end of :func:`descend`'s walk, recording no path: the last node
    reached, its cumulative skip, and whether it covers ``seq``."""
    children = index.children
    cums = index.cum
    m = len(seq)
    cur, cum = ROOT, 0
    while cum < m:
        nxt = children[cur].get(seq[cum])
        if nxt is None:
            return cur, cum, False
        cur = nxt
        cum = cums[cur]
    return cur, cum, True


def occurrences(index: SuffixIndex, nid: NodeId) -> list[int]:
    """Sorted 1-based text positions of all suffixes below ``nid``,
    excluding suffixes that begin inside the delimiter tail: a slice of
    the leaf-order range :meth:`SuffixIndex.finalize` builds."""
    return sorted(index.leaf_pos[index.leaf_lo[nid]:index.leaf_hi[nid]])


def verify_against_text(index: SuffixIndex, nid: NodeId, pat: Pattern) -> bool:
    """Check the characters skipped during patricia navigation: true iff
    the node's label actually starts with the pattern."""
    r = index.leftmost_leaf_ref[nid]
    if r + pat.m - 1 > len(index.data):
        return False
    return index.data[r - 1: r - 1 + pat.m] == pat.chars
