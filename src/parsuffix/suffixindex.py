"""Suffix tries and patricia-compressed suffix trees over a static text.

Both index kinds share one struct-of-arrays node store
(:class:`SuffixIndex`), after the enhanced suffix array's tables of
Abouelhoda, Kurtz & Ohlebusch (2004): a node is an id into a few
``array`` fields, not an object, the ids are a preorder, children in
symbol order, and an inner node's children are the next id and a range
of one flat child table.  Every index is derived from its data's suffix
array (:func:`fill_from_suffix_array`), by the builders and by the
container loader alike, and every per-suffix fact is read from that
array through a node's range of it.  A node's incoming edge is described
only by its first (discriminator) character and its length (its string
depth less its parent's); the full label is recovered from the indexed
symbol sequence via the node's leftmost suffix.  Navigation
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
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, itemgetter, mul, ne, sub
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .textmodel import Pattern, Text, delimiter, interleave

if TYPE_CHECKING:
    from .ancestry import AncestryIndex

NodeId = int
ROOT: NodeId = 0
NO_PARENT = -1                   # the root's parent
NO_SYM = 0xFFFF                  # a leaf's fsym, a value no symbol takes


class SuffixIndex:
    """The nodes of a suffix trie or tree over the text's interleaved
    subsequences, one entry per node in each per-field array, indexed by
    node id (the root is node 0, the ids are a preorder):

    - ``parent`` (``NO_PARENT`` for the root) and ``cum`` (cumulative
      skip: string depth, root to node; an edge is ``cum[v] -
      cum[parent[v]]`` symbols long) are ``array("i")``s, 4 bytes per
      node each;
    - ``sym`` is the first symbol of the node's incoming edge (0 for the
      root) and ``fsym`` that of its first child's (:data:`NO_SYM` for a
      leaf), ``array("H")``s: the symbols, delimiters included, must fit
      16 bits and stay below ``NO_SYM``;
    - the child table: in preorder an inner node's first child is the
      next id, so the table lists only the later children: node v's are
      ``cid[cstart[v]:cstart[v + 1]]`` in symbol order, with their edge
      symbols at the same places of ``csym`` (``cstart`` has one entry
      more than there are nodes);
    - ``sa``, the data's suffix array: the 1-based start of each suffix
      in suffix order, the leaves' suffixes in id order.  It is all the
      container stores of an index;
    - the range: ``sa[leaf_lo[v]:leaf_hi[v]]`` are the reported suffixes
      below node v, those that start with a text symbol, not with a
      delimiter, and ``sa[leaf_lo[v]]`` is its leftmost suffix.  A leaf's
      suffix is ``sa[leaf_lo[v]]`` too; for the k delimiter leaves,
      which sort last, ``leaf_hi`` equals ``leaf_lo`` and the root's
      range stops before them.

    A lookup compares ``fsym`` (one read, the whole lookup on a unary
    chain) and only then searches the node's later children with
    ``csym.index``.  :meth:`child` does that and :meth:`children` lists
    them all; the query loops inline the lookup.

    An index is a handful of arrays: no object per node, and nothing
    CPython's collector tracks per node.  There is no build phase: a
    fresh index has no nodes until :func:`fill_from_suffix_array` derives
    every column at once (a trie's are then expanded from the tree's by
    :func:`expand_edges`), and nothing changes them afterwards.  The four
    int columns cost 16 B per node, the two symbol columns and ``cstart``
    8 B, a later child 6 B more.  A loaded suffix tree of a random binary
    text of 4000 symbols holds about 34 B per node in all, its suffix
    array included, a suffix trie of 200 symbols about 25 (tracemalloc,
    CPython 3.11); with a child dict per node they held 187 and 287.

    ``stride`` is the text's delimiter count k and ``base_len`` its length
    without them.  ``data`` is the concatenation of the text's k
    interleaved subsequences (just the text symbols for k = 1), and
    ``seq_starts`` holds the 1-based data position where each subsequence
    begins; data positions map back to text positions through both.
    """

    def __init__(self, text: Text, kind: str) -> None:
        assert kind in ("trie", "tree")
        if text.k and delimiter(text.k) >= NO_SYM:
            raise ValueError("%d delimiters: every symbol must stay below %d"
                             % (text.k, NO_SYM))
        self.base_len = text.base_len
        self.kind = kind
        self.stride = text.k
        seqs = interleave(text.symbols, text.k)
        self.data = tuple(chain.from_iterable(seqs))
        self.seq_starts = tuple(accumulate((len(seq) for seq in seqs[:-1]),
                                           initial=1))
        # every column is set by fill_from_suffix_array
        self.parent = array("i")
        self.cum = array("i")
        self.sym = array("H")
        self.fsym = array("H")
        self.cstart = array("i")
        self.cid = array("i")
        self.csym = array("H")
        self.leaf_lo = array("i")
        self.leaf_hi = array("i")
        self.sa = array("i")
        # level ancestors, built once by ancestry.build_ancestry
        self.ancestry: Optional[AncestryIndex] = None

    # -- raw access ---------------------------------------------------

    def at(self, pos: int) -> int:
        """Symbol at 1-based data position."""
        return self.data[pos - 1]

    def __len__(self) -> int:
        return len(self.cum)

    def child(self, nid: NodeId, sym: int) -> Optional[NodeId]:
        """The child of a finished index's node ``nid`` whose edge starts
        with ``sym``; None if there is none, as always at a leaf."""
        first = self.fsym[nid]
        if first == sym:
            return nid + 1
        if first == NO_SYM:
            return None
        try:
            return self.cid[self.csym.index(sym, self.cstart[nid],
                                            self.cstart[nid + 1])]
        except ValueError:
            return None

    def children(self, nid: NodeId) -> list[tuple[int, NodeId]]:
        """The (edge symbol, child) pairs of a finished index's node, in
        symbol order; empty for a leaf."""
        first = self.fsym[nid]
        if first == NO_SYM:
            return []
        lo, hi = self.cstart[nid], self.cstart[nid + 1]
        return [(first, nid + 1)] + list(zip(self.csym[lo:hi],
                                             self.cid[lo:hi]))

    def spelling(self, nid: NodeId) -> tuple[int, ...]:
        """The node's longest corresponding substring."""
        r = self.sa[self.leaf_lo[nid]]
        return self.data[r - 1: r - 1 + self.cum[nid]]

    def shortest_len(self, nid: NodeId) -> int:
        """Length of a non-root node's shortest corresponding substring."""
        return self.cum[self.parent[nid]] + 1

    def data_pos_to_text_pos(self, dpos: int) -> int:
        """Map a 1-based data position to the 1-based original-text position
        of the symbol stored there (delimiter tail positions map past n)."""
        si = bisect_right(self.seq_starts, dpos) - 1
        offset = dpos - self.seq_starts[si]          # 0-based within sequence
        return (si + 1) + offset * self.stride


def child_table(parent: array, sym: array
                ) -> tuple[array, array, array, array]:
    """``fsym``, ``cstart``, ``cid`` and ``csym`` of a tree whose ids are
    a preorder, children in symbol order, from each node's parent and edge
    symbol.  Node v + 1 is v's first child unless v is a leaf; every other
    child is a later one, and the table lists those grouped by parent, in
    id order within a group (a stable sort), each node's group starting
    at the count of later children of the nodes before it."""
    parents = parent.tolist()          # a list reads back without boxing
    n = len(parents)
    # w is a later child where w - 1 is not its parent, so w - 1 is a leaf
    later = list(compress(range(1, n), map(ne, islice(parents, 1, None),
                                           range(n - 1))))
    fsym = sym[1:]
    fsym.append(NO_SYM)
    count = [0] * n
    for w in later:
        fsym[w - 1] = NO_SYM
        count[parents[w]] += 1
    cid = array("i", sorted(later, key=parents.__getitem__))
    return (fsym, array("i", list(accumulate(count, initial=0))), cid,
            array("H", gather(sym, cid)))


def gather(values: Sequence[int] | Mapping[int, int],
           ids: Sequence[int]) -> tuple[int, ...]:
    """``values[i]`` for each i in ``ids``, read in one C-level call."""
    if len(ids) > 1:
        return itemgetter(*ids)(values)
    return tuple(values[i] for i in ids)


# -- construction ------------------------------------------------------


def build_suffix_tree(text: Text) -> SuffixIndex:
    """Suffix tree over all suffixes of the text's k interleaved
    subsequences (the plain suffix tree for k = 1): the LCP-interval tree
    of its data's suffix array (:func:`fill_from_suffix_array`)."""
    return _build(text, "tree")


def build_suffix_trie(text: Text) -> SuffixIndex:
    """Suffix trie: one node per distinct nonempty substring; the suffix
    tree with each edge expanded into one-symbol edges
    (:func:`expand_edges`)."""
    return _build(text, "trie")


def _build(text: Text, kind: str) -> SuffixIndex:
    if len(text) < 1:
        raise ValueError("text must be nonempty")
    index = SuffixIndex(text, kind)
    fill_from_suffix_array(index, suffix_array(index.data))
    if kind == "trie":
        expand_edges(index)
    return index


def suffix_array(data: Sequence[int]) -> array:
    """The suffix array of ``data``: the 1-based start of each suffix, in
    suffix order.  By prefix doubling: each round sorts the suffixes by
    the ranks of their first h symbols and of the next h with
    ``list.sort``, O(n log² n) in the worst case.

    ``data`` ends with a unique delimiter, and so does each subsequence in
    it, so its suffixes sort as the subsequences' suffixes do."""
    n = len(data)
    # the symbols, delimiters (up to 256 + k) included, ranked from 1; a
    # key's second rank is 0 past the end of the data
    symbols = sorted(set(data))
    rank = list(map(dict(zip(symbols, range(1, n + 1))).__getitem__, data))
    order = sorted(range(n), key=rank.__getitem__)
    top, h, width = len(symbols), 1, n + 1
    while top < n:
        keys = list(map(add, map(mul, rank, repeat(width)),
                        chain(islice(rank, h, None), repeat(0, min(h, n)))))
        order.sort(key=keys.__getitem__)
        ordered = gather(keys, order)
        ranks = list(accumulate(map(ne, islice(ordered, 1, None), ordered),
                                initial=1))
        top = ranks[-1]
        any(map(rank.__setitem__, order, ranks))
        h *= 2
    return array("i", map(add, order, repeat(1)))


def fill_from_suffix_array(index: SuffixIndex, sa: array) -> None:
    """Derive every column of a fresh index's suffix tree from its data's
    suffix array ``sa`` (1-based suffix starts in suffix order, kept as
    ``index.sa``), which must be correct: the builders compute it, the
    container loader checks it.

    The suffix tree is the LCP-interval tree of the suffix array
    (Abouelhoda, Kurtz & Ohlebusch 2004).  One pass in text order gives
    the longest common prefix of each suffix and the one before it in
    ``sa`` (Kärkkäinen, Manzini & Puglisi's variant of Kasai et al.'s
    pass).  One stack pass over ``sa``, right to left, opens and closes
    the inner nodes as intervals of ``sa``: leaf i is suffix ``sa[i]``,
    at the depth of its own subsequence's delimiter, and the parent of a
    leaf or of a closing interval is the top of the stack or the interval
    the pass opens next.  Nodes are listed as they close, leaves at once,
    which is a postorder that takes children in reverse symbol order:
    read backwards, it is the preorder with children in symbol order, and
    that is the id order.

    The k suffixes that are one delimiter each are the root's last
    children, leaves that sort last: the reported suffixes are
    ``sa[:base_len]``, the root's range stops there, and each delimiter
    leaf's range is empty at its own place.  A trie index gets its tree's
    columns here and its own from :func:`expand_edges`."""
    data = index.data
    n = len(data)
    at = (0,) + data + (-1,)            # at[p]: the symbol at position p
    # prev[p]: the suffix before p in sa; n + 1, past the data, for the
    # first, which shares nothing with it
    prev = [0] * (n + 2)
    any(map(prev.__setitem__, sa, chain((n + 1,), sa)))
    plcp = [0] * (n + 1)
    h = 0
    for p, q in enumerate(islice(prev, 1, n + 1), 1):
        while at[p + h] == at[q + h]:
            h += 1
        plcp[p] = h
        if h:
            h -= 1
    lcp = gather(plcp, sa)              # lcp[i]: of sa[i - 1] and sa[i]
    seq_ends = index.seq_starts[1:] + (n + 1,)
    lengths = gather((0,) + tuple(chain.from_iterable(
        map(range, map(sub, seq_ends, index.seq_starts), repeat(0),
            repeat(-1)))), sa)
    # the nodes as they close: depth, left bound, one past the right
    # bound, and the parent's place in the open intervals' lists
    cums, lbs, ends, ups = [], [], [], []
    # the intervals in the order they open, the root first: depth, one
    # past the right bound, and where each closed in the lists above
    depths, opens, closed = [0], [n], [0]
    stack = [ROOT]
    top = depth = 0
    for i, d, length in zip(range(n - 1, -1, -1), reversed(lcp),
                            reversed(lengths)):
        cums.append(length)
        lbs.append(i)
        ends.append(i + 1)
        if d > depth:                   # open the interval around i - 1, i
            top = len(depths)
            stack.append(top)
            depths.append(d)
            opens.append(i + 1)
            closed.append(0)
            depth = d
        ups.append(top)
        while d < depth:                # close the intervals starting at i
            end = opens[top]
            closed[top] = len(cums)
            cums.append(depth)
            lbs.append(i)
            ends.append(end)
            stack.pop()
            top = stack[-1]
            depth = depths[top]
            if d > depth:               # open their parent
                top = len(depths)
                stack.append(top)
                depths.append(d)
                opens.append(end)
                closed.append(0)
                depth = d
            ups.append(top)
    closed[ROOT] = len(cums)
    cums.append(0)
    lbs.append(0)
    ends.append(n)
    ups.append(ROOT)
    for col in (cums, lbs, ends, ups):
        col.reverse()
    total = len(cums)
    parent = array("i", map(sub, repeat(total - 1), gather(closed, ups)))
    parent[ROOT] = NO_PARENT
    lo, hi = array("i", lbs), array("i", ends)
    k = index.stride
    hi[total - k:] = lo[total - k:]     # the delimiter leaves report nothing
    hi[ROOT] = index.base_len
    index.sa = sa
    _set_columns(index, at, parent, array("i", cums), lo, hi,
                 gather(depths, ups))


def expand_edges(index: SuffixIndex) -> None:
    """Turn the suffix tree columns :func:`fill_from_suffix_array` gave a
    trie index into the trie's: tree node v becomes a chain of nodes, one
    per symbol of v's edge (one for the root), with consecutive ids, so a
    preorder stays one.  The chain's last node is v; every node of the
    chain has v's range, so its leftmost suffix too.

    The trie has one node more than the tree's edges have symbols, of
    order n² for n symbols: a caller that must bound it reads that
    first."""
    tree_cum = index.cum
    size = array("i", map(sub, tree_cum, gather(tree_cum, index.parent)))
    size[ROOT] = 1
    start = list(accumulate(size, initial=0))
    total = start[-1]
    last = list(map(sub, islice(start, 1, None), repeat(1)))
    parent = array("i", range(-1, total - 1))
    any(map(parent.__setitem__, islice(start, 1, len(size)),
            gather(last, index.parent[1:])))
    tops = list(map(add, tree_cum, repeat(1)))
    cum = array("i", chain.from_iterable(map(range, map(sub, tops, size),
                                             tops)))
    lo, hi = (array("i", chain.from_iterable(map(repeat, col, size)))
              for col in (index.leaf_lo, index.leaf_hi))
    _set_columns(index, (0,) + index.data, parent, cum, lo, hi,
                 chain((0,), map(sub, islice(cum, 1, None), repeat(1))))


def _set_columns(index: SuffixIndex, at: Sequence[int], parent: array,
                 cum: array, lo: array, hi: array, up: Iterable[int]) -> None:
    """Store the node columns and derive the edge symbols and the child
    table from them: ``at[p]`` is the symbol at data position p, ``up``
    each node's parent's depth, and an edge's first symbol follows it in
    the node's leftmost suffix."""
    sym = array("H", gather(at, list(map(add, gather(index.sa, lo), up))))
    sym[ROOT] = 0
    index.parent, index.cum, index.sym = parent, cum, sym
    index.fsym, index.cstart, index.cid, index.csym = child_table(parent, sym)
    index.leaf_lo, index.leaf_hi = lo, hi


# -- queries -----------------------------------------------------------


def descend(index: SuffixIndex, seq: Sequence[int]
            ) -> tuple[list[tuple[NodeId, int]], bool]:
    """Blind patricia descent along ``seq``'s discriminator symbols, from
    the root to the first node with cumulative skip >= ``len(seq)``.

    Returns the path as (node, cumulative skip) pairs, root included, and
    whether its last node covers ``seq``; False means the walk fell off
    there.  Skipped symbols are not compared: callers verify them.  For
    callers that read the whole path; :func:`navigate` keeps only its end.
    Both inline :meth:`SuffixIndex.child`."""
    fsym, cstart, cid, csym = index.fsym, index.cstart, index.cid, index.csym
    cums = index.cum
    m = len(seq)
    cur, cum = ROOT, 0
    path = [(ROOT, 0)]
    append = path.append
    while cum < m:
        c = seq[cum]
        first = fsym[cur]
        if first == c:
            cur += 1
        elif first == NO_SYM:
            return path, False
        else:
            try:
                cur = cid[csym.index(c, cstart[cur], cstart[cur + 1])]
            except ValueError:
                return path, False
        cum = cums[cur]
        append((cur, cum))
    return path, True


def navigate(index: SuffixIndex, seq: Sequence[int]
             ) -> tuple[NodeId, int, bool]:
    """The end of :func:`descend`'s walk, recording no path: the last node
    reached, its cumulative skip, and whether it covers ``seq``."""
    fsym, cstart, cid, csym = index.fsym, index.cstart, index.cid, index.csym
    cums = index.cum
    m = len(seq)
    cur, cum = ROOT, 0
    while cum < m:
        c = seq[cum]
        first = fsym[cur]
        if first == c:
            cur += 1
        elif first == NO_SYM:
            return cur, cum, False
        else:
            try:
                cur = cid[csym.index(c, cstart[cur], cstart[cur + 1])]
            except ValueError:
                return cur, cum, False
        cum = cums[cur]
    return cur, cum, True


def occurrences(index: SuffixIndex, nid: NodeId) -> list[int]:
    """Sorted 1-based text positions of all suffixes below ``nid`` of a
    stride-1 index, excluding the delimiter's: its range of the suffix
    array.  On a stride-k index with k > 1 these are data positions,
    which no query reports."""
    return sorted(index.sa[index.leaf_lo[nid]:index.leaf_hi[nid]])


def verify_against_text(index: SuffixIndex, nid: NodeId, pat: Pattern) -> bool:
    """Check the characters skipped during patricia navigation: true iff
    the node's label actually starts with the pattern."""
    r = index.sa[index.leaf_lo[nid]]
    if r + pat.m - 1 > len(index.data):
        return False
    return index.data[r - 1: r - 1 + pat.m] == pat.chars
