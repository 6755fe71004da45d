"""Suffix tries and patricia-compressed suffix trees over a static text.

Both index kinds share one struct-of-arrays node store
(:class:`SuffixIndex`), after the enhanced suffix array's tables of
Abouelhoda, Kurtz & Ohlebusch (2004): a node is an id into a few
``array`` fields, not an object, the ids of a finished index are a
preorder, children in symbol order, and an inner node's children are
the next id and a range of one flat child table.  A node's incoming edge is described only by its first
(discriminator) character and its length (``skip``); the full label is
recovered from the indexed symbol sequence via ``leftmost_leaf_ref``.
Navigation therefore compares only discriminator characters, and
callers must verify skipped characters against the text before trusting
a match (patricia semantics).

A text with k delimiters is indexed as its k interleaved subsequences
(the interleaved layers; k = 1 is the plain text): they are concatenated
into one ``data`` array and suffixes stay within their own subsequence.
Each subsequence ends with a unique delimiter, so no suffix is a prefix
of another.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, ne
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

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
    node id (the root is node 0; :meth:`finalize` numbers the nodes in
    preorder):

    - ``parent`` (``NO_PARENT`` for the root), ``skip`` (incoming edge
      length in symbols, 0 for the root), ``cum`` (cumulative skip, root
      to node), ``ref`` (a leaf's 1-based suffix start in ``data``, 0 for
      none) and ``leftmost_leaf_ref`` (the 1-based data position of one
      suffix below) are ``array("i")``s, 4 bytes per node each;
    - ``sym`` is the first symbol of the node's incoming edge (0 for the
      root) and ``fsym`` that of its first child's (:data:`NO_SYM` for a
      leaf), ``array("H")``s: the symbols, delimiters included, must fit
      16 bits, as in the container, and stay below ``NO_SYM``;
    - the child table: in preorder an inner node's first child is the
      next id, so the table lists only the later children: node v's are
      ``cid[cstart[v]:cstart[v + 1]]`` in symbol order, with their edge
      symbols at the same places of ``csym`` (``cstart`` has one entry
      more than there are nodes).

    A lookup compares ``fsym`` (one read, the whole lookup on a unary
    chain) and only then searches the node's later children with
    ``csym.index``.  :meth:`child` does that and :meth:`children` lists
    them all; the query loops inline the lookup.

    A finished index is a handful of arrays: no object per node, and
    nothing CPython's collector tracks per node.  The two symbol columns
    and ``cstart`` cost 8 B per node, a later child 6 B more.  A suffix
    tree of a random binary text of 16000 symbols holds about 46 B per
    node in all, a suffix trie of 200 symbols about 38 (tracemalloc,
    CPython 3.11); with a child dict per node they held 183 and 287.

    While a builder adds nodes, ``child_maps`` holds one symbol -> child
    dict per node (None for a leaf the builder will not extend);
    :meth:`finalize` derives the table from them and drops them.

    ``stride`` is the text's delimiter count k and ``base_len`` its length
    without them.  ``data`` is the concatenation of the text's k
    interleaved subsequences (just the text symbols for k = 1), and
    ``seq_starts`` holds the 1-based data position where each subsequence
    begins; leaf refs map back to text positions through both.
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
        self.parent = array("i", [NO_PARENT])
        self.skip = array("i", [0])
        self.cum = array("i", [0])
        self.ref = array("i", [0])
        self.leftmost_leaf_ref = array("i", [0])
        self.child_maps: Optional[list[Optional[dict[int, NodeId]]]] = [{}]
        # the child table, built by finalize() or the container loader
        self.sym = array("H")
        self.fsym = array("H")
        self.cstart = array("i")
        self.cid = array("i")
        self.csym = array("H")
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
        ``ref`` is a leaf of a suffix tree and gets no child map."""
        nid = len(self.cum)
        self.parent.append(parent)
        self.skip.append(skip)
        self.cum.append(self.cum[parent] + skip)
        self.ref.append(ref)
        self.leftmost_leaf_ref.append(lref)
        self.child_maps.append(None if ref else {})
        return nid

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
        build what the walk gives: each node's edge symbol, the child
        table, leftmost leaf refs and the reporting range.

        In preorder a parent's id is below its children's, each subtree
        is one contiguous id range, and a node's first child is the next
        id.  ``leaf_pos`` lists the text positions of the reported leaves
        (those with a suffix ref that starts in the text, not in the
        delimiter tail) in leaf order; ``leaf_pos[leaf_lo[v]:leaf_hi[v]]``
        are the ones below node ``v``.  The child maps are dropped, so
        the index is not built further after this."""
        maps = self.child_maps
        ref = self.ref
        n = len(maps)
        tpos = self.text_positions()
        base_len = self.base_len
        order = [ROOT]                 # old id of each new id
        parent = [NO_PARENT]           # by new id
        sym = array("H", [0])          # by new id
        lo = array("i", bytes(4 * n))
        hi = array("i", lo)
        lref = array("i", lo)
        pos = array("i")
        pending = [ROOT]              # visited, leftmost leaf not yet seen
        # The node being expanded: its new id, its child map and its
        # symbols still to visit; the frames hold the same for its
        # ancestors.
        top, kids = ROOT, maps[ROOT]
        syms = iter(sorted(kids))
        frames = []
        while True:
            for c in syms:
                old = kids[c]
                nid = len(order)
                order.append(old)
                parent.append(top)
                sym.append(c)
                lo[nid] = len(pos)
                grand = maps[old]
                maps[old] = None          # the old map is freed once walked
                if grand:
                    frames.append((top, kids, syms))
                    top, kids = nid, grand
                    syms = iter(sorted(grand) if len(grand) > 1 else grand)
                    pending.append(nid)
                    break
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
                top, kids, syms = frames.pop()
        self.parent = array("i", parent)
        self.skip, self.cum, self.ref = (array("i", gather(field, order))
                                         for field in (self.skip, self.cum, ref))
        self.child_maps = None
        self.sym = sym
        self.fsym, self.cstart, self.cid, self.csym = child_table(self.parent,
                                                                  sym)
        self.leftmost_leaf_ref = lref
        self.leaf_pos, self.leaf_lo, self.leaf_hi = pos, lo, hi


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


def _suffix_ranges(index: SuffixIndex) -> list[tuple[int, int]]:
    starts = list(index.seq_starts) + [len(index.data) + 1]
    return [(starts[i], starts[i + 1] - 1) for i in range(len(starts) - 1)]


def build_suffix_trie(text: Text) -> SuffixIndex:
    """Suffix trie by direct suffix insertion: one node per distinct
    nonempty substring, all skip values 1."""
    if len(text) < 1:
        raise ValueError("text must be nonempty")
    idx = SuffixIndex(text, "trie")
    children = idx.child_maps
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
    children = idx.child_maps
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
    maps = idx.child_maps
    maps[cur][idx.data[lref - 1 + cum[cur]]] = mid
    idx.parent[child] = mid
    idx.skip[child] = cum[child] - depth
    maps[mid][idx.data[lref - 1 + depth]] = child
    return mid


def _scan(idx: SuffixIndex, cur: NodeId, s: int, e: int) -> NodeId:
    """Insert suffix data[s .. e], whose first ``cum(cur)`` symbols spell
    ``cur``, comparing symbols from there on; returns the suffix's head."""
    cum = idx.cum
    children = idx.child_maps
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
