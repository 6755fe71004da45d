"""Binary container round-trips."""

import hashlib
import random
import struct
import time

import pytest

from parsuffix import (ALGORITHMS, Container, ContainerError, StepLedger,
                       build_ancestry, build_container, dump_container,
                       load_container, load_file, oracle_scan,
                       par_query_interleaved, par_query_tree2,
                       par_query_trie, save_file, seq_query)
from parsuffix.ancestry import AncestryError
from parsuffix.lanes import seq_map
from parsuffix.suffixindex import NO_PARENT
from parsuffix.textmodel import Pattern

from conftest import ABRA, fibonacci_text, naive_positions
from test_construction import IDS, TEXTS, TRIE_N


def same_nodes(a, b):
    assert len(a) == len(b)
    for nid in range(len(a)):
        assert (a.parent[nid], a.skip[nid], a.cum[nid], a.ref[nid],
                a.children(nid), a.leftmost_leaf_ref[nid], a.leaf_lo[nid],
                a.leaf_hi[nid]) == \
               (b.parent[nid], b.skip[nid], b.cum[nid], b.ref[nid],
                b.children(nid), b.leftmost_leaf_ref[nid], b.leaf_lo[nid],
                b.leaf_hi[nid])
    assert a.leaf_pos == b.leaf_pos


@pytest.mark.parametrize("kind,p", [("trie", 1), ("tree", 1),
                                    ("interleaved", 8)])
def test_roundtrip_structure(kind, p):
    cont = build_container(ABRA, kind, p)
    again = load_container(dump_container(cont))
    assert again.kind == kind and again.raw == ABRA and again.p == p
    if kind == "interleaved":
        for k in (1, 2, 4, 8):
            same_nodes(cont.layered.layers[k].tree,
                       again.layered.layers[k].tree)
        for k in (2, 4, 8):
            assert cont.layered.dicts[k].entries == \
                again.layered.dicts[k].entries
    else:
        same_nodes(cont.index, again.index)
        assert cont.dct.entries == again.dct.entries


def assert_preorder(index):
    """Node ids are the preorder of a walk that visits children in symbol
    order, and each node's children agree with their parent field."""
    order, stack = [], [0]
    while stack:
        nid = stack.pop()
        order.append(nid)
        syms = [c for c, _ in index.children(nid)]
        children = [child for _, child in index.children(nid)]
        assert syms == sorted(syms), nid
        assert all(index.parent[c] == nid for c in children), nid
        stack.extend(reversed(children))
    assert order == list(range(len(index)))


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_preorder_ids_and_exact_round_trip(raw):
    """Built and loaded indexes agree on every field (the build walk and
    the loader's column passes derive them two ways), ids are a preorder,
    and dump -> load -> dump gives the same bytes: tree, trie and
    interleaved p = 1, 2, 4, 8 on every text of ``test_construction``."""
    conts = [build_container(raw, "tree"),
             build_container(raw[:TRIE_N], "trie")]
    if raw:
        conts += [build_container(raw, "interleaved", p) for p in (1, 2, 4, 8)]
    for cont in conts:
        blob = dump_container(cont)
        again = load_container(blob)
        assert dump_container(again) == blob
        (built, built_dicts), (loaded, loaded_dicts) = \
            cont.blocks(), again.blocks()
        for a, b in zip(built, loaded, strict=True):
            assert_preorder(a)
            same_nodes(a, b)
        for a, b in zip(built_dicts, loaded_dicts, strict=True):
            assert a.entries == b.entries


def test_roundtrip_preserves_answers(tmp_path):
    queries = [b"ABRA", b"A", b"CAD", b"ABRD", b"ABRACADABRA"]
    tree = build_container(ABRA, "tree")
    trie = build_container(ABRA, "trie")
    ilv = build_container(ABRA, "interleaved", 4)
    for cont, name in ((tree, "t.idx"), (trie, "r.idx"), (ilv, "i.idx")):
        save_file(str(tmp_path / name), cont)
    tree2 = load_file(str(tmp_path / "t.idx"))
    trie2 = load_file(str(tmp_path / "r.idx"))
    ilv2 = load_file(str(tmp_path / "i.idx"))
    anc = build_ancestry(tree2.index)
    for q in queries:
        pat = Pattern.from_bytes(q)
        expected = naive_positions(ABRA, q)
        assert seq_query(tree2.index, pat).positions == expected
        if pat.m >= 2:
            assert par_query_trie(trie2.index, trie2.dct, pat, 2).positions \
                == expected
            assert par_query_tree2(tree2.index, anc, tree2.dct,
                                   pat).positions == expected
        assert par_query_interleaved(ilv2.layered, pat, 4).positions == \
            expected


def test_bad_magic():
    with pytest.raises(ContainerError):
        load_container(b"NOPE" + bytes(32))


def test_truncation_detected():
    blob = dump_container(build_container(b"AB", "tree"))
    with pytest.raises(ContainerError):
        load_container(blob[:-2])


@pytest.mark.parametrize("kind,p", [("tree", 1), ("trie", 1),
                                    ("interleaved", 4)])
def test_every_truncation_rejected(kind, p):
    """Every proper prefix of a container is a ``ContainerError``, cut in
    the header, the text, a node record, a child list or a dictionary
    block; the three containers take about 5 s together."""
    blob = dump_container(build_container(fibonacci_text(40), kind, p))
    t0 = time.perf_counter()
    for cut in range(len(blob)):
        with pytest.raises(ContainerError):
            load_container(blob[:cut])
    assert time.perf_counter() - t0 < 30.0


# SHA-256 of dump_container, pinned when container v2 (columns, node ids
# in preorder, a digest over the raw text and the dictionaries) came in.
GOLDEN_SHA256 = {
    ("abra", "tree"):
        "294836c3d626ffd59e9167a538882ebd4185d9d8587c496c12cafc33e9a07a8a",
    ("abra", "trie"):
        "89b0fe08ff426d0a0695565382eb587d63b82179eebc626a5c40907efcfa1a74",
    ("abra", "interleaved"):
        "de785fb222defb8b82cca01e0e696a8e4347151ec2b3a7bbdc50dfcdefa48891",
    ("fibonacci-300", "tree"):
        "62b04b079d02919b08897530c91833f66fa65e1a3075416ca63094325eef2a6d",
    ("fibonacci-300", "trie"):
        "fe861dc266f7fb9393ff3c5bdcac6a3b5af76cd3a5e6940de5bdb16f19c935fb",
    ("fibonacci-300", "interleaved"):
        "a52ded10aa9a3dad4339ed1bca2ee8592125537ddb0d36a55d704a9c84b5e7e6",
}


@pytest.mark.parametrize("text,kind", sorted(GOLDEN_SHA256))
def test_container_bytes_golden(text, kind):
    raw = ABRA if text == "abra" else fibonacci_text(300)
    cont = build_container(raw, kind, 4 if kind == "interleaved" else 1)
    blob = dump_container(cont)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[text, kind]
    assert dump_container(load_container(blob)) == blob


def test_unknown_kind_and_version():
    blob = bytearray(dump_container(build_container(b"AB", "tree")))
    blob[4] = 99                                   # version byte
    with pytest.raises(ContainerError):
        load_container(bytes(blob))
    blob[4] = 2
    blob[5] = 7                                    # kind byte
    with pytest.raises(ContainerError):
        load_container(bytes(blob))


def test_header_p_checked():
    """p is 1 for a trie or tree and a power of two for an interleaved
    index.  A loader that took p = 6 kept layers 1, 2 and 4 with
    ``Container.p == 6``, and one that took a tree with p = 1000 kept
    ``p == 1000``."""
    ilv = bytearray(dump_container(build_container(ABRA, "interleaved", 4)))
    tree = bytearray(dump_container(build_container(ABRA, "tree")))
    load_container(bytes(ilv))
    load_container(bytes(tree))
    with pytest.raises(ContainerError, match="p = 6"):
        load_container(patched(ilv, 6, "<I", 6))
    with pytest.raises(ContainerError, match="p = 1000"):
        load_container(patched(tree, 6, "<I", 1000))


def test_container_kind_validation():
    with pytest.raises(ContainerError):
        build_container(b"AB", "suffix-automaton")


# Offsets into build_container(b"abab", "tree"): the header (4 + 6 + 32
# + 8), the raw text (4), the index block's stride and count (8), then
# its parent, skip and ref columns (4 B per node each) and its sym column
# (2 B per node).  Its 8 nodes in preorder: 0 the root, 1 "ab" with the
# leaves 2 (abab$) and 3 (ab$), 4 "b" with the leaves 5 (bab$) and 6
# (b$), and 7 the leaf $.
ABAB_COLUMNS = 4 + 6 + 32 + 8 + 4 + 8
ABAB_NODES = 8
COLUMN_FMT = {"parent": "<i", "skip": "<I", "ref": "<I", "sym": "<H"}


def abab_blob():
    return bytearray(dump_container(build_container(b"abab", "tree")))


def patched(blob, offset, fmt, value):
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def column_offset(column, nid):
    """Byte offset of node ``nid``'s value in one column of the abab
    blob."""
    return ABAB_COLUMNS + 4 * ABAB_NODES * list(COLUMN_FMT).index(column) \
        + struct.calcsize(COLUMN_FMT[column]) * nid


def abab_patched(changes):
    """The abab blob with (column, node, value) changes."""
    blob = abab_blob()
    for column, nid, value in changes:
        struct.pack_into(COLUMN_FMT[column], blob, column_offset(column, nid),
                         value)
    return bytes(blob)


@pytest.mark.parametrize("child", [1, 999], ids=["cycle", "out-of-range"])
def test_bad_child_id_rejected(child):
    """Node 1 named as its own parent, or a parent id past the block."""
    with pytest.raises(ContainerError):
        load_container(abab_patched([("parent", 1, child)]))


def test_parent_disagreement_rejected():
    """Leaf 5 moved from node 4 to the root."""
    with pytest.raises(ContainerError):
        load_container(abab_patched([("parent", 5, 0)]))


def test_empty_edge_rejected():
    with pytest.raises(ContainerError):
        load_container(abab_patched([("skip", 1, 0)]))


def test_parent_after_child_rejected():
    """Leaf 2 hung below leaf 3: still one tree rooted at node 0, but a
    parent id after its child's."""
    with pytest.raises(ContainerError, match="at or after"):
        load_container(abab_patched([("parent", 2, 3)]))


def test_node_outside_its_parents_range_rejected():
    """Leaf 5 below leaf 3 and leaf 6 below leaf 5: every parent id is
    below its child's and every node's id is inside its parent's range,
    but node 5's range (5 and 6) runs past node 3's (3 to 5), so the ids
    are no preorder: node 3's subtree is not contiguous."""
    with pytest.raises(ContainerError, match="outside its parent"):
        load_container(abab_patched([("parent", 5, 3), ("parent", 6, 5)]))


def test_siblings_sharing_a_symbol_rejected():
    """The root's child $ relabelled 'a', the symbol of its sibling 1."""
    with pytest.raises(ContainerError, match="share a symbol"):
        load_container(abab_patched([("sym", 7, ord("a"))]))


def test_version_1_rejected_with_rebuild_hint():
    """Version 1 stored node ids in build order; it is not read."""
    blob = abab_blob()
    blob[4] = 1
    with pytest.raises(ContainerError, match="rebuild"):
        load_container(bytes(blob))


def test_raw_text_change_caught_by_digest():
    """ABRACADABRA with its second A made X keeps every edge symbol and
    leaf depth of the tree consistent; only the digest catches it."""
    blob = bytearray(dump_container(build_container(ABRA, "tree")))
    blob[4 + 6 + 32 + 8 + 3] = ord("X")
    with pytest.raises(ContainerError, match="digest"):
        load_container(bytes(blob))


def test_trailing_bytes_rejected():
    for kind, p in (("tree", 1), ("interleaved", 2)):
        blob = dump_container(build_container(b"abab", kind, p))
        load_container(blob)
        with pytest.raises(ContainerError):
            load_container(blob + b"\0")


def test_tree_missing_a_suffix_rejected():
    """ABRACADABRA's tree without the leaf of suffix 1, ids renumbered:
    every structural check passes, and a loader that took it answered
    ABRA with (8,) where the text has (1, 8)."""
    cont = build_container(ABRA, "tree")
    index = cont.index
    gone = next(nid for nid in range(len(index))
                if not index.children(nid) and index.ref[nid] == 1)

    def renum(nid):
        return nid - (nid > gone)

    for nid in range(len(index)):
        if index.parent[nid] != NO_PARENT:
            index.parent[nid] = renum(index.parent[nid])
    for field in (index.parent, index.skip, index.cum, index.ref,
                  index.leftmost_leaf_ref, index.sym):
        del field[gone]
    cont.dct.entries = {renum(a) << 32 | renum(b): renum(w)
                        for (a, b), w in cont.dct.pairs()
                        if gone not in (a, b, w)}
    with pytest.raises(ContainerError, match="suffixes"):
        load_container(dump_container(cont))


def split_first_long_edge(index):
    """Split the first edge of two symbols or more after its first symbol
    by a new node with one child.  The new node takes the child's id and
    the ids from there on move up by one, so they stay a preorder; returns
    the new node's id."""
    mid = next(nid for nid in range(1, len(index)) if index.skip[nid] > 1)
    parent, lref = index.parent[mid], index.leftmost_leaf_ref[mid]
    depth = index.cum[parent]
    for nid, par in enumerate(index.parent):
        index.parent[nid] = shifted(par, mid)
    for field, value in ((index.parent, parent), (index.skip, 1),
                         (index.cum, depth + 1), (index.ref, 0),
                         (index.leftmost_leaf_ref, lref),
                         (index.sym, index.sym[mid])):
        field.insert(mid, value)
    index.sym[mid + 1] = index.data[lref + depth]
    index.parent[mid + 1] = mid
    index.skip[mid + 1] -= 1
    return mid


def shifted(nid, mid):
    """A node id after a new node took id ``mid``."""
    return nid + (nid >= mid)


def shift_pairs(d, mid):
    """Renumber a pair dictionary's nodes after a new node took id
    ``mid`` in the index its pairs (and, if ``d.target`` is that index,
    its values) refer to."""
    moved = d.target is d.owner
    d.entries = {shifted(a, mid) << 32 | shifted(b, mid):
                 shifted(w, mid) if moved else w for (a, b), w in d.pairs()}


def one_child_tree_container():
    """ABRACADABRA's tree with one edge split by a one-child node, which
    the dictionary maps from a pair of its own.  Every other check passes:
    a loader without the branching check took it."""
    cont = build_container(ABRA, "tree")
    mid = split_first_long_edge(cont.index)
    shift_pairs(cont.dct, mid)
    cont.dct.entries[mid << 32] = mid
    return cont


@pytest.mark.parametrize("kind", ["tree", "interleaved"])
def test_tree_node_with_one_child_rejected(kind):
    """A non-root inner node of a tree (here the plain tree, or the top
    layer of an interleaved p=2 index, which no dictionary targets) must
    branch."""
    if kind == "tree":
        cont = one_child_tree_container()
    else:
        cont = build_container(ABRA, kind, 2)
        shift_pairs(cont.layered.dicts[2],
                    split_first_long_edge(cont.layered.layers[2].tree))
    with pytest.raises(ContainerError, match="one child"):
        load_container(dump_container(cont))


@pytest.mark.parametrize("stride", [2, 0, 2_000_000])
def test_tree_block_with_wrong_stride_rejected(stride):
    """A tree block's stride must be 1.  A loader that trusted it loaded
    stride 2 and answered ``ab`` on abab with (), raised a bare
    ``ValueError`` for stride 0 and built 2 000 000 delimiters before any
    check for the last one."""
    cont = build_container(b"abab", "tree")
    cont.index.stride = stride
    with pytest.raises(ContainerError, match="stride"):
        load_container(dump_container(cont))


@pytest.mark.parametrize("k,stride", [(1, 2), (2, 4), (4, 2)])
def test_layer_block_with_wrong_stride_rejected(k, stride):
    cont = build_container(b"abab", "interleaved", 4)
    cont.layered.layers[k].tree.stride = stride
    with pytest.raises(ContainerError, match="stride"):
        load_container(dump_container(cont))


def _dict_triples(blob, cont):
    """Byte offset of the tree or trie container's first dictionary
    triple."""
    return len(blob) - 12 * len(cont.dct)


def test_repeated_dictionary_key_rejected():
    """The second triple takes the first one's pair.  A loader that let
    ``PairDict.add`` see it escaped with a ``PairDictError`` traceback."""
    cont = build_container(ABRA, "tree")
    blob = bytearray(dump_container(cont))
    off = _dict_triples(blob, cont)
    blob[off + 12:off + 20] = blob[off:off + 8]
    with pytest.raises(ContainerError, match="pair .* twice"):
        load_container(bytes(blob))


def test_repeated_dictionary_target_rejected():
    """Two pairs map to one node, so another node has none."""
    cont = build_container(ABRA, "tree")
    blob = bytearray(dump_container(cont))
    off = _dict_triples(blob, cont)
    blob[off + 20:off + 24] = blob[off + 8:off + 12]
    with pytest.raises(ContainerError, match="node .* twice"):
        load_container(bytes(blob))


def test_trie_block_holding_a_tree_rejected():
    """ABRACADABRA's tree container with its kind byte set to trie: a
    loader that took it answered trie-par p=2 with () for ABRA."""
    blob = bytearray(dump_container(build_container(ABRA, "tree")))
    blob[5] = 0
    with pytest.raises(ContainerError, match="in a trie"):
        load_container(bytes(blob))


FLIP_TEXT = b"ABRACADABRAXABRACAD"
FLIP_PATTERNS = [b"A", b"AB", b"RA", b"ABRA", b"CAD", b"BRAX", b"ACADA",
                 b"ABRACAD", b"DABRAXAB", b"ABRD", b"XX",
                 b"RACADABRAXABRA"]


def _answers_like_the_oracle(cont):
    """Every registry algorithm of the container's kind, at lane counts 2
    and 4 where it takes one, answers FLIP_PATTERNS as ``oracle_scan``;
    a tree-par2 ``AncestryError`` (reported by the CLI) also passes."""
    for algo in ALGORITHMS.values():
        if cont.kind not in algo.kinds:
            continue
        for param in ((2, 4) if algo.lane else (None,)):
            for q in FLIP_PATTERNS:
                pat = Pattern.from_bytes(q)
                if algo.unusable(pat, param, cont):
                    continue
                try:
                    res = algo.run(cont, pat, param, StepLedger(), seq_map)
                except AncestryError:
                    assert algo.name == "tree-par2"
                    return
                assert res.positions == oracle_scan(FLIP_TEXT, pat), \
                    (algo.name, param, q)


@pytest.mark.parametrize("kind,p", [("tree", 1), ("trie", 1),
                                    ("interleaved", 4)])
def test_single_byte_changes_rejected_or_harmless(kind, p):
    """Seeded single-byte changes.  One to the header fields after the
    magic or to the index blocks is rejected with ``ContainerError`` or
    answers exactly as the oracle.  One to the raw text or the dictionary
    blocks, where a changed text symbol can keep every edge consistent
    and a changed pair can keep every count, never loads: the digest
    covers both."""
    cont = build_container(FLIP_TEXT, kind, p)
    blob = dump_container(cont)
    trees = [cont.index] if cont.index else \
        [layer.tree for layer in cont.layered.layers.values()]
    text = 4 + 6 + 32 + 8
    blocks = text + len(FLIP_TEXT)
    # an index block: stride and count, then 14 bytes per node
    dicts = blocks + sum(8 + 14 * len(t) for t in trees)
    checked = list(range(4, text)) + list(range(blocks, dicts))
    digested = list(range(text, blocks)) + list(range(dicts, len(blob)))
    rng = random.Random(9)
    for offsets in (checked, digested):
        for _ in range(300):
            off = rng.choice(offsets)
            mutant = bytearray(blob)
            mutant[off] = (mutant[off] + rng.randrange(1, 256)) % 256
            try:
                got = load_container(bytes(mutant))
            except ContainerError:
                continue
            assert offsets is checked, off
            _answers_like_the_oracle(got)
