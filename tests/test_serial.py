"""Binary container round-trips."""

import hashlib
import itertools
import random
import struct
import time

import pytest

from parsuffix import (ALGORITHMS, Container, ContainerError, StepLedger,
                       build_ancestry, build_container, dump_container,
                       load_container, load_file, oracle_scan,
                       par_query_interleaved, par_query_tree2,
                       par_query_trie, save_file, seq_query, serial)
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


# SHA-256 of dump_container, pinned when container v3 (each index block
# its suffix array, a digest over the raw text and the dictionaries) came
# in.
GOLDEN_SHA256 = {
    ("abra", "tree"):
        "7adf8f7d849fbfc52b96c38627cede2c447958baab15d33a2e868e51ab30a745",
    ("abra", "trie"):
        "18f9575da66216379f6ee8aa964754fc236309ffa257dd4749df8fa17a148eea",
    ("abra", "interleaved"):
        "6918485f6fc936856a7bb2ed10b6aacf2308b58ced70aacf912b8280c0545aaf",
    ("fibonacci-300", "tree"):
        "4a681757bd56a8a8f593e4579e78a70be10172481ae3c45e4c889ab23f0b3470",
    ("fibonacci-300", "trie"):
        "a9eb4a44a0b329d088d27e8ed74db85e4abc9a96282bd5b74c14dfc252df22ab",
    ("fibonacci-300", "interleaved"):
        "e0a20b1dde66884450c427d4eec13ab1a3c303c0249adb9fa80132748abef441",
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
    blob[4] = serial.VERSION
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
# + 8), the raw text (4) and the index block's stride (4), then the
# suffix array of abab$, 4 B per entry: 1 (abab$), 3 (ab$), 2 (bab$),
# 4 (b$), 5 ($).
ABAB_SA = 4 + 6 + 32 + 8 + 4 + 4
ABAB_SUFFIXES = [1, 3, 2, 4, 5]


def abab_blob():
    return bytearray(dump_container(build_container(b"abab", "tree")))


def patched(blob, offset, fmt, value):
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def abab_with_suffix_array(entries):
    blob = abab_blob()
    struct.pack_into("<5i", blob, ABAB_SA, *entries)
    return bytes(blob)


def test_every_wrong_suffix_array_rejected():
    """Each of the 119 other orders of abab$'s suffixes is a tree with
    leaves moved or swapped: every one is a ``ContainerError``."""
    blob = abab_blob()
    assert list(struct.unpack_from("<5i", blob, ABAB_SA)) == ABAB_SUFFIXES
    load_container(abab_with_suffix_array(ABAB_SUFFIXES))
    for order in itertools.permutations(ABAB_SUFFIXES):
        if list(order) == ABAB_SUFFIXES:
            continue
        with pytest.raises(ContainerError, match="suffix order"):
            load_container(abab_with_suffix_array(order))


@pytest.mark.parametrize("entry,message", [
    (2, "twice"), (0, "outside"), (6, "outside"), (-1, "outside")],
    ids=["duplicate", "zero", "past-the-end", "negative"])
def test_bad_suffix_array_entry_rejected(entry, message):
    """The suffix array's last entry (the suffix $) replaced: a position
    held twice, or none of abab$'s five."""
    with pytest.raises(ContainerError, match=message):
        load_container(abab_with_suffix_array(ABAB_SUFFIXES[:4] + [entry]))


def test_every_swap_in_every_layer_rejected():
    """Every two entries of every index block of ABRACADABRA's
    interleaved p=4 container swapped: all rejected."""
    cont = build_container(ABRA, "interleaved", 4)
    blob = dump_container(cont)
    off = 4 + 6 + 32 + 8 + len(ABRA)
    for tree in cont.blocks()[0]:
        n = len(tree.data)
        for i, j in itertools.combinations(range(n), 2):
            mutant = bytearray(blob)
            a, b = off + 4 + 4 * i, off + 4 + 4 * j
            mutant[a:a + 4], mutant[b:b + 4] = blob[b:b + 4], blob[a:a + 4]
            with pytest.raises(ContainerError, match="suffix order"):
                load_container(bytes(mutant))
        off += 4 + 4 * n
    assert off + 4 + 12 * len(cont.layered.dicts[2]) < len(blob)


def test_version_1_rejected_with_rebuild_hint():
    """Version 1 stored node ids in build order and version 2 four
    columns per node; neither is read."""
    for version in (1, 2):
        blob = abab_blob()
        blob[4] = version
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
    """ABRACADABRA's tree without the leaf of suffix 1, ids renumbered,
    and its dictionary with them: a container version 2 loader took it
    and answered ABRA with (8,) where the text has (1, 8).  Version 3
    writes the suffix array, so the loaded tree has every suffix, and the
    dictionary, renumbered for the smaller tree, is one entry short."""
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
    with pytest.raises(ContainerError, match="dictionary has 15 entries "
                                             "for 16 non-root nodes"):
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
    the dictionary maps from a pair of its own.  A container version 2
    loader without the branching check took it."""
    cont = build_container(ABRA, "tree")
    mid = split_first_long_edge(cont.index)
    shift_pairs(cont.dct, mid)
    cont.dct.entries[mid << 32] = mid
    return cont


def assert_branching(tree):
    """Every inner node but the root has two children or more."""
    for nid in range(1, len(tree)):
        assert len(tree.children(nid)) != 1, nid


def one_child_layer_container():
    """ABRACADABRA's interleaved p=2 index with an edge of layer 1 split
    by a one-child node, which layer 2's dictionary maps from a pair of
    its own."""
    cont = build_container(ABRA, "interleaved", 2)
    d = cont.layered.dicts[2]
    mid = split_first_long_edge(d.target)
    d.entries = {key: shifted(w, mid) for key, w in d.entries.items()}
    d.entries[next(key for key in itertools.count()
                   if key not in d.entries)] = mid
    return cont


@pytest.mark.parametrize("kind", ["tree", "interleaved"])
def test_tree_node_with_one_child_rejected(kind):
    """A non-root inner node of a tree (here the plain tree, or layer 1
    of an interleaved p=2 index) must branch.  The container holds
    suffix arrays, and a tree derived from one branches by construction,
    so the one-child node never reaches the loaded index: the dictionary
    that maps it is one entry too long."""
    cont = (one_child_tree_container() if kind == "tree"
            else one_child_layer_container())
    nodes = len(build_container(ABRA, kind, 2 if kind == "interleaved" else 1)
                .blocks()[0][0]) - 1
    with pytest.raises(ContainerError, match="dictionary has %d entries "
                                             "for %d non-root" % (nodes + 1,
                                                                   nodes)):
        load_container(dump_container(cont))


def test_layer_node_with_one_child_not_written():
    """A one-child node in the top layer of an interleaved p=2 index,
    which no dictionary targets: the container holds the layer's suffix
    array only, so the file is the one the index without the node gives,
    and every loaded layer branches."""
    cont = build_container(ABRA, "interleaved", 2)
    blob = dump_container(cont)
    split_first_long_edge(cont.layered.layers[2].tree)
    assert dump_container(cont) == blob
    for tree in load_container(blob).blocks()[0]:
        assert_branching(tree)


@pytest.mark.xfail(strict=True, reason="a dictionary block is checked for "
                   "its size, ranges and distinctness only (ROADMAP item 3)")
def test_shifted_layer_dictionary_rejected():
    """Layer 2's dictionary of ABRACADABRA's p=2 index with its pair ids
    shifted as a one-child node in layer 2 would shift them.  The
    container loads, and interleaved j=2 answers ``AB`` with ()."""
    cont = build_container(ABRA, "interleaved", 2)
    shift_pairs(cont.layered.dicts[2],
                split_first_long_edge(cont.layered.layers[2].tree))
    with pytest.raises(ContainerError):
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
    loader that took it answered trie-par p=2 with () for ABRA.  The
    suffix array gives the trie of the text, whose node count the tree's
    dictionary does not match."""
    blob = bytearray(dump_container(build_container(ABRA, "tree")))
    blob[5] = 0
    with pytest.raises(ContainerError, match="dictionary has 16 entries "
                                             "for 66 non-root nodes"):
        load_container(bytes(blob))


def test_trie_size_checked_before_expansion():
    """The same flip on a tree of 3000 random symbols: its suffix array
    stands for a trie of about 4.5 million nodes.  A loader that expanded
    the trie before comparing its size with the dictionary's spent
    seconds and hundreds of MB on it before the error."""
    raw = bytes(random.Random(7).choices(b"ACGT", k=3000))
    blob = bytearray(dump_container(build_container(raw, "tree")))
    blob[5] = 0
    t0 = time.perf_counter()
    with pytest.raises(ContainerError, match="dictionary has"):
        load_container(bytes(blob))
    assert time.perf_counter() - t0 < 1.0


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
    # an index block: its stride, then 4 bytes per data symbol
    dicts = blocks + sum(4 + 4 * len(t.data) for t in trees)
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
