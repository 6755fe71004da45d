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


def same_nodes(a, b):
    assert len(a) == len(b)
    for nid in range(len(a)):
        assert (a.parent[nid], a.skip[nid], a.cum[nid], a.ref[nid],
                a.children[nid], a.leftmost_leaf_ref[nid]) == \
               (b.parent[nid], b.skip[nid], b.cum[nid], b.ref[nid],
                b.children[nid], b.leftmost_leaf_ref[nid])


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


# SHA-256 of dump_container, pinned before the nodes moved from one
# object each into per-field arrays: container v1 and node ids survive.
GOLDEN_SHA256 = {
    ("abra", "tree"):
        "056b184963a68bcd3ed4969b9426d960f9a9114a76157d584dbfe29513fb07e0",
    ("abra", "trie"):
        "74efc6da61aed63d16a59083d60e3085eab3ba17e5d97497a4d353d32840e169",
    ("abra", "interleaved"):
        "3c36b9232d7a17fff300cbc7c5b8edbd79f7d223a686aa613b1cb2cc07f63627",
    ("fibonacci-300", "tree"):
        "e1fd84654b5833655349640e451bb96accd62df4952ff8bb0fa04cc33d2744e1",
    ("fibonacci-300", "trie"):
        "1ac0d1762e390c5576238426975014a7da942f9d91b21aeb6cbcc07464fe83e6",
    ("fibonacci-300", "interleaved"):
        "5c129346c562dee528ad0401079a62d161f4daa29c0e2c531ba5ceede2851405",
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
    blob[4] = 1
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


# Offsets into build_container(b"abab", "tree"): header (4 + 6 + 8), the
# raw text (4), the index block's stride and count (8), then node 0's
# fields (14) and its first (symbol u16, child id u32) pair.
ABAB_NODE0 = 4 + 6 + 8 + 4 + 8
ABAB_ROOT_CHILD0 = ABAB_NODE0 + 14 + 2


def abab_blob():
    return bytearray(dump_container(build_container(b"abab", "tree")))


def patched(blob, offset, fmt, value):
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


@pytest.mark.parametrize("child", [0, 999], ids=["cycle", "out-of-range"])
def test_bad_child_id_rejected(child):
    blob = patched(abab_blob(), ABAB_ROOT_CHILD0, "<I", child)
    with pytest.raises(ContainerError):
        load_container(blob)


def _node_offset(blob, nid):
    """Byte offset of node ``nid``'s fixed fields in the abab blob."""
    off = ABAB_NODE0
    for _ in range(nid):
        nchild = struct.unpack_from("<H", blob, off + 12)[0]
        off += 14 + 6 * nchild
    return off


def test_parent_disagreement_rejected():
    blob = abab_blob()
    child = struct.unpack_from("<I", blob, ABAB_ROOT_CHILD0)[0]
    other = 2 if child == 1 else 1
    with pytest.raises(ContainerError):
        load_container(patched(blob, _node_offset(blob, child), "<I", other))


def test_empty_edge_rejected():
    blob = abab_blob()
    child = struct.unpack_from("<I", blob, ABAB_ROOT_CHILD0)[0]
    with pytest.raises(ContainerError):
        load_container(patched(blob, _node_offset(blob, child) + 4, "<I", 0))


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
    gone = next(nid for nid, children in enumerate(index.children)
                if not children and index.ref[nid] == 1)

    def renum(nid):
        return nid - (nid > gone)

    for nid, children in enumerate(index.children):
        index.children[nid] = {sym: renum(c) for sym, c in children.items()
                               if c != gone}
        if index.parent[nid] != NO_PARENT:
            index.parent[nid] = renum(index.parent[nid])
    for field in (index.parent, index.skip, index.cum, index.ref,
                  index.leftmost_leaf_ref, index.children):
        del field[gone]
    cont.dct.entries = {renum(a) << 32 | renum(b): renum(w)
                        for (a, b), w in cont.dct.pairs()
                        if gone not in (a, b, w)}
    with pytest.raises(ContainerError, match="suffixes"):
        load_container(dump_container(cont))


def split_first_long_edge(index):
    """Split the first edge of two symbols or more after its first symbol
    by a new node with one child, appended as the last id; returns it."""
    child = next(nid for nid in range(1, len(index)) if index.skip[nid] > 1)
    parent, lref = index.parent[child], index.leftmost_leaf_ref[child]
    depth = index.cum[parent]
    mid = len(index)
    for field, value in ((index.parent, parent), (index.skip, 1),
                         (index.cum, depth + 1), (index.ref, 0),
                         (index.leftmost_leaf_ref, lref)):
        field.append(value)
    index.children.append({index.data[lref + depth]: child})
    index.children[parent][index.data[lref - 1 + depth]] = mid
    index.parent[child] = mid
    index.skip[child] -= 1
    return mid


def one_child_tree_container():
    """ABRACADABRA's tree with one edge split by a one-child node, which
    the dictionary maps from a pair of its own.  Every other check passes:
    a loader without the branching check took it."""
    cont = build_container(ABRA, "tree")
    mid = split_first_long_edge(cont.index)
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
        split_first_long_edge(cont.layered.layers[2].tree)
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
    """Seeded single-byte changes to the header fields after the magic
    and to the index blocks: each mutant is rejected with
    ``ContainerError`` or answers exactly as the oracle.  The raw text
    and the dictionary pairs are not covered: a changed text symbol can
    keep every edge consistent, and a changed pair needs a checksum."""
    cont = build_container(FLIP_TEXT, kind, p)
    blob = dump_container(cont)
    trees = [cont.index] if cont.index else \
        [layer.tree for layer in cont.layered.layers.values()]
    blocks = 4 + 14 + len(FLIP_TEXT)
    # an index block: stride and count, then 14 bytes per node and 6 per
    # child entry, one entry per non-root node
    end = blocks + sum(8 + 20 * len(t) - 6 for t in trees)
    offsets = list(range(4, 18)) + list(range(blocks, end))
    rng = random.Random(9)
    for _ in range(300):
        off = rng.choice(offsets)
        mutant = bytearray(blob)
        mutant[off] = (mutant[off] + rng.randrange(1, 256)) % 256
        try:
            got = load_container(bytes(mutant))
        except ContainerError:
            continue
        _answers_like_the_oracle(got)
