"""Layered k-interleaved suffix trees and the layered parallel query."""

import math
import random

import pytest

from parsuffix import (ParameterError, StepLedger, build_layer,
                       build_layer_dict, build_layered_index,
                       deinterleave_paths, par_query_interleaved,
                       par_query_interleaved_threaded)
from parsuffix.halving import probe
from parsuffix.suffixindex import ROOT, descend
from parsuffix.textmodel import (Pattern, deinterleave2, interleave,
                                 is_delimiter, make_text)

from conftest import ABRA, find_exact, naive_positions, random_text


def node_label(tree, nid):
    r = tree.leftmost_leaf_ref[nid]
    return tree.data[r - 1: r - 1 + tree.cum[nid]]


def test_layer2_subsequences():
    layer = build_layer(ABRA, 2)
    seqs = interleave(make_text(ABRA, 2).symbols, 2)
    assert bytes(seqs[0][:-1]) == b"ARCDBA"
    assert bytes(seqs[1][:-1]) == b"BAAAR"


def test_nondelimiter_leaf_equality():
    """Each layer has exactly one non-delimiter-tail leaf per text
    position (= n), for every k."""
    n = len(ABRA)
    for k in (1, 2, 4, 8):
        tree = build_layer(ABRA, k).tree
        good = sum(1 for nid, ref in enumerate(tree.ref)
                   if not tree.children(nid) and ref
                   and tree.data_pos_to_text_pos(ref) <= n)
        assert good == n, k


def test_layer_height_bound():
    for raw in (ABRA, b"AAAAAAAA", b"ABAB"):
        n = len(raw)
        for k in (1, 2, 4, 8):
            tree = build_layer(raw, k).tree
            height = max(tree.cum)
            assert height <= -(-(n + k) // k), (raw, k)


def test_split_parity_of_layer_dict():
    idx = build_layered_index(ABRA, 4)
    for upper_k, d in idx.dicts.items():
        up = idx.layers[upper_k].tree
        low = d.target
        stored = {w: (a, b) for (a, b), w in d.pairs()}
        for nid in range(1, len(low)):
            a, b = stored[nid]
            short_len = low.shortest_len(nid)
            l1, l2 = (short_len + 1) // 2, short_len // 2
            # the stored nodes cover the halves: cum >= half length and the
            # parent (if any) falls short
            for node, need in ((a, l1), (b, l2)):
                assert up.cum[node] >= need
                if node != ROOT:
                    parent = up.parent[node]
                    assert up.cum[parent] < need


def test_layer_dict_golden():
    idx = build_layered_index(ABRA, 2)
    up = idx.layers[2].tree
    low = idx.layers[1].tree
    a = find_exact(up, tuple(b"A"))
    ba = find_exact(up, tuple(b"BA"))
    abra = probe(idx.dicts[2], a, ba)
    assert bytes(node_label(low, abra)) == b"ABRA"
    # the one-char lower node "A" pairs the upper "A" with the root
    assert probe(idx.dicts[2], a, ROOT) is not None
    assert len(idx.dicts[2]) == len(low) - 1


def test_dict_requires_adjacent_layers():
    l1, l4 = build_layer(ABRA, 1), build_layer(ABRA, 4)
    with pytest.raises(ParameterError):
        build_layer_dict(l4, l4)
    with pytest.raises(ParameterError):
        build_layer_dict(l4, l1)


def test_deinterleave_paths_golden():
    idx = build_layered_index(ABRA, 2)
    up = idx.layers[2].tree
    p1, ok1 = descend(up, tuple(b"AR"))
    p2, ok2 = descend(up, tuple(b"BA"))
    assert ok1 and ok2
    merged, probes = deinterleave_paths(p1, p2, idx.dicts[2])
    labels = [bytes(node_label(idx.layers[1].tree, nid))
              for nid, _ in merged]
    assert labels == [b"A", b"ABRA"]
    assert probes <= 2 * (len(p1) + len(p2))


def test_path_recovery_property():
    """Merged layer-(k/2) paths equal the recorded navigation path of the
    deinterleaved subsequence, up to its covering node."""
    rng = random.Random(3)
    for _ in range(25):
        raw = random_text(rng, rng.randrange(2, 60), rng.choice([1, 2, 3]))
        idx = build_layered_index(raw, 2)
        up, low = idx.layers[2].tree, idx.layers[1].tree
        m = rng.randrange(1, len(raw) + 1)
        i = rng.randrange(0, len(raw) - m + 1)
        q = raw[i:i + m]
        p1, ok1 = descend(up, tuple(q[0::2]))
        p2, ok2 = descend(up, tuple(q[1::2]))
        if not (ok1 and ok2):
            continue
        merged, _ = deinterleave_paths(p1, p2, idx.dicts[2])
        want = descend(low, q)[0][1:]  # drop the root
        # merged may carry extra deeper hits; its prefix must match
        assert merged[:len(want)] == want, (raw, q)


def test_query_goldens(abra_layers):
    cases = [(b"ABRA", (1, 8)), (b"CAD", (5,)), (b"ABRACADABRA", (1,)),
             (b"AB", (1, 8)), (b"RA", (3, 10)), (b"ABRD", ()), (b"ZZ", ())]
    for q, exp in cases:
        for j in (1, 2, 4, 8):
            assert par_query_interleaved(
                abra_layers, Pattern.from_bytes(q), j).positions == exp, (q, j)


def test_rejects_bad_j(abra_layers):
    with pytest.raises(ParameterError):
        par_query_interleaved(abra_layers, Pattern.from_bytes(b"AB"), 3)
    with pytest.raises(ParameterError):
        par_query_interleaved(abra_layers, Pattern.from_bytes(b"AB"), 16)


def test_oracle_and_bounds_randomized():
    rng = random.Random(41)
    for _ in range(30):
        raw = random_text(rng, rng.randrange(2, 70), rng.choice([1, 2, 3, 4]))
        idx = build_layered_index(raw, 8)
        for _ in range(8):
            m = rng.randrange(1, len(raw) + 1)
            if rng.random() < 0.5:
                i = rng.randrange(0, len(raw) - m + 1)
                q = raw[i:i + m]
            else:
                q = random_text(rng, m, 5)
            expected = naive_positions(raw, q)
            for j in (1, 2, 4, 8):
                led = StepLedger()
                res = par_query_interleaved(idx, Pattern.from_bytes(q), j,
                                            led)
                assert res.positions == expected, (raw, q, j)
                if expected and j > 1 and m >= j:
                    assert led.span <= 4 * (m / j) * math.log2(j), (raw, q, j)


def test_threaded_agreement(abra_layers):
    rng = random.Random(55)
    for _ in range(25):
        m = rng.randrange(1, 12)
        q = bytes(rng.choice(b"ABRACD") for _ in range(m))
        for j in (2, 4, 8):
            assert par_query_interleaved(
                abra_layers, Pattern.from_bytes(q), j).positions == \
                par_query_interleaved_threaded(
                    abra_layers, Pattern.from_bytes(q), j).positions
