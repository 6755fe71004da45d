"""Command-line front end, driven through main() with captured output."""

import json
import os

import pytest

from parsuffix.cli import main


@pytest.fixture()
def abra_file(tmp_path):
    path = tmp_path / "abra.txt"
    path.write_bytes(b"ABRACADABRA")
    return str(path)


def build(tmp_path, abra_file, kind, p=1):
    out = str(tmp_path / ("%s.idx" % kind))
    assert main(["build", "--text", abra_file, "--index", kind,
                 "--p", str(p), "--out", out]) == 0
    return out


def test_build_reports_node_count(tmp_path, abra_file, capsys):
    build(tmp_path, abra_file, "tree")
    out = capsys.readouterr().out
    assert "nodes=17" in out


@pytest.mark.parametrize("kind,p,line", [
    ("tree", 1, "index=tree nodes=17 dict_entries=16 bytes=309"),
    ("trie", 1, "index=trie nodes=67 dict_entries=66 bytes=909"),
    ("interleaved", 4, "index=interleaved nodes=55 dict_entries=34 "
                       "bytes=649"),
])
def test_build_summary_line(tmp_path, abra_file, capsys, kind, p, line):
    """Nodes and dictionary entries summed over every block: the
    interleaved line counts layers 1, 2 and 4 and dictionaries 2 and 4."""
    build(tmp_path, abra_file, kind, p)
    assert capsys.readouterr().out == line + "\n"


def test_build_rejects_non_power_of_two(tmp_path, abra_file, capsys):
    rc = main(["build", "--text", abra_file, "--index", "interleaved",
               "--p", "3", "--out", str(tmp_path / "x.idx")])
    assert rc != 0
    assert "power of two" in capsys.readouterr().err


def test_build_empty_text(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    rc = main(["build", "--text", str(empty), "--index", "trie",
               "--out", str(tmp_path / "e.idx")])
    assert rc == 0          # index over the delimiter only


def test_query_locate_and_count(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--pattern", "ABRA",
                 "--algo", "seq", "--locate"]) == 0
    assert capsys.readouterr().out.strip() == "1 8"
    assert main(["query", "--index", idx, "--pattern", "A",
                 "--algo", "seq", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_query_absent_pattern_exits_zero(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--pattern", "XYZ",
                 "--algo", "seq", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_query_all_algorithms_agree(tmp_path, abra_file, capsys):
    tree = build(tmp_path, abra_file, "tree")
    trie = build(tmp_path, abra_file, "trie")
    ilv = build(tmp_path, abra_file, "interleaved", p=4)
    capsys.readouterr()
    for idx, algo in ((tree, "seq"), (trie, "trie-par"),
                      (tree, "tree-par2"), (ilv, "interleaved")):
        assert main(["query", "--index", idx, "--pattern", "ABRA",
                     "--algo", algo, "--p", "2", "--locate"]) == 0
        assert capsys.readouterr().out.strip() == "1 8"


def test_query_stats_column(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--pattern", "ABRA",
                 "--algo", "tree-par2", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "work=" in out and "span=" in out and "probes=" in out


def test_query_interleaved_count_golden(tmp_path, abra_file, capsys):
    ilv = build(tmp_path, abra_file, "interleaved", p=4)
    capsys.readouterr()
    assert main(["query", "--index", ilv, "--pattern", "ABRA",
                 "--algo", "interleaved", "--p", "4", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_query_clamps_oversized_p(tmp_path, abra_file, capsys):
    trie = build(tmp_path, abra_file, "trie")
    capsys.readouterr()
    assert main(["query", "--index", trie, "--pattern", "AB",
                 "--algo", "trie-par", "--p", "16", "--locate"]) == 0
    cap = capsys.readouterr()
    assert cap.out.strip() == "1 8"
    assert "clamped" in cap.err


@pytest.mark.parametrize("p", ["3", "0"])
def test_query_clamps_unusable_interleaved_j(tmp_path, abra_file, capsys, p):
    ilv = build(tmp_path, abra_file, "interleaved", p=4)
    capsys.readouterr()
    assert main(["query", "--index", ilv, "--pattern", "ABRA",
                 "--algo", "interleaved", "--p", p, "--locate"]) == 0
    cap = capsys.readouterr()
    assert cap.out.strip() == "1 8"
    assert "clamped" in cap.err


def test_query_algo_index_mismatch(tmp_path, abra_file, capsys):
    tree = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", tree, "--pattern", "AB",
                 "--algo", "trie-par"]) != 0


def test_pattern_file(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    pats = tmp_path / "pats.txt"
    pats.write_bytes(b"ABRA\nCAD\n")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--pattern-file", str(pats),
                 "--algo", "seq", "--locate"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 8", "5"]


def test_threaded_query(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--pattern", "ABRA",
                 "--algo", "tree-par2", "--threads", "--locate"]) == 0
    assert capsys.readouterr().out.strip() == "1 8"


@pytest.mark.parametrize("kind,algo,p", [("tree", "tree-par2", "2"),
                                         ("trie", "trie-par", "2"),
                                         ("interleaved", "interleaved", "4")])
def test_threaded_query_stats_match_simulated(tmp_path, abra_file, capsys,
                                              kind, algo, p):
    """--threads runs the same algorithm on a thread pool and charges the
    same ledger, so the stats columns agree."""
    idx = build(tmp_path, abra_file, kind, p=4)
    capsys.readouterr()
    lines = []
    for extra in ([], ["--threads"]):
        assert main(["query", "--index", idx, "--pattern", "ABRA", "--algo",
                     algo, "--p", p, "--stats"] + extra) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert "work=0" not in lines[1]


def test_bench_table(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["bench", "--index", idx, "--pattern", "ABRA",
                 "--pattern", "CAD"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["m", "algorithm", "work", "span",
                                    "probes"]
    assert len(lines) == 5          # header + 2 patterns x 2 algorithms


def test_bench_skips_tree_par2_for_one_char_pattern(tmp_path, abra_file,
                                                    capsys):
    """tree-par2 needs m >= 2; its m=1 row held seq's counts under its
    name."""
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["bench", "--index", idx, "--pattern", "A",
                 "--pattern", "AB"]) == 0
    cap = capsys.readouterr()
    rows = [line.split("\t")[:2] for line in cap.out.splitlines()[1:]]
    assert rows == [["1", "seq"], ["2", "seq"], ["2", "tree-par2"]]
    assert "tree-par2 skipped for m=1 (m < 2)" in cap.err


def test_selftest_pass_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["selftest", "--n", "64", "--sigma", "3", "--trials", "15",
                 "--seed", "2", "--report", str(report)]) == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "parsuffix-selftest" and doc["ok"]
    assert len(doc["cases"]) == 15


def test_selftest_zero_trials_vacuous_pass(capsys):
    assert main(["selftest", "--trials", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_selftest_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARSUFFIX_SEED", "777")
    assert main(["selftest", "--n", "32", "--trials", "3", "--seed", "1"]) == 0
    assert "seed=777" in capsys.readouterr().out


def test_corrupted_index_file(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"not a container at all")
    assert main(["query", "--index", str(bad), "--pattern", "A",
                 "--algo", "seq"]) != 0
    assert "error" in capsys.readouterr().err


def test_no_patterns_is_an_error(tmp_path, abra_file, capsys):
    idx = build(tmp_path, abra_file, "tree")
    capsys.readouterr()
    assert main(["query", "--index", idx, "--algo", "seq"]) != 0


def test_query_rejects_tree_without_suffix_links(tmp_path, capsys):
    """A container whose tree is not a suffix tree.  The container holds
    the suffix array, from which only the suffix tree derives, so the
    nearest such file swaps two suffixes of abab$ (leaves 1 and 2): the
    loader rejects it before any suffix link is built."""
    from parsuffix.serial import build_container, dump_container
    blob = bytearray(dump_container(build_container(b"abab", "tree")))
    # the suffix array, after the header, the text and the block's stride
    sa = 4 + 6 + 32 + 8 + 4 + 4
    assert blob[sa:sa + 8] == bytes([1, 0, 0, 0, 3, 0, 0, 0])
    blob[sa], blob[sa + 4] = 3, 1
    path = tmp_path / "bad.idx"
    path.write_bytes(bytes(blob))
    rc = main(["query", "--index", str(path), "--pattern", "ab",
               "--algo", "tree-par2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not in suffix order" in err


def test_query_rejects_tree_node_with_one_child(tmp_path, capsys):
    """The tree's one-child node does not survive the suffix array
    container; the dictionary entry that maps it makes the file fail."""
    from parsuffix.serial import dump_container
    from test_serial import one_child_tree_container
    path = tmp_path / "bad.idx"
    path.write_bytes(dump_container(one_child_tree_container()))
    rc = main(["query", "--index", str(path), "--pattern", "ABRA",
               "--algo", "seq"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dictionary has 17 entries" in err
