"""Verification harness, scalar reference, and CLI plumbing."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliquelab import cli
from cliquelab.cli import build_parser, main
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.generate import GenSpec, generate
from cliquelab.io import parse
from cliquelab.oracles import brute_hypercliques
from cliquelab.triangle import detect_naive
from cliquelab.verify import CHECKS, gnp_sweep, run_verify, shrink
from tests.scalar_reference import detect_scalar_reference
from tests.test_core import random_graph
from tests.test_oracles import complete_kpartite

ROOT = Path(__file__).resolve().parent.parent


def test_scalar_reference_agrees_with_naive():
    import random
    rng = random.Random(14)
    for _ in range(40):
        g = random_graph(rng, [6, 6, 6], rng.choice([0.1, 0.4, 0.8]))
        assert (detect_scalar_reference(g) is None) == (detect_naive(g) is None)


def test_run_verify_clean_corpus_passes():
    specs = gnp_sweep("gnp-kpartite", 8, 3, [0.2, 0.6], range(3))
    report = run_verify("triangle-detect", specs)
    assert report.ok and report.instances == 6

    hspecs = gnp_sweep("gnp-hypergraph", 5, 4, [0.5], range(3), r=3)
    assert run_verify("hyperclique-list", hspecs).ok


def test_run_verify_unknown_check():
    with pytest.raises(InvalidParameterError):
        run_verify("no-such-check", [])


def test_run_verify_broken_engine_produces_reproducer():
    # deliberately broken check: claims every graph is triangle-free
    CHECKS["broken-fixture"] = lambda g: detect_naive(g) is None
    try:
        specs = gnp_sweep("gnp-kpartite", 8, 3, [0.8], range(2))
        report = run_verify("broken-fixture", specs)
        assert not report.ok
        fail = report.failures[0]
        small = parse(io.StringIO(fail.reproducer))
        # the shrunk reproducer still triggers the failure and is tiny
        assert detect_naive(small) is not None
        assert small.n_total <= 3
    finally:
        del CHECKS["broken-fixture"]


def test_shrink_keeps_failure_alive():
    g = complete_kpartite([3, 3, 3])
    small = shrink(g, lambda x: detect_naive(x) is None)
    assert detect_naive(small) is not None
    assert small.n_total == 3


def test_shrink_hypergraph_to_one_hyperclique():
    # a check that fails whenever a hyperclique exists: greedy removal
    # ends at one vertex per part, still a hyperclique after renumbering
    h = generate(GenSpec("planted-hyperclique", 5, 4, 0.4, 2, r=3,
                         plant_count=1)).graph
    assert brute_hypercliques(h, 4).witnesses
    small = shrink(h, lambda x: not brute_hypercliques(x, 4, t=0).truncated)
    assert small.part_sizes == [1, 1, 1, 1]
    assert brute_hypercliques(small, 4).witnesses == [(0, 1, 2, 3)]


# -- CLI -------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_gen_detect_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _ = run_cli(["gen", "--kind", "gnp-kpartite", "--n", "10", "--k",
                       "3", "--p", "0.5", "--seed", "4", "-o", str(path)],
                      capsys)
    assert code == 0
    code, out = run_cli(["detect-triangle", "--algo", "fr", "--json",
                         str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] in (True, False)

    code, out = run_cli(["list-triangles", "--algo", "regularity", "--t", "4",
                         "--json", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] <= 4 and payload["plans"]
    assert all(set(plan) == {"piece_pair", "density", "low_density"}
               for plan in payload["plans"])


def test_cli_clique_trace(tmp_path, capsys):
    gpath = tmp_path / "c.txt"
    run_cli(["gen", "--kind", "planted-clique", "--n", "8", "--k", "4",
             "--p", "0.2", "--plant-count", "1", "--seed", "2",
             "-o", str(gpath)], capsys)
    traces = []
    for extra in (["--witness"], []):
        tpath = tmp_path / f"trace{len(traces)}.json"
        code, out = run_cli(["detect-clique", "--k", "4", *extra,
                             "--alpha", "0.3", "--depth", "2",
                             "--trace", str(tpath), "--json", str(gpath)],
                            capsys)
        assert code == 0
        assert json.loads(out)["found"] is True
        traces.append(tpath.read_text())
    trace = json.loads(traces[0])
    assert all(node["branch"] in ("depth-cap", "heavy-vertex", "sparse-base")
               for node in trace)
    # --witness reports the search's own clique: the trace is one search's
    assert traces[0] == traces[1]


def test_cli_clique_default_params_are_choose_params(tmp_path, capsys):
    # without --alpha/--depth the search runs at choose_params(n, k): the
    # same stdout and trace as those values passed by hand
    from cliquelab.kclique import choose_params
    gpath = tmp_path / "c.txt"
    run_cli(["gen", "--kind", "planted-clique", "--n", "8", "--k", "4",
             "--p", "0.3", "--plant-count", "1", "--seed", "2",
             "-o", str(gpath)], capsys)
    with open(gpath) as fh:
        auto = choose_params(max(2, parse(fh).n_total), 4)
    runs = []
    for flags in ([], ["--alpha", repr(auto.alpha),
                       "--depth", str(auto.depth_cap)]):
        tpath = tmp_path / f"trace{len(runs)}.json"
        code, out = run_cli(["detect-clique", "--k", "4", "--witness",
                             "--trace", str(tpath), *flags, str(gpath)],
                            capsys)
        assert code == 0
        runs.append((out.replace(str(tpath), "TRACE"), tpath.read_text()))
    assert runs[0] == runs[1]
    assert "witness: [" in runs[0][0]


def test_cli_clique_past_the_float_range(tmp_path, capsys):
    # the part sizes past part 0 multiply to 2^1029, beyond any float
    path = tmp_path / "wide.txt"
    path.write_text("kpartite 1030\n" + "part 2\n" * 1030 + "edges 0\n")
    assert main(["detect-clique", "--k", "1030", "--depth", "1",
                 "--alpha", "0.5", str(path)]) == 0
    assert capsys.readouterr() == ("found: False\n", "")


def test_cli_clique_past_the_recursion_limit(tmp_path, capsys):
    # one vertex per part, all joined: the search nests once per part
    k = 400
    path = tmp_path / "deep.txt"
    edges = [f"{u} {v}\n" for u in range(k) for v in range(u + 1, k)]
    path.write_text(f"kpartite {k}\n" + "part 1\n" * k
                    + f"edges {len(edges)}\n" + "".join(edges))
    assert main(["detect-clique", "--k", str(k), str(path)]) == 3
    assert capsys.readouterr() == ("", (
        f"error: k = {k} nests the recursion past the interpreter's "
        "recursion limit\n"))


def test_cli_witness_is_one_search(tmp_path, capsys, monkeypatch):
    from cliquelab import cli, kclique
    path = tmp_path / "k4.txt"
    path.write_text(K4_FILE)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return kclique.find_kclique(*args, **kwargs)

    def halving(*args, **kwargs):
        raise AssertionError("find_witness must not run")

    monkeypatch.setattr(cli, "find_kclique", counting)
    monkeypatch.setattr(kclique, "find_witness", halving)
    monkeypatch.setattr(cli, "find_witness", halving, raising=False)
    code, out = run_cli(["detect-clique", "--k", "4", "--witness", "--json",
                         str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"found": True, "witness": [0, 2, 4, 6]}
    assert calls == [4]


def test_cli_hyperclique_and_regularity(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    run_cli(["gen", "--kind", "gnp-hypergraph", "--n", "5", "--k", "4",
             "--r", "3", "--p", "0.7", "--seed", "3", "-o", str(hpath)],
            capsys)
    code, out = run_cli(["list-hypercliques", "--k", "4", "--t", "3",
                         "--json", str(hpath)], capsys)
    assert code == 0 and json.loads(out)["count"] <= 3

    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--kind", "gnp-kpartite", "--n", "16", "--k", "3",
             "--p", "0.5", "--seed", "1", "-o", str(gpath)], capsys)
    code, out = run_cli(["regularity", "--epsilon", "0.2", "--samples", "50",
                         str(gpath)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "pieces" in payload and "densities" in payload
    assert "violations" in payload and "max_error" in payload


def test_cli_hypergraph_file_line_ends_and_comments(tmp_path, capsys):
    # LF, CRLF and a trailing comment list the same hypercliques; a bad
    # line still exits 2 with its line number.
    lf = tmp_path / "lf.txt"
    run_cli(["gen", "--kind", "planted-hyperclique", "--n", "6", "--k", "4",
             "--r", "3", "--p", "0.5", "--seed", "2", "--plant-count", "1",
             "-o", str(lf)], capsys)
    text = lf.read_text()
    crlf, tail = tmp_path / "crlf.txt", tmp_path / "tail.txt"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    tail.write_text(text + "# end\n")
    outs = []
    for path in (lf, crlf, tail):
        code, out = run_cli(["list-hypercliques", "--k", "4", "--json",
                             str(path)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["count"] >= 1

    lines = text.split("\n")
    lines[6] = "0 1 12"             # the first edge line; 0 and 1 share part 0
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines))
    assert main(["list-hypercliques", "--k", "4", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 7: hyperedge (0, 1, 12) has vertices in a shared part\n")


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kpartite 2\npart 1\npart 1\nedges 1\n0 0\n")
    code, _ = run_cli(["detect-triangle", str(bad)], capsys)
    assert code == 2

    ok3 = tmp_path / "g.txt"
    run_cli(["gen", "--kind", "gnp-kpartite", "--n", "30", "--k", "3",
             "--p", "0.5", "--seed", "0", "-o", str(ok3)], capsys)
    import os
    os.environ["CLIQUELAB_MAX_TABLE_BYTES"] = "10"
    try:
        code, _ = run_cli(["detect-triangle", "--algo", "fr", str(ok3)],
                          capsys)
    finally:
        del os.environ["CLIQUELAB_MAX_TABLE_BYTES"]
    assert code == 3

    code, _ = run_cli(["detect-triangle", str(tmp_path / "missing.txt")],
                      capsys)
    assert code == 2


def test_cli_regularity_rejects_two_part_graph(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("kpartite 2\npart 2\npart 2\nedges 1\n0 2\n")
    assert main(["regularity", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: a 2-part graph has no V2 u V3\n")


def _gen_tri(path, n, p, seed):
    assert main(["gen", "--kind", "gnp-kpartite", "--n", str(n), "--k", "3",
                 "--p", str(p), "--seed", str(seed), "-o", str(path)]) == 0


def test_cli_regularity_prints_the_check_that_verified(tmp_path, capsys):
    # G(8/part, 0.2) at epsilon 0.01 is verified by round 2's samples;
    # round 0's seed finds violations above epsilon on the same partition
    path = tmp_path / "g.txt"
    _gen_tri(path, 8, 0.2, 2)
    capsys.readouterr()
    assert main(["regularity", "--epsilon", "0.01", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] and payload["violations"] == 0
    assert payload["max_error"] <= 0.01


def test_cli_regularity_checks_once_when_round_0_verifies(
        tmp_path, capsys, monkeypatch):
    from cliquelab import cli, regularity
    path = tmp_path / "g.txt"
    _gen_tri(path, 30, 0.3, 2)
    calls = []
    real = regularity.check_pseudoregular_sampled

    def counting(G, P, epsilon, samples, seed):
        calls.append(seed)
        return real(G, P, epsilon, samples, seed)

    monkeypatch.setattr(regularity, "check_pseudoregular_sampled", counting)
    monkeypatch.setattr(cli, "check_pseudoregular_sampled", counting)
    # round 0's samples (seed 3) verify: the command prints that check
    assert main(["regularity", "--epsilon", "0.05", "--seed", "3",
                 str(path)]) == 0
    assert calls == [3]
    # certified at 0.25: the partitioner samples nothing, the command once
    calls.clear()
    assert main(["regularity", "--epsilon", "0.25", str(path)]) == 0
    assert calls == [0]


def test_cli_rejects_negative_t(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run_cli(["gen", "--kind", "gnp-kpartite", "--n", "3", "--k", "3",
             "--p", "1", "-o", str(g)], capsys)
    h = tmp_path / "h.txt"
    run_cli(["gen", "--kind", "gnp-hypergraph", "--n", "2", "--k", "4",
             "--r", "3", "--p", "1", "-o", str(h)], capsys)
    for cmd in (["list-triangles", "--algo", "sparse-fr"],
                ["list-triangles", "--algo", "regularity"]):
        code, out = run_cli(cmd + ["--t", "-1", str(g)], capsys)
        assert code == 2 and out == ""
    code, out = run_cli(["list-hypercliques", "--k", "4", "--t", "-1",
                         str(h)], capsys)
    assert code == 2 and out == ""


def test_cli_zero_epsilon_and_block_size_reach_validation(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run_cli(["gen", "--kind", "gnp-kpartite", "--n", "6", "--k", "3",
             "--p", "0.5", "-o", str(g)], capsys)
    for cmd in (["list-triangles", "--algo", "regularity", "--epsilon", "0"],
                ["list-triangles", "--algo", "regularity", "--epsilon", "1"],
                ["regularity", "--epsilon", "0"],
                ["detect-triangle", "--algo", "fr", "--block-size", "0"]):
        code, out = run_cli(cmd + [str(g)], capsys)
        assert code == 2 and out == ""


HYPER_FILES = {
    "graph": "kpartite 4\npart 2\npart 2\npart 2\npart 2\nedges 1\n0 2\n",
    "hyper": "hypergraph 3 4\npart 2\npart 2\npart 2\npart 2\nedges 1\n"
             "0 2 4\n",
    # r = k: a 4-uniform hyperedge spans every part, refused before listing
    "r_eq_k": "hypergraph 4 4\npart 2\npart 2\npart 2\npart 2\nedges 1\n"
              "0 2 4 6\n",
    # 40 one-vertex parts: C(39, 19) index sets, refused before any is built
    "wide": "hypergraph 20 40\n" + "part 1\n" * 40 + "edges 0\n",
}
TINY_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "10"}
# the hyperclique tables for HYPER_FILES["hyper"] need exactly 496 bytes
SHORT_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "495"}
EXACT_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "496"}
# a budget that is not a non-negative integer is invalid input, not a limit
TEXT_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "abc"}
NEGATIVE_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "-5"}
ZERO_BUDGET = {"CLIQUELAB_MAX_TABLE_BYTES": "0"}


# (subcommand and flags, input file, environment, exit code)
@pytest.mark.parametrize("cmd, fname, env, code", [
    (["detect-hyperclique", "--k", "4"], "hyper", {}, 0),
    (["list-hypercliques", "--k", "4"], "hyper", {}, 0),
    (["detect-hyperclique", "--k", "4"], "graph", {}, 2),
    (["list-hypercliques", "--k", "4"], "graph", {}, 2),
    (["detect-hyperclique", "--k", "5"], "hyper", {}, 2),
    (["list-hypercliques", "--k", "3"], "hyper", {}, 2),
    (["list-hypercliques", "--k", "4", "--t", "-1"], "hyper", {}, 2),
    (["detect-hyperclique", "--k", "4"], "hyper", SHORT_BUDGET, 3),
    (["list-hypercliques", "--k", "4"], "hyper", SHORT_BUDGET, 3),
    (["detect-hyperclique", "--k", "4"], "hyper", TINY_BUDGET, 3),
    (["list-hypercliques", "--k", "4"], "hyper", TINY_BUDGET, 3),
    (["detect-hyperclique", "--k", "4"], "hyper", EXACT_BUDGET, 0),
    (["list-hypercliques", "--k", "4"], "hyper", EXACT_BUDGET, 0),
    (["list-hypercliques", "--k", "40"], "wide", {}, 3),
    (["detect-hyperclique", "--k", "40"], "wide", {}, 3),
    (["list-hypercliques", "--k", "4", "--t", "0"], "hyper", {}, 0),
    (["list-hypercliques", "--k", "4"], "hyper", TEXT_BUDGET, 2),
    (["list-hypercliques", "--k", "4"], "hyper", NEGATIVE_BUDGET, 2),
    (["detect-hyperclique", "--k", "4"], "hyper", TEXT_BUDGET, 2),
    (["list-hypercliques", "--k", "4"], "hyper", ZERO_BUDGET, 3),
    (["list-hypercliques", "--k", "4"], "r_eq_k", {}, 2),
])
def test_cli_hyperclique_exit_codes(tmp_path, capsys, monkeypatch, cmd, fname,
                                    env, code):
    path = tmp_path / f"{fname}.txt"
    path.write_text(HYPER_FILES[fname])
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    got = main(cmd + [str(path)])
    out, err = capsys.readouterr()
    assert got == code
    assert (out == "") == (code != 0)
    if fname == "r_eq_k":
        assert err == "error: need 2 <= r < k\n"
    if code == 0 and cmd[0] == "list-hypercliques":
        # "hyper" has one hyperedge, so no 4-hyperclique
        assert "count: 0\n" in out


TRIANGLE_FILES = {
    # 3 vertices per part, one triangle (0, 3, 6); the FR table needs
    # 12 bytes even at b = 1
    "tri": "kpartite 3\npart 3\npart 3\npart 3\nedges 3\n0 3\n0 6\n3 6\n",
    "two": "kpartite 2\npart 2\npart 2\nedges 1\n0 2\n",
    "trailing": "kpartite 3\npart 3\npart 3\npart 3\nedges 3\n0 3\n0 6\n"
                "3 6\nextra\n",
}


# (subcommand and flags, input file, environment, exit code)
@pytest.mark.parametrize("cmd, fname, env, code", [
    (["detect-triangle"], "tri", {}, 0),
    (["detect-triangle", "--algo", "fr"], "tri", {}, 0),
    (["detect-triangle", "--algo", "fr", "--block-size", "3"], "tri", {}, 0),
    (["detect-triangle", "--algo", "fr", "--block-size", "0"], "tri", {}, 2),
    (["detect-triangle", "--algo", "fr", "--block-size", "14"], "tri", {},
     3),
    (["detect-triangle", "--algo", "fr"], "tri", TINY_BUDGET, 3),
    (["detect-triangle", "--algo", "fr", "--block-size", "1"], "tri",
     TINY_BUDGET, 3),
    (["detect-triangle", "--algo", "naive"], "tri", TINY_BUDGET, 0),
    (["detect-triangle"], "two", {}, 2),
    (["detect-triangle", "--algo", "fr"], "two", {}, 2),
    (["detect-triangle"], "trailing", {}, 2),
    (["detect-triangle", "--algo", "fr"], "trailing", {}, 2),
    (["detect-triangle"], "missing", {}, 2),
    (["detect-triangle", "--algo", "fr"], "missing", {}, 2),
    # --block-size sizes the FR table only, and is refused before the read
    (["detect-triangle", "--block-size", "3"], "tri", {}, 2),
    (["detect-triangle", "--algo", "naive", "--block-size", "3"], "tri", {},
     2),
    (["detect-triangle", "--algo", "naive", "--block-size", "99"], "missing",
     {}, 2),
    (["detect-triangle", "--algo", "fr"], "tri", TEXT_BUDGET, 2),
    (["detect-triangle", "--algo", "fr"], "tri", NEGATIVE_BUDGET, 2),
    (["detect-triangle", "--algo", "fr"], "tri", ZERO_BUDGET, 3),
    # the naive detector builds no table and reads no budget
    (["detect-triangle", "--algo", "naive"], "tri", TEXT_BUDGET, 0),
])
def test_cli_detect_triangle_exit_codes(tmp_path, capsys, monkeypatch, cmd,
                                        fname, env, code):
    path = tmp_path / f"{fname}.txt"
    if fname in TRIANGLE_FILES:
        path.write_text(TRIANGLE_FILES[fname])
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    got = main(cmd + ["--json", str(path)])
    out, err = capsys.readouterr()
    assert got == code
    if "--block-size" in cmd and "fr" not in cmd:
        assert err == "error: --block-size applies only to --algo fr\n"
    if code:
        assert out == ""
    else:
        assert json.loads(out) == {"found": True, "witness": [0, 3, 6]}


# "tri" needs 12 table bytes at b = 1, "hyper" 496 at s = 1
@pytest.mark.parametrize("cmd, fname, need", [
    (["detect-triangle", "--algo", "fr"], "tri", 12),
    (["detect-hyperclique", "--k", "4"], "hyper", 496),
    (["list-hypercliques", "--k", "4"], "hyper", 496),
])
def test_cli_table_engines_refuse_with_one_text(tmp_path, capsys, monkeypatch,
                                                cmd, fname, need):
    path = tmp_path / f"{fname}.txt"
    path.write_text({**TRIANGLE_FILES, **HYPER_FILES}[fname])
    monkeypatch.setenv("CLIQUELAB_MAX_TABLE_BYTES", "10")
    assert main(cmd + [str(path)]) == 3
    assert capsys.readouterr() == ("", (
        f"error: table needs ~{need} bytes, budget is 10 (set "
        "CLIQUELAB_MAX_TABLE_BYTES to raise)\n"))


LIST_FILES = {
    **TRIANGLE_FILES,
    # V2 and V3 empty: valid, and there is no triangle to list
    "empty23": "kpartite 3\npart 3\npart 0\npart 0\nedges 0\n",
    "malformed": "kpartite 3\npart 3\npart 3\npart 3\nedges 1\n0 x\n",
}


# (list-triangles flags, input file, exit code, count printed on success);
# a pair of exit codes is (--algo regularity, --algo sparse-fr)
LIST_ROWS = [
    ([], "tri", 0, 1),
    ([], "empty23", 0, 0),
    ([], "malformed", 2, None),
    ([], "trailing", 2, None),
    ([], "missing", 2, None),
    ([], "two", 2, None),
    (["--t", "0"], "tri", 0, 0),
    # --epsilon and --seed drive the regularity partition only
    (["--epsilon", "1e-300"], "tri", (0, 2), 1),
    (["--epsilon", "5e-324"], "tri", (0, 2), 1),
    # the removed V2-pivot lister; the later --algo wins
    (["--algo", "sparse-fr-pivot"], "tri", 2, None),
    (["--seed", "5"], "tri", (0, 2), 1),
]


def _list_cases():
    for i, (flags, fname, codes, count) in enumerate(LIST_ROWS):
        for j, algo in enumerate(["regularity", "sparse-fr"]):
            code = codes[j] if isinstance(codes, tuple) else codes
            n = None if code else count
            yield pytest.param(algo, flags, fname, code, n,
                               id=f"flags{i}-{fname}-{code}-{n}-{algo}")


@pytest.mark.parametrize("algo, flags, fname, code, count", _list_cases())
def test_cli_list_triangles_exit_codes(tmp_path, capsys, algo, flags, fname,
                                       code, count):
    path = tmp_path / f"{fname}.txt"
    if fname in LIST_FILES:
        path.write_text(LIST_FILES[fname])
    try:
        got = main(["list-triangles", "--algo", algo, *flags, str(path)])
    except SystemExit as exc:       # argparse rejects an unknown --algo
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code and flags[:1] in (["--epsilon"], ["--seed"]):
        assert out == "" and err == ("error: --epsilon and --seed apply only"
                                     " to --algo regularity\n")
    elif code:
        assert out == "" and err.startswith(
            "usage: " if "--algo" in flags else "error: ")
    else:
        assert out.startswith(f"count: {count}\n")


# (verify flags, exit code, summary line on success)
@pytest.mark.parametrize("flags, code, summary", [
    (["--check", "nope"], 2, None),
    (["--check", "triangle-list", "--n", "0"], 2, None),
    (["--check", "triangle-list", "--p", "2"], 2, None),
    (["--check", "triangle-list", "--instances", "0"], 2, None),
    (["--check", "triangle-list", "--n", "5", "--p", "0.5",
      "--instances", "2"], 0, "triangle-list: 2 instances, 0 failures"),
])
def test_cli_verify_exit_codes(capsys, flags, code, summary):
    got, out = run_cli(["verify", *flags], capsys)
    assert got == code
    assert out == ("" if code else summary + "\n")


def test_run_verify_rejects_empty_specs():
    with pytest.raises(InvalidParameterError):
        run_verify("triangle-list", [])


GEN_FLAGS = ["--kind", "gnp-kpartite", "--n", "3", "--k", "3", "--p", "0.5"]


# (gen flags overriding GEN_FLAGS, output directory exists, exit code)
@pytest.mark.parametrize("flags, out_dir, code", [
    ([], True, 0),
    (["--kind", "planted-clique", "--plant-count", "2"], True, 0),
    (["--kind", "gnp-hypergraph", "--r", "2"], True, 0),
    (["--k", "1"], True, 2),
    (["--n", "0"], True, 2),
    (["--n", "-1"], True, 2),
    (["--p", "1.5"], True, 2),
    (["--p", "nan"], True, 2),
    (["--kind", "planted-clique"], True, 2),
    (["--r", "2"], True, 2),
    (["--kind", "gnp-hypergraph"], True, 2),
    (["--kind", "planted-clique", "--n", "1", "--plant-count", "2"], True,
     2),
    ([], False, 2),
    # 2^23 vertices per part: numpy cannot allocate the 72 TiB matrix
    (["--n", "8388608"], True, 3),
])
def test_cli_gen_exit_codes(tmp_path, capsys, monkeypatch, flags, out_dir,
                            code):
    if code == 3:   # fail as numpy would; a real attempt may be granted
        def out_of_memory(spec):
            raise MemoryError("Unable to allocate 72.0 TiB")
        monkeypatch.setattr(cli, "generate", out_of_memory)
    path = tmp_path / ("." if out_dir else "missing") / "g.txt"
    got = main(["gen", *GEN_FLAGS, *flags, "-o", str(path)])
    out, err = capsys.readouterr()
    assert got == code
    assert path.exists() == (code == 0)
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert out in ("", "planted 2 witnesses\n")
        parse(io.StringIO(path.read_text()))


# (regularity flags, input file, exit code)
@pytest.mark.parametrize("flags, fname, code", [
    ([], "tri", 0),
    (["--epsilon", "0.1", "--samples", "5"], "tri", 0),
    (["--epsilon", "1e-300"], "tri", 0),
    (["--epsilon", "5e-324"], "tri", 0),
    ([], "two", 2),
    (["--samples", "0"], "tri", 2),
    (["--epsilon", "1"], "tri", 2),
    (["--epsilon", "nan"], "tri", 2),
    ([], "missing", 2),
])
def test_cli_regularity_exit_codes(tmp_path, capsys, flags, fname, code):
    path = tmp_path / f"{fname}.txt"
    if fname in TRIANGLE_FILES:
        path.write_text(TRIANGLE_FILES[fname])
    got = main(["regularity", *flags, str(path)])
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        payload = json.loads(out)
        assert sorted(v for piece in payload["pieces"] for v in piece) == \
            list(range(3, 9))
        assert isinstance(payload["verified"], bool)


# 2 vertices per part, one K4 (0, 2, 4, 6) and a stray edge 1-3
K4_FILE = ("kpartite 4\npart 2\npart 2\npart 2\npart 2\nedges 7\n0 2\n0 4\n"
           "0 6\n2 4\n2 6\n4 6\n1 3\n")
CLIQUE_FILES = {"k4": K4_FILE, "trailing": K4_FILE + "extra\n"}


# (subcommand and flags, input file, exit code)
@pytest.mark.parametrize("cmd, fname, code", [
    (["--k", "4", "--base", "naive"], "k4", 0),
    (["--k", "4", "--base", "naive", "--witness"], "k4", 0),
    (["--k", "4", "--base", "fr"], "k4", 0),
    (["--k", "4", "--base", "fr", "--witness"], "k4", 0),
    (["--k", "4", "--alpha", "0.3"], "k4", 2),
    (["--k", "4", "--witness", "--alpha", "0.3"], "k4", 2),
    (["--k", "5"], "k4", 2),
    (["--k", "5", "--witness"], "k4", 2),
    (["--k", "3", "--base", "fr"], "k4", 2),
    (["--k", "4"], "missing", 2),
    (["--k", "4", "--witness"], "missing", 2),
    (["--k", "4"], "trailing", 2),
    (["--k", "4", "--base", "fr", "--witness"], "trailing", 2),
])
def test_cli_detect_clique_exit_codes(tmp_path, capsys, cmd, fname, code):
    path = tmp_path / f"{fname}.txt"
    if fname in CLIQUE_FILES:
        path.write_text(CLIQUE_FILES[fname])
    got, out = run_cli(["detect-clique"] + cmd + ["--json", str(path)],
                       capsys)
    assert got == code
    if code:
        assert out == ""
    elif "--witness" in cmd:
        assert json.loads(out) == {"found": True, "witness": [0, 2, 4, 6]}
    else:
        assert json.loads(out) == {"found": True}


def test_cli_detect_clique_rejects_removed_flag(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(K4_FILE)
    with pytest.raises(SystemExit) as exc:
        main(["detect-clique", "--k", "4", "--paper-params", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_bench_subcommand_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_closed_pipe_exits_quietly(tmp_path):
    # The listing runs to megabytes, far past a pipe buffer, so the writer
    # is still writing when the reader closes the pipe after 10 bytes.
    path = tmp_path / "g.txt"
    assert main(["gen", "--kind", "gnp-kpartite", "--n", "60", "--k", "3",
                 "--p", "0.6", "--seed", "1", "-o", str(path)]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "cliquelab.cli", "list-triangles", "--json",
         str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_src_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err == b""


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def test_cli_import_and_detect_leave_numpy_unloaded(tmp_path):
    # Only generation uses numpy; importing the CLI and running a detect,
    # list or regularity command must not pay its import.
    tri, k4, hyper = (str(tmp_path / name)
                      for name in ("t.txt", "k4.txt", "h.txt"))
    for flags in (["gnp-kpartite", "--n", "12", "--k", "3", "-o", tri],
                  ["planted-clique", "--n", "12", "--k", "4",
                   "--plant-count", "1", "-o", k4],
                  ["gnp-hypergraph", "--n", "5", "--k", "4", "--r", "3",
                   "-o", hyper]):
        assert main(["gen", "--p", "0.3", "--seed", "2", "--kind"]
                    + flags) == 0
    runs = [["detect-triangle", tri],
            ["detect-triangle", "--algo", "fr", tri],
            ["list-triangles", tri],
            ["list-triangles", "--algo", "regularity", tri],
            ["regularity", tri],
            ["regularity", "--epsilon", "0.05", tri],
            ["list-triangles", "--algo", "regularity", "--epsilon", "0.05",
             tri],
            ["detect-clique", "--k", "4", "--witness", k4],
            ["list-hypercliques", "--k", "4", hyper]]
    script = ("import sys\n"
              "import cliquelab.cli as cli\n"
              "assert 'numpy' not in sys.modules, 'import'\n"
              f"for argv in {runs!r}:\n"
              "    assert cli.main(argv) == 0, argv\n"
              "    assert 'numpy' not in sys.modules, argv\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def _readme_cli_lines() -> list:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    return [line.split() for line in block.splitlines()
            if line.startswith("cliquelab ")]


def test_readme_cli_block_names_every_subcommand():
    documented = {argv[1] for argv in _readme_cli_lines()}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_readme_cli_block_runs_as_written(tmp_path, capsys, monkeypatch):
    # in order, in one directory: each file a command reads is written by
    # an earlier line
    monkeypatch.chdir(tmp_path)
    for argv in _readme_cli_lines():
        assert (main(argv[1:]), capsys.readouterr().err) == (0, ""), argv


def test_cli_verify_mismatch_exit(capsys, monkeypatch):
    # verify exits 1 when a check fails; use a stub check
    from cliquelab import verify as vmod
    monkeypatch.setitem(vmod.CHECKS, "triangle-detect",
                        lambda g: detect_naive(g) is None)
    code, out = run_cli(["verify", "--check", "triangle-detect", "--n", "6",
                         "--p", "0.9", "--instances", "2"], capsys)
    assert code == 1
    assert "reproducer" in out


def test_cli_oversized_part_exits_resource_limit(tmp_path, capsys):
    for i, header in enumerate(["kpartite 3", "hypergraph 2 3"]):
        path = tmp_path / f"huge{i}.txt"
        path.write_text(f"{header}\npart 1\npart 100000000000\npart 1\n"
                        "edges 0\n")
        cmd = ["detect-triangle"] if i == 0 else ["list-hypercliques", "--k", "3"]
        assert main(cmd + [str(path)]) == 3
        assert "limit is" in capsys.readouterr().err


def test_verify_triangle_detect_rejects_non_triangle_witness(monkeypatch):
    # an FR that finds "a triangle" exactly when one exists, but reports a
    # triple with a missing edge, must fail the check
    def fake_fr(g):
        if detect_naive(g) is None:
            return None
        for a in g.part_vertices(0):
            for b in g.part_vertices(1):
                if not g.has_edge(a, b):
                    return (a, b, g.part_vertices(2)[0])
        return detect_naive(g)

    from cliquelab import verify as vmod
    monkeypatch.setattr(vmod, "detect_four_russians", fake_fr)
    g = KPartiteGraph.from_edges([1, 2, 1], [(0, 1), (0, 3), (1, 3)])
    assert not CHECKS["triangle-detect"](g)
    report = run_verify("triangle-detect",
                        gnp_sweep("gnp-kpartite", 6, 3, [0.6], range(3)))
    assert not report.ok


def test_verify_triangle_detect_checks_against_the_oracle(monkeypatch):
    # two detectors that agree with each other and miss every triangle
    from cliquelab import verify as vmod
    from cliquelab.oracles import brute_kclique
    monkeypatch.setattr(vmod, "detect_four_russians", lambda g: None)
    monkeypatch.setattr(vmod, "detect_naive", lambda g: None)
    specs = gnp_sweep("gnp-kpartite", 6, 3, [0.2, 0.6], range(2))
    with_triangle = [spec for spec in specs
                     if brute_kclique(generate(spec).graph, 3) is not None]
    assert with_triangle
    report = run_verify("triangle-detect", specs)
    assert [fail.spec for fail in report.failures] == with_triangle


@pytest.mark.parametrize("fault", ["part-order", "non-edge"])
def test_verify_kclique_detect_rejects_non_clique_witness(capsys, monkeypatch,
                                                          fault):
    # an engine that finds a k-clique exactly when one exists, but reports
    # it out of part order or swaps in a vertex that breaks an edge
    from itertools import combinations, product

    from cliquelab import verify as vmod
    from cliquelab.oracles import brute_kclique

    def faulty(g, k):
        w = brute_kclique(g, k)
        if w is None or fault == "part-order":
            return w if w is None else (w[1], w[0]) + w[2:]
        for t in product(*(g.part_vertices(i) for i in range(k))):
            if not all(g.has_edge(a, b) for a, b in combinations(t, 2)):
                return t
        return w

    # a K4 on 0-3 and a fifth vertex, in part 3, with no edges
    g = KPartiteGraph.from_edges([1, 1, 1, 2], [(0, 1), (0, 2), (0, 3),
                                                (1, 2), (1, 3), (2, 3)])
    assert CHECKS["kclique-detect"](g)
    monkeypatch.setattr(vmod, "find_kclique", faulty)
    assert not CHECKS["kclique-detect"](g)
    code, out = run_cli(["verify", "--check", "kclique-detect", "--k", "4",
                         "--n", "4", "--p", "0.8", "--instances", "2"],
                        capsys)
    assert code == 1
    assert "reproducer" in out


# (lister made faulty, fault); the row-AND lister's rows keep their ids
@pytest.mark.parametrize("lister, fault", [
    pytest.param("list_all_triangles", "duplicate", id="duplicate"),
    pytest.param("list_all_triangles", "truncated", id="truncated"),
    pytest.param("list_triangles", "duplicate", id="regularity-duplicate"),
    pytest.param("list_triangles", "truncated", id="regularity-truncated"),
])
def test_verify_triangle_list_rejects_duplicates_and_truncation(
        monkeypatch, lister, fault):
    # a lister whose witness set is right but which emits a triangle twice,
    # or flags a complete list as truncated, must fail the check, whichever
    # of the two listers it runs is at fault
    from cliquelab import verify as vmod
    real = getattr(vmod, lister)

    def faulty(*args):
        out = real(*args)
        res = out.result if lister == "list_triangles" else out
        if fault == "duplicate":
            res.witnesses.append(res.witnesses[0])
        else:
            res.truncated = True
        return out

    g = complete_kpartite([2, 2, 2])
    assert CHECKS["triangle-list"](g)
    monkeypatch.setattr(vmod, lister, faulty)
    assert not CHECKS["triangle-list"](g)


@pytest.mark.parametrize("fault", ["duplicate", "truncated"])
def test_verify_hyperclique_list_rejects_duplicates_and_truncation(
        capsys, monkeypatch, fault):
    # as for triangle-list: the right witness set, but one hyperclique
    # emitted twice or a complete list flagged as truncated, must fail
    from cliquelab import verify as vmod
    from cliquelab.hyperclique import list_hypercliques

    def faulty(h, k, **engine):
        res = list_hypercliques(h, k, **engine)
        if fault == "duplicate":
            res.witnesses.extend(res.witnesses[:1])
        else:
            res.truncated = True
        return res

    monkeypatch.setattr(vmod, "list_hypercliques", faulty)
    code, out = run_cli(["verify", "--check", "hyperclique-list", "--k", "4",
                         "--r", "3", "--n", "2", "--p", "1", "--instances",
                         "1"], capsys)
    assert code == 1
    assert "reproducer" in out
