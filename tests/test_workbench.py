"""Verification harness, benchmark runner, and CLI plumbing."""

import io
import json

import pytest

from cliquelab.bench import detect_scalar_reference, run_bench, speedup
from cliquelab.cli import main
from cliquelab.errors import InvalidParameterError
from cliquelab.io import parse
from cliquelab.triangle import detect_naive
from cliquelab.verify import CHECKS, gnp_sweep, run_verify, shrink
from tests.test_core import random_graph
from tests.test_oracles import complete_kpartite


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


def test_run_bench_rows_and_crosscheck():
    report = run_bench([16, 32], engines=("scalar", "naive"), repeats=3)
    assert report.schema == 1
    assert len(report.rows) == 4
    decided = {(r.engine, r.n_per_part): r.decision for r in report.rows}
    assert decided[("scalar", 16)] == decided[("naive", 16)]
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1 and len(payload["rows"]) == 4


def test_run_bench_requires_ascending_sizes():
    with pytest.raises(InvalidParameterError):
        run_bench([32, 16])


def test_run_bench_same_seed_same_decisions():
    a = run_bench([24], engines=("naive",), repeats=2, seed=5)
    b = run_bench([24], engines=("naive",), repeats=2, seed=5)
    assert [r.decision for r in a.rows] == [r.decision for r in b.rows]


def test_speedup_at_least_one_dense(tmp_path):
    report = run_bench([64], engines=("scalar", "naive"), repeats=3)
    assert speedup(report, "scalar", "naive", 64) > 0


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
    assert payload["count"] <= 4 and "plans" in payload


def test_cli_clique_trace(tmp_path, capsys):
    gpath = tmp_path / "c.txt"
    run_cli(["gen", "--kind", "planted-clique", "--n", "8", "--k", "4",
             "--p", "0.2", "--plant-count", "1", "--seed", "2",
             "-o", str(gpath)], capsys)
    tpath = tmp_path / "trace.json"
    code, out = run_cli(["detect-clique", "--k", "4", "--witness",
                         "--alpha", "0.3", "--depth", "2",
                         "--trace", str(tpath), "--json", str(gpath)], capsys)
    assert code == 0
    assert json.loads(out)["found"] is True
    trace = json.loads(tpath.read_text())
    assert all(node["branch"] in ("depth-cap", "heavy-vertex", "sparse-base")
               for node in trace)


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
    assert "2-part graph" in capsys.readouterr().err


def test_cli_verify_mismatch_exit(capsys, monkeypatch):
    # verify exits 1 when a check fails; use a stub check
    from cliquelab import verify as vmod
    monkeypatch.setitem(vmod.CHECKS, "triangle-detect",
                        lambda g: detect_naive(g) is None)
    code, out = run_cli(["verify", "--check", "triangle-detect", "--n", "6",
                         "--p", "0.9", "--instances", "2"], capsys)
    assert code == 1
    assert "reproducer" in out


def test_cli_bench_table(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code, out = run_cli(["bench", "--sizes", "16", "--engines", "naive",
                         "--repeats", "2", "-o", str(out_path)], capsys)
    assert code == 0
    assert "engine" in out
    assert json.loads(out_path.read_text())["schema"] == 1
