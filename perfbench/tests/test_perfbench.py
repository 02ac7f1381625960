"""Checks of the benchmark's instance families and its result contract.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
from argparse import Namespace

import pytest

import families
import reference
import run
from cliquelab import io as graphio
from cliquelab.oracles import brute_kclique, brute_triangles
from workloads import WORKLOADS


@pytest.mark.parametrize("n", [1, 2, 7, 12])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_triangle_free_family_has_no_triangle(n, p):
    G = families.triangle_free(n, p, seed=n)
    G.validate()
    assert brute_triangles(G).witnesses == []
    if n >= 2 and p == 1.0:
        # every part pair keeps edges: the family is dense, not empty
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            assert any(G.adjacency[u] & G.part_masks[b]
                       for u in G.part_vertices(a))


@pytest.mark.parametrize("seed", range(4))
def test_hub_family_clique_free_unless_planted(seed):
    free, _ = families.hub_k4(12, 0.7, seed, planted=False)
    free.validate()
    assert brute_kclique(free, 4) is None
    planted, plant = families.hub_k4(12, 0.7, seed, planted=True)
    planted.validate()
    assert brute_kclique(planted, 4) is not None
    assert all(planted.has_edge(u, v) for i, u in enumerate(plant)
               for v in plant[i + 1:])


def _text(obj) -> str:
    buf = io.StringIO()
    graphio.write(obj, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_text(name):
    make = WORKLOADS[name].make
    first = [_text(g) for g in make(3)]
    assert first == [_text(g) for g in make(3)]
    assert first != [_text(g) for g in make(4)]


def _declared(section):
    path = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_reports_declared_metrics(name, trace):
    res = run.run(Namespace(workload=name, seed=5, seconds=0.01,
                            trace=trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "trifree-detect", "--seed", "1",
                     "--seconds", "1"]) != 0


def test_host_speed_scales_by_mean_reference_around_sample():
    speed = reference.HostSpeed()
    nominal = reference.REF_NOMINAL_S
    speed.refs = [2 * nominal, 2 * nominal]
    speed.add("op", 1.0)                 # between refs[1] and refs[2]
    speed.refs += [4 * nominal, 4 * nominal, 100 * nominal]
    # the window is refs[0:4]: two before and two after the sample
    assert speed.scaled("op") == pytest.approx([1 / 3])
    assert speed.wall("op") == [1.0]
    assert speed.scaled("setup") == []
