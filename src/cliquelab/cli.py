"""Command-line workbench binding the engines together.

Exit codes: 0 ok, 1 verification mismatch, 2 invalid input, 3 resource
limit exceeded.
"""

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional

from . import io as graphio
from .bench import ENGINES, run_bench
from .bitops import bits_to_list
from .core import KPartiteGraph, UniformHypergraph
from .errors import (InvalidParameterError, ParseError, ResourceLimitError)
from .generate import KINDS, GenSpec, generate
from .hyperclique import (HypercliqueParams, choose_block_size,
                          detect_hyperclique, list_hypercliques)
from .kclique import (RecursionParams, TraceNode, choose_params,
                      detect_kclique, find_witness)
from .listing import list_triangles_detailed
from .regularity import (RegularityConfig, check_pseudoregular_sampled,
                         default_epsilon, weak_regular_partition)
from .triangle import (SparseFRParams, build_block_edge_table,
                       default_block_size, detect_four_russians, detect_naive,
                       list_sparse_four_russians, list_sparse_pivoted)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _load(path: str):
    with open(path) as fh:
        return graphio.parse(fh)


def _load_graph(path: str) -> KPartiteGraph:
    obj = _load(path)
    if not isinstance(obj, KPartiteGraph):
        raise InvalidParameterError(f"{path} is not a k-partite graph file")
    return obj


def _load_hypergraph(path: str) -> UniformHypergraph:
    obj = _load(path)
    if not isinstance(obj, UniformHypergraph):
        raise InvalidParameterError(f"{path} is not a hypergraph file")
    return obj


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# -- subcommand handlers ---------------------------------------------------


def cmd_gen(args) -> int:
    spec = GenSpec(kind=args.kind, n_per_part=args.n, k=args.k, p=args.p,
                   seed=args.seed, r=args.r, plant_count=args.plant_count)
    inst = generate(spec)
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        graphio.write(inst.graph, out)
    finally:
        if out is not sys.stdout:
            out.close()
    if inst.witnesses and args.output != "-":
        print(f"planted {len(inst.witnesses)} witnesses")
    return EXIT_OK


def cmd_detect_triangle(args) -> int:
    G = _load_graph(args.file)
    if args.algo == "naive":
        witness = detect_naive(G)
    else:
        b = args.block_size or default_block_size(G.n_total)
        table = build_block_edge_table(G, b)
        witness = detect_four_russians(G, table)
    _emit({"found": witness is not None,
           "witness": list(witness) if witness else None}, args.json)
    return EXIT_OK


def cmd_list_triangles(args) -> int:
    G = _load_graph(args.file)
    t = args.t
    if args.algo == "regularity":
        cfg = RegularityConfig(
            epsilon=args.epsilon or default_epsilon(G.n_total),
            rng_seed=args.seed)
        detail = list_triangles_detailed(G, t, cfg)
        res = detail.result
        payload = {
            "count": len(res.witnesses),
            "truncated": res.truncated,
            "witnesses": [list(w) for w in res.witnesses],
            "partition_verified": detail.partition_verified,
            "piece_count": detail.piece_count,
            "plans": [asdict(p) for p in detail.plans],
        }
    else:
        params = (SparseFRParams.paper(G) if args.paper_params
                  else SparseFRParams.defaults(G))
        lister = (list_sparse_pivoted if args.algo == "sparse-fr-pivot"
                  else list_sparse_four_russians)
        res = lister(G, t, params)
        payload = {
            "count": len(res.witnesses),
            "truncated": res.truncated,
            "witnesses": [list(w) for w in res.witnesses],
        }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_detect_clique(args) -> int:
    G = _load_graph(args.file)
    base = detect_naive if args.base == "naive" else detect_four_russians
    params: Optional[RecursionParams] = None
    if args.alpha is not None or args.depth is not None:
        if args.alpha is None or args.depth is None:
            raise InvalidParameterError("--alpha and --depth go together")
        params = RecursionParams(depth_cap=args.depth, alpha=args.alpha)
    elif not args.paper_params:
        params = choose_params(max(2, G.n_total), args.k)
    trace: Optional[List[TraceNode]] = [] if args.trace else None

    def detector(g: KPartiteGraph, k: int) -> bool:
        return detect_kclique(g, k, triangle_detector=base, params=params,
                              trace=trace)

    if args.witness:
        witness = find_witness(detector, G, args.k)
        payload = {"found": witness is not None,
                   "witness": list(witness) if witness else None}
    else:
        payload = {"found": detector(G, args.k)}
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump([asdict(t) for t in trace], fh, indent=2)
        payload["trace"] = args.trace
    _emit(payload, args.json)
    return EXIT_OK


def cmd_detect_hyperclique(args) -> int:
    H = _load_hypergraph(args.file)
    params = _hyper_params(H, args)
    found = detect_hyperclique(H, args.k, params=params)
    _emit({"found": found}, args.json)
    return EXIT_OK


def _hyper_params(H: UniformHypergraph, args) -> Optional[HypercliqueParams]:
    if args.max_table_bits is None:
        return None
    n = max(2, max(H.part_sizes))
    return choose_block_size(n, args.k, H.r, max_table_bits=args.max_table_bits)


def cmd_list_hypercliques(args) -> int:
    H = _load_hypergraph(args.file)
    params = _hyper_params(H, args)
    res = list_hypercliques(H, args.k, t=args.t, params=params)
    _emit({"count": len(res.witnesses), "truncated": res.truncated,
           "witnesses": [list(w) for w in res.witnesses]}, args.json)
    return EXIT_OK


def cmd_regularity(args) -> int:
    G = _load_graph(args.file)
    epsilon = args.epsilon or default_epsilon(G.n_total)
    cfg = RegularityConfig(epsilon=epsilon, sample_count=args.samples,
                           rng_seed=args.seed)
    P = weak_regular_partition(G, cfg)
    report = check_pseudoregular_sampled(G, P, epsilon, args.samples,
                                         seed=args.seed)
    payload = {
        "pieces": [bits_to_list(p) for p in P.pieces],
        "densities": [[float(d) for d in row] for row in P.densities],
        "epsilon": epsilon,
        "verified": P.verified,
        "violations": report.violations,
        "max_error": report.max_error,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import gnp_sweep, run_verify
    kind = ("gnp-hypergraph" if args.check.startswith("hyperclique")
            else "gnp-kpartite")
    specs = gnp_sweep(kind, args.n, args.k, args.p,
                      range(args.seed, args.seed + args.instances),
                      r=args.r)
    report = run_verify(args.check, specs)
    print(f"{args.check}: {report.instances} instances, "
          f"{len(report.failures)} failures")
    for fail in report.failures:
        print(f"mismatch for {fail.spec}")
        print("reproducer:")
        print(fail.reproducer)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_bench(args) -> int:
    report = run_bench(args.sizes, p=args.p, seed=args.seed,
                       engines=args.engines, repeats=args.repeats)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.to_json())
    if args.json:
        print(report.to_json())
    else:
        print(f"{'engine':>14} {'n/part':>7} {'median_s':>12} {'decision':>8}")
        for row in report.rows:
            med = "resource" if row.error else f"{row.median_seconds:.6f}"
            print(f"{row.engine:>14} {row.n_per_part:>7} {med:>12} "
                  f"{str(row.decision):>8}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cliquelab",
        description="triangle / k-clique / hyperclique workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="vertices per part")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--plant-count", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect-triangle")
    p.add_argument("--algo", choices=("naive", "fr"), default="naive")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_detect_triangle)

    p = sub.add_parser("list-triangles")
    p.add_argument("--algo",
                   choices=("sparse-fr", "sparse-fr-pivot", "regularity"),
                   default="sparse-fr")
    p.add_argument("--t", type=int, default=None,
                   help="stop after t triangles (default: list all)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-params", action="store_true",
                   help="literal formula parameters, clamped to the guards")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_list_triangles)

    p = sub.add_parser("detect-clique")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", choices=("naive", "fr"), default="naive")
    p.add_argument("--paper-params", action="store_true",
                   help="derive D and alpha from the formulas at call time")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--trace", default=None, help="write recursion trace JSON")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_detect_clique)

    p = sub.add_parser("detect-hyperclique")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-table-bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_detect_hyperclique)

    p = sub.add_parser("list-hypercliques")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--max-table-bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_list_hypercliques)

    p = sub.add_parser("regularity")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("verify")
    p.add_argument("--check", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--p", type=float, nargs="+", default=[0.1, 0.3, 0.5])
    p.add_argument("--instances", type=int, default=10,
                   help="seeds per probability")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench")
    p.add_argument("--sizes", type=int, nargs="+", default=[256, 512])
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--engines", nargs="+", default=list(ENGINES),
                   choices=list(ENGINES))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
