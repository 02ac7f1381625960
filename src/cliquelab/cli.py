"""Command-line workbench binding the engines together.

Exit codes: 0 ok, 1 verification mismatch, 2 invalid input, 3 resource
limit exceeded or memory exhausted.  A reader that closes the output pipe
early (``| head``) ends the run quietly with exit 0.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

from . import io as graphio
from .bitops import bits_to_list
from .core import KPartiteGraph, UniformHypergraph
from .errors import (InvalidParameterError, ParseError, ResourceLimitError)
from .generate import KINDS, GenSpec, generate
from .hyperclique import detect_hyperclique, list_hypercliques
from .kclique import RecursionParams, TraceNode, find_kclique
from .listing import list_triangles
from .regularity import (RegularityConfig, check_pseudoregular_sampled,
                         default_epsilon, weak_regular_partition)
from .triangle import detect_four_russians, detect_naive, list_row_and

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
    naive = args.algo == "naive"
    if naive and args.block_size is not None:
        raise InvalidParameterError("--block-size applies only to --algo fr")
    G = _load_graph(args.file)
    witness = (detect_naive(G) if naive
               else detect_four_russians(G, args.block_size))
    _emit({"found": witness is not None,
           "witness": list(witness) if witness else None}, args.json)
    return EXIT_OK


def cmd_list_triangles(args) -> int:
    regularity = args.algo == "regularity"
    if not regularity and (args.epsilon is not None or args.seed is not None):
        raise InvalidParameterError(
            "--epsilon and --seed apply only to --algo regularity")
    G = _load_graph(args.file)
    extra = {}
    if regularity:
        cfg = RegularityConfig(
            epsilon=(default_epsilon(G.n_total) if args.epsilon is None
                     else args.epsilon),
            rng_seed=0 if args.seed is None else args.seed)
        detail = list_triangles(G, args.t, cfg)
        res = detail.result
        extra = {"partition_verified": detail.partition_verified,
                 "piece_count": detail.piece_count,
                 "plans": [asdict(p) for p in detail.plans]}
    else:
        res = list_row_and(G, args.t)
    _emit({"count": len(res.witnesses), "truncated": res.truncated,
           "witnesses": [list(w) for w in res.witnesses], **extra}, args.json)
    return EXIT_OK


def cmd_detect_clique(args) -> int:
    G = _load_graph(args.file)
    base = detect_naive if args.base == "naive" else detect_four_russians
    params = None       # find_kclique's own choose_params default
    if args.alpha is not None or args.depth is not None:
        if args.alpha is None or args.depth is None:
            raise InvalidParameterError("--alpha and --depth go together")
        params = RecursionParams(depth_cap=args.depth, alpha=args.alpha)
    trace: Optional[List[TraceNode]] = [] if args.trace else None
    witness = find_kclique(G, args.k, base, params, trace)
    payload = {"found": witness is not None}
    if args.witness:
        payload["witness"] = list(witness) if witness else None
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump([asdict(t) for t in trace], fh, indent=2)
        payload["trace"] = args.trace
    _emit(payload, args.json)
    return EXIT_OK


def cmd_detect_hyperclique(args) -> int:
    H = _load_hypergraph(args.file)
    found = detect_hyperclique(H, args.k)
    _emit({"found": found}, args.json)
    return EXIT_OK


def cmd_list_hypercliques(args) -> int:
    H = _load_hypergraph(args.file)
    res = list_hypercliques(H, args.k, t=args.t)
    _emit({"count": len(res.witnesses), "truncated": res.truncated,
           "witnesses": [list(w) for w in res.witnesses]}, args.json)
    return EXIT_OK


def cmd_regularity(args) -> int:
    G = _load_graph(args.file)
    epsilon = (default_epsilon(G.n_total) if args.epsilon is None
               else args.epsilon)
    cfg = RegularityConfig(epsilon=epsilon, sample_count=args.samples,
                           rng_seed=args.seed)
    P = weak_regular_partition(G, cfg)
    report = P.report or check_pseudoregular_sampled(
        G, P, epsilon, args.samples, seed=args.seed)
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
    p.add_argument("--algo", choices=("sparse-fr", "regularity"),
                   default="sparse-fr",
                   help="sparse-fr: the row-AND lister; regularity: the "
                        "regularity-partition pipeline, which also prints "
                        "its piece-pair plans")
    p.add_argument("--t", type=int, default=None,
                   help="stop after t triangles (default: list all)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="partition seed (default 0); --algo regularity only")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_list_triangles)

    p = sub.add_parser("detect-clique")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", choices=("naive", "fr"), default="naive")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--trace", default=None, help="write recursion trace JSON")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_detect_clique)

    p = sub.add_parser("detect-hyperclique")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_detect_hyperclique)

    p = sub.add_parser("list-hypercliques")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
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

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()          # a late EPIPE surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone; send the unflushed rest to devnull so the
        # interpreter's shutdown flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
