"""Bit-parallel triangle, k-clique and hyperclique workbench.

Core pieces: k-partite bit-row graphs, Four-Russians style triangle
detection and sparse listing, weak regularity partitions driving a
triangle-listing pipeline, a divide-and-conquer k-clique reduction, and a
compressed-table hyperclique lister, with generators, oracles, a
verification harness and a benchmark runner around them.
"""

from .bench import BenchReport, detect_scalar_reference, run_bench
from .core import (KPartiteGraph, NeighborSet, UniformHypergraph,
                   degree_product, kpartify, neighbors_in_part)
from .errors import (CliquelabError, InternalInconsistencyError,
                     InvalidParameterError, ParseError, ResourceLimitError)
from .generate import GenSpec, GeneratedInstance, generate
from .hyperclique import (BlockGeometry, HypercliqueParams,
                          adjacency_subgraph, assemble_rep, build_tables,
                          choose_block_size, compress_all, decode_compact,
                          detect_hyperclique, encode_compact,
                          formula_block_side, list_hypercliques)
from .io import parse, write
from .kclique import (CostProfile, RecursionParams, TraceNode, choose_params,
                      detect_kclique, find_heavy_vertex, find_witness,
                      kclique_via_k1)
from .listing import (RegularityListing, list_all_triangles, list_triangles,
                      list_triangles_detailed, list_triangles_threshold)
from .oracles import (UNBOUNDED, ListingResult, brute_hypercliques,
                      brute_kclique, brute_triangles)
from .regularity import (PseudoregularPartition, RegularityConfig,
                         check_pseudoregular_sampled, default_epsilon,
                         density, edge_count_between, weak_regular_partition)
from .triangle import (BlockEdgeTable, SparseFRParams, build_block_edge_table,
                       default_block_size, detect_four_russians, detect_naive,
                       list_sparse_four_russians, list_sparse_pivoted)
from .verify import run_verify

__version__ = "0.1.0"
