"""Bit-parallel triangle, k-clique and hyperclique workbench.

Core pieces: k-partite bit-row graphs, Four-Russians style triangle
detection and row-AND triangle listing, weak regularity partitions driving a
triangle-listing pipeline, a divide-and-conquer k-clique reduction, and a
link-mask DFS hyperclique lister with the paper's compressed-table engine
as its reference, with generators, oracles and a verification harness
around them.  The engine benchmark is ``perfbench/``.
"""

from .core import KPartiteGraph, UniformHypergraph
from .errors import (CliquelabError, InternalInconsistencyError,
                     InvalidParameterError, ParseError, ResourceLimitError)
from .generate import GenSpec, GeneratedInstance, generate
from .hyperclique import (BlockGeometry, HypercliqueParams, build_tables,
                          choose_block_size, compress_all, detect_hyperclique,
                          formula_block_side, list_hypercliques)
from .io import parse, write
from .kclique import (RecursionParams, TraceNode, choose_params,
                      detect_kclique, find_heavy_vertex, find_kclique,
                      find_witness, kclique_via_k1)
from .listing import RegularityListing, list_all_triangles, list_triangles
from .oracles import (UNBOUNDED, ListingResult, brute_hypercliques,
                      brute_kclique, brute_triangles)
from .regularity import (PseudoregularPartition, RegularityConfig,
                         check_pseudoregular_sampled, default_epsilon,
                         edge_count_between, weak_regular_partition)
from .triangle import (BlockEdgeTable, build_block_edge_table,
                       default_block_size, detect_four_russians, detect_naive,
                       list_row_and)
from .verify import run_verify

__version__ = "0.1.0"
