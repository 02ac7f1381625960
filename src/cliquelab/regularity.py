"""Densities, weak (Frieze-Kannan style) regularity partitions, and a
sampled pseudoregularity checker.

The partitioner works on the bipartite view G[V2 u V3] of a 3-part graph.
It starts from the one-piece partition and iteratively refines by the worst
violating sampled subset pair until the sampled check passes or the budget
runs out.  Verification is by sampling: exhaustive subset enumeration is
exponential and out of scope.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import KPartiteGraph
from .errors import InvalidParameterError

EPSILON_CLAMP = (0.02, 0.25)


def default_epsilon(n_total: int) -> float:
    """eps ~ 1/sqrt(log2 n), clamped to a desk-scale range."""
    lo, hi = EPSILON_CLAMP
    if n_total < 4:
        return hi
    return min(hi, max(lo, 1.0 / math.sqrt(math.log2(n_total))))


def _as_mask(S) -> int:
    if isinstance(S, int):
        return S
    m = 0
    for v in S:
        m |= 1 << v
    return m


def _pair_count(G: KPartiteGraph, S: int, T: int) -> int:
    """Ordered pair count |{(u,v) in E : u in S, v in T}|."""
    total = 0
    bits = S
    while bits:
        low = bits & -bits
        u = low.bit_length() - 1
        bits ^= low
        total += (G.adjacency[u] & T).bit_count()
    return total


def edge_count_between(G: KPartiteGraph, S, T) -> int:
    """Exact e(S, T) for disjoint vertex sets, via word-AND popcounts."""
    Sm, Tm = _as_mask(S), _as_mask(T)
    if Sm & Tm:
        raise InvalidParameterError("S and T must be disjoint")
    return _pair_count(G, Sm, Tm)


def density(G: KPartiteGraph, S, T) -> Fraction:
    """delta(S, T) = e(S, T) / (|S| * |T|), exact rational."""
    Sm, Tm = _as_mask(S), _as_mask(T)
    ns, nt = Sm.bit_count(), Tm.bit_count()
    if ns == 0 or nt == 0:
        raise InvalidParameterError("S and T must be nonempty")
    return Fraction(edge_count_between(G, Sm, Tm), ns * nt)


@dataclass
class RegularityConfig:
    """Knobs for the partitioner and the sampled verifier."""

    epsilon: float
    fail_prob: float = 0.1
    max_pieces: Optional[int] = None
    refinement_budget: int = 12
    sample_count: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError("need 0 < epsilon < 1")
        if not 0 < self.fail_prob < 1:
            raise InvalidParameterError("need 0 < fail_prob < 1")
        if self.refinement_budget < 1 or self.sample_count < 1:
            raise InvalidParameterError("budgets must be positive")
        if self.max_pieces is None:
            self.max_pieces = 1 << math.ceil(1.0 / self.epsilon)


@dataclass
class PseudoregularPartition:
    """Pieces of U = V2 u V3 plus the pairwise density matrix."""

    pieces: List[int]                 # bitmasks, disjoint, covering U
    densities: List[List[Fraction]]   # delta_{i,j} incl. diagonal
    epsilon: float
    verified: bool = True

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def universe(self) -> int:
        m = 0
        for p in self.pieces:
            m |= p
        return m


@dataclass
class SampledCheckReport:
    samples: int
    violations: int
    max_error: float       # max |e(S,T) - estimate| / n^2
    worst_pair: Optional[Tuple[int, int]] = None   # (S, T) masks

    @property
    def pass_fraction(self) -> float:
        return 1.0 - self.violations / self.samples


def _density_matrix(G: KPartiteGraph, pieces: List[int]) -> List[List[Fraction]]:
    kp = len(pieces)
    out = [[Fraction(0)] * kp for _ in range(kp)]
    sizes = [p.bit_count() for p in pieces]
    for i in range(kp):
        for j in range(kp):
            if sizes[i] and sizes[j]:
                out[i][j] = Fraction(_pair_count(G, pieces[i], pieces[j]),
                                     sizes[i] * sizes[j])
    return out


def _sample_disjoint_pair(rng: random.Random, universe: int, nbits: int
                          ) -> Tuple[int, int]:
    """Per-vertex draw into S / T / neither; overlapping draws resampled."""
    S = T = 0
    remaining = universe
    while remaining:
        a = rng.getrandbits(nbits) & remaining
        b = rng.getrandbits(nbits) & remaining
        S |= a & ~b
        T |= b & ~a
        remaining &= a & b
    return S, T


def check_pseudoregular_sampled(G: KPartiteGraph, P: PseudoregularPartition,
                                epsilon: float, samples: int, seed: int
                                ) -> SampledCheckReport:
    """Evaluate the defining inequality on random disjoint subset pairs.

    For each sampled (S, T): |e(S,T) - sum_ij delta_ij |S_i| |T_j|| <= eps n^2.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    universe = P.universe()
    n = universe.bit_count()
    if n == 0:
        return SampledCheckReport(samples=samples, violations=0, max_error=0.0)
    rng = random.Random(seed)
    # Draw over the whole id space: on a view, n_total is smaller than the
    # highest id, and bits above it would never be sampled.
    nbits = max(len(G.adjacency), 1)
    dens = [[float(d) for d in row] for row in P.densities]
    bound = epsilon * n * n
    violations = 0
    max_err = 0.0
    worst = None
    for _ in range(samples):
        S, T = _sample_disjoint_pair(rng, universe, nbits)
        exact = _pair_count(G, S, T)
        est = 0.0
        s_sizes = [(S & p).bit_count() for p in P.pieces]
        t_sizes = [(T & p).bit_count() for p in P.pieces]
        for i, si in enumerate(s_sizes):
            if not si:
                continue
            row = dens[i]
            est += si * sum(row[j] * tj for j, tj in enumerate(t_sizes) if tj)
        err = abs(exact - est)
        if err > max_err:
            max_err = err
            worst = (S, T)
        if err > bound:
            violations += 1
    return SampledCheckReport(samples=samples, violations=violations,
                              max_error=max_err / (n * n), worst_pair=worst)


def _refine(pieces: List[int], S: int, T: int, universe: int,
            max_pieces: int) -> List[int]:
    """Split every piece by S/T membership, then fold undersized pieces
    into one residual piece to respect the piece cap."""
    n = universe.bit_count()
    split: List[int] = []
    for p in pieces:
        for part in (p & S, p & T, p & ~(S | T)):
            if part:
                split.append(part)
    min_size = max(1, n // max_pieces)
    kept = [p for p in split if p.bit_count() >= min_size]
    residual = 0
    for p in split:
        if p.bit_count() < min_size:
            residual |= p
    if residual:
        kept.append(residual)
    while len(kept) > max_pieces:
        # fold the two smallest pieces together
        kept.sort(key=lambda p: p.bit_count())
        kept[1] |= kept[0]
        kept.pop(0)
    return kept


def weak_regular_partition(G: KPartiteGraph, cfg: RegularityConfig,
                           parts: Tuple[int, int] = (1, 2)
                           ) -> PseudoregularPartition:
    """Construct a partition of U = V2 u V3 passing the sampled eps-check.

    Iterative refinement: run the sampled check; on violation, refine every
    piece by the worst sampled pair's S/T membership.  Deterministic given
    cfg.rng_seed.  If the budget runs out the best partition so far is
    returned flagged unverified.
    """
    if len(parts) != 2 or parts[0] == parts[1] or not all(
            0 <= i < G.k for i in parts):
        raise InvalidParameterError(
            f"parts {tuple(parts)} are not two distinct parts of a "
            f"{G.k}-part graph")
    universe = 0
    for i in parts:
        universe |= G.part_masks[i]
    if universe == 0:
        raise InvalidParameterError("bipartite view is empty")
    # start from one piece per side so side-aligned densities are exact
    pieces = [G.part_masks[i] for i in parts if G.part_masks[i]]
    for round_no in range(cfg.refinement_budget):
        P = PseudoregularPartition(pieces=pieces,
                                   densities=_density_matrix(G, pieces),
                                   epsilon=cfg.epsilon)
        report = check_pseudoregular_sampled(
            G, P, cfg.epsilon, cfg.sample_count,
            seed=cfg.rng_seed + 7919 * round_no)
        if report.violations == 0:
            return P
        S, T = report.worst_pair
        pieces = _refine(pieces, S, T, universe, cfg.max_pieces)
    P = PseudoregularPartition(pieces=pieces,
                               densities=_density_matrix(G, pieces),
                               epsilon=cfg.epsilon, verified=False)
    return P
