"""Exact edge counts, weak (Frieze-Kannan style) regularity partitions, and
a sampled pseudoregularity checker.

The partitioner works on the bipartite view G[V2 u V3] of a graph of three
or more parts, under three settings: epsilon, sample_count and rng_seed.
It starts from one piece per side and, for at most ``_REFINEMENT_ROUNDS``
rounds, refines into at most 2^ceil(1/eps) pieces by the worst violating
sampled subset pair until the partition is verified.  Each round first tries
an exact certificate, a bound on the error of every disjoint subset pair from
the densities alone; only where it does not hold is the round verified by
sampling (exhaustive subset enumeration is exponential and out of scope), and
the partition keeps that check as its ``report``.  At the default epsilon
(0.25 below 2^16 vertices) the starting partition of any side pair with two
or more vertices is certified, so the default paths never sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .bitops import bits_to_list
from .core import KPartiteGraph
from .errors import InvalidParameterError

EPSILON_CLAMP = (0.02, 0.25)


def default_epsilon(n_total: int) -> float:
    """eps ~ 1/sqrt(log2 n), clamped to a desk-scale range."""
    lo, hi = EPSILON_CLAMP
    if n_total < 4:
        return hi
    return min(hi, max(lo, 1.0 / math.sqrt(math.log2(n_total))))


def _pair_count(G: KPartiteGraph, S: int, T: int) -> int:
    """Ordered pair count |{(u,v) in E : u in S, v in T}|."""
    adj = G.adjacency
    return sum((adj[u] & T).bit_count() for u in bits_to_list(S))


def edge_count_between(G: KPartiteGraph, S: int, T: int) -> int:
    """Exact e(S, T) for disjoint vertex masks, via word-AND popcounts."""
    if S & T:
        raise InvalidParameterError("S and T must be disjoint")
    return _pair_count(G, S, T)


_REFINEMENT_ROUNDS = 12


@dataclass
class RegularityConfig:
    """Settings of the partitioner and its sampled verifier."""

    epsilon: float
    sample_count: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError("need 0 < epsilon < 1")
        if self.sample_count < 1:
            raise InvalidParameterError("sample_count must be positive")


def _piece_cap(epsilon: float) -> int:
    """2^ceil(1/eps), capped at 2^62: _refine acts the same for any cap >=
    |V2 u V3|, and 1/eps may be huge or infinite."""
    inv = 1.0 / epsilon
    return 1 << (math.ceil(inv) if inv <= 62 else 62)


@dataclass
class PseudoregularPartition:
    """Pieces of U = V2 u V3 plus the pairwise density matrix."""

    pieces: List[int]                 # bitmasks, disjoint, covering U
    densities: List[List[Fraction]]   # delta_{i,j} incl. diagonal
    epsilon: float
    verified: bool = True
    report: Optional[SampledCheckReport] = None  # the check that verified it

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

    For each sampled (S, T): |e(S,T) - sum_ij delta_ij |S_i| |T_j|| <= eps n^2,
    with e(S,T) exact and the estimate summed in float64 over i, then j,
    skipping empty |S_i| and |T_j|.  The worst pair is the first sample of
    largest error, or None when every error is 0.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    if samples < 1:
        raise InvalidParameterError("samples must be positive")
    universe = P.universe()
    n = universe.bit_count()
    if n == 0:
        return SampledCheckReport(samples=samples, violations=0, max_error=0.0)
    rng = random.Random(seed)
    # Draw over the whole id space: on a view, n_total is smaller than the
    # highest id, and bits above it would never be sampled.
    nbits = max(len(G.adjacency), 1)
    dens = [[float(d) for d in row] for row in P.densities]
    violations, max_err, worst = 0, 0.0, None
    for _ in range(samples):
        S, T = _sample_disjoint_pair(rng, universe, nbits)
        t_sizes = [(T & p).bit_count() for p in P.pieces]
        est = 0.0
        for row, piece in zip(dens, P.pieces):
            si = (S & piece).bit_count()
            if not si:
                continue
            inner = 0.0
            for d, tj in zip(row, t_sizes):
                if tj:
                    inner += d * tj
            est += si * inner
        err = abs(_pair_count(G, S, T) - est)
        if err > max_err:
            max_err, worst = err, (S, T)
        if err > epsilon * n * n:
            violations += 1
    return SampledCheckReport(samples=samples, violations=violations,
                              max_error=max_err / (n * n), worst_pair=worst)


def _certified(P: PseudoregularPartition, epsilon: float) -> bool:
    """True when no disjoint S, T in the universe of n vertices can make
    ``check_pseudoregular_sampled(G, P, epsilon, ...)`` report a violation.

    A pair with density 0 or 1 has e(S_i, T_j) = d_ij |S_i| |T_j| on every
    S_i, T_j inside its pieces; otherwise the two differ by at most
    max(d_ij, 1 - d_ij) |S_i| |T_j|.  With m the largest such factor over
    the pairs with 0 < d_ij < 1, and sum_ij |S_i| |T_j| = |S| |T| <=
    floor(n^2 / 4), every error is at most B = m floor(n^2 / 4).  The check
    computes its estimate in float64: with pieces <= n and n < 2^17 the
    rounding of the products and sums stays below (2n + 3) n^2 2^-55 < 1/4,
    so B + 1 <= epsilon n^2, compared exactly (a Fraction against the same
    float threshold the check uses), rules out every violation.
    """
    n = P.universe().bit_count()
    m = max((max(d, 1 - d) for row in P.densities for d in row if 0 < d < 1),
            default=0)
    return n < 1 << 17 and m * (n * n // 4) + 1 <= epsilon * n * n


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


def weak_regular_partition(G: KPartiteGraph, cfg: RegularityConfig
                           ) -> PseudoregularPartition:
    """Construct a partition of U = V2 u V3 passing the eps-check.

    Iterative refinement: a round whose partition is ``_certified`` returns
    it; otherwise run the sampled check and, on violation, refine every
    piece by the worst sampled pair's S/T membership.  Deterministic given
    cfg.rng_seed.  If the rounds run out the best partition so far is
    returned flagged unverified.
    """
    if G.k < 3:
        raise InvalidParameterError(f"a {G.k}-part graph has no V2 u V3")
    sides = G.part_masks[1:3]
    universe = sides[0] | sides[1]
    if universe == 0:
        raise InvalidParameterError("bipartite view is empty")
    # start from one piece per side so side-aligned densities are exact
    pieces = [m for m in sides if m]
    cap = _piece_cap(cfg.epsilon)
    for round_no in range(_REFINEMENT_ROUNDS):
        P = PseudoregularPartition(pieces=pieces,
                                   densities=_density_matrix(G, pieces),
                                   epsilon=cfg.epsilon)
        if _certified(P, cfg.epsilon):
            return P
        report = check_pseudoregular_sampled(
            G, P, cfg.epsilon, cfg.sample_count,
            seed=cfg.rng_seed + 7919 * round_no)
        if report.violations == 0:
            P.report = report
            return P
        S, T = report.worst_pair
        pieces = _refine(pieces, S, T, universe, cap)
    return PseudoregularPartition(pieces=pieces,
                                  densities=_density_matrix(G, pieces),
                                  epsilon=cfg.epsilon, verified=False)
