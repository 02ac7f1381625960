"""Hyperclique listing through compact representations and lookup tables.

Builds a planted 3-uniform 4-partite instance, shows the chosen block
side and representation length, inspects one compact encoding assembled
from the grouped segment cache, counts the (v, j) pairs the part-0 masks
let through to a table probe, and lists hypercliques with the table
engine against the brute-force count.  The closing t=2 run passes no
params, so it uses the default lister, the link-mask DFS.
"""

from itertools import islice

from cliquelab import (GenSpec, HypercliqueParams, brute_hypercliques,
                       build_tables, choose_block_size, compress_all,
                       generate, list_hypercliques)


def main() -> None:
    spec = GenSpec("planted-hyperclique", n_per_part=8, k=4, p=0.08, seed=5,
                   r=3, plant_count=2)
    inst = generate(spec)
    H = inst.graph
    print(f"instance: 4 parts x {spec.n_per_part}, 3-uniform, "
          f"{len(H.edges)} hyperedges, planted {inst.witnesses}")

    auto = choose_block_size(max(2, max(H.part_sizes)), 4, 3)
    print(f"auto block side for n={max(H.part_sizes)}: s={auto.s}, L={auto.L}")
    # use s=2 here so the compact representation has some texture
    params = HypercliqueParams(s=2, k=4, r=3)
    print(f"demo block side s={params.s}: representation length "
          f"L={params.L} bits ({len(params.index_sets)} index-set segments "
          f"of {params.segment_length} bits)")

    # G_v, the pairs completing a hyperedge with v, as compressed segments:
    # the cache groups them by segment key (I, j_I), each with the mask of
    # the part-0 vertices that have a segment there
    v = inst.witnesses[0][0]
    tables = build_tables(H, params)
    geo = tables.geometry
    cache = compress_all(tables)
    segments = {key: segs[v] for key, (mask, segs) in cache.items()
                if (mask >> v) & 1}
    j0 = (0, 0, 0)
    rep = 0
    for I in geo.index_sets:
        rep |= segments.get((I, (0, 0)), 0)
    # the rep's pairs, read back from the placements tuple_bit made for the
    # tuples the engine read (G_v's among them): those whose segment key
    # lies in j0 and whose bit is set
    pairs = sorted(sub for sub, ((I, jI), bit) in tables.placements.items()
                   if jI == tuple(j0[slot] for slot in I) and rep & bit)
    print(f"adjacency subgraph of vertex {v}: "
          f"{sum(seg.bit_count() for seg in segments.values())} pair edges "
          f"in {len(segments)} segments; compact rep of block tuple {j0}: "
          f"{rep:#x} = {pairs}")

    # the probe visits block tuple j for vertex v only if v lies in the AND
    # of the part-0 masks of j's segment keys
    probed = 0
    for j in tables.entries:
        mask = H.part_masks[0]
        for I in geo.index_sets:
            mask &= cache.get((I, tuple(j[slot] for slot in I)), (0, {}))[0]
        probed += mask.bit_count()
    print(f"probe: {probed} of {H.part_sizes[0] * len(tables.entries)} "
          f"(v, j) pairs over {len(tables.entries)} populated block tuples "
          f"pass the part-0 masks")

    res = list_hypercliques(H, 4, params=params)
    truth = brute_hypercliques(H, 4)
    print(f"table-driven listing: {len(res)} hypercliques "
          f"(brute force: {len(truth)}, "
          f"set match = {res.as_set() == truth.as_set()})")
    print("first few:", list(islice(res.witnesses, 4)))

    # no params: the default link-mask DFS, in lexicographic order
    bounded = list_hypercliques(H, 4, t=2)
    print(f"t=2 run (link-mask DFS): {len(bounded)} witnesses, "
          f"truncated={bounded.truncated}, {bounded.witnesses}")


if __name__ == "__main__":
    main()
