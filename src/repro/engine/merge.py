"""Merge stage: combine per-shard Union-Find forests into one global forest.

Each worker returns the exported forest of its shard-local grouper, keyed by
shard-local point positions (``0..k``).  The merge relabels those elements
into global input row indices through the shard's index list and adopts
them whole (:meth:`UnionFind.add_forest`), then applies the halo-band
spanning edges that stitch neighbouring shards together.  Canonical
relabelling afterwards makes the output independent of shard count and worker
scheduling: groups are ordered by their smallest member and members ascend,
exactly the order :meth:`SGBAnyGrouper.finalize` produces serially.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.result import canonicalize_groups
from repro.dstruct.union_find import UnionFind

__all__ = ["canonical_groups", "merge_shard_forests"]


def merge_shard_forests(
    n_points: int,
    shard_index_lists: Sequence[Sequence[int]],
    forests: Sequence[Dict[int, int]],
    boundary_edges: Iterable[Tuple[int, int]] = (),
) -> UnionFind:
    """Build the global forest from per-shard forests plus boundary edges.

    ``forests[i]`` maps shard-local positions to shard-local roots (flat,
    as :meth:`UnionFind.export_forest` ships them);
    ``shard_index_lists[i]`` lifts those positions into global row indices.
    Shards hold disjoint rows, so each lifted forest is adopted with one
    parent write per row (:meth:`UnionFind.add_forest`).
    ``boundary_edges`` are global-index eps-edges discovered in the halo
    bands.  Every row in ``range(n_points)`` ends up tracked, so rows whose
    shard put them in a singleton group survive the merge.
    """
    uf = UnionFind()
    for indices, forest in zip(shard_index_lists, forests):
        uf.add_forest({indices[element]: indices[root] for element, root in forest.items()})
    uf.add_many(range(n_points))
    uf.union_pairs(boundary_edges)
    return uf


def canonical_groups(uf: UnionFind) -> List[List[int]]:
    """Return the components under the canonical SGB-Any labelling.

    Delegates to the same :func:`canonicalize_groups` helper the serial
    grouper's ``finalize`` uses, so the parallel and serial orderings are
    single-sourced and cannot drift apart.
    """
    return canonicalize_groups(uf.components().values())
