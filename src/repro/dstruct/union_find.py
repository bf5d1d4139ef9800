"""Disjoint-set forest (Union-Find) with union by rank and path compression.

SGB-Any (paper Section 7, Procedure 8/9) keeps track of existing, newly
created, and merged groups with a Union-Find forest: every processed point is
an element, and a group is the set of points sharing a root.  The amortised
cost per operation is the inverse Ackermann function, which the paper's
complexity analysis (Appendix .2) relies on for the O(n log n) bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Union

from repro.exceptions import UnionFindError

__all__ = ["UnionFind"]


class UnionFind:
    """A dynamic disjoint-set forest over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._size: Dict[Hashable, int] = {}
        self._component_count = 0
        for element in elements:
            self.add(element)

    # -- basic operations ------------------------------------------------

    def add(self, element: Hashable) -> bool:
        """Add ``element`` as a singleton set; return False if already present."""
        if element in self._parent:
            return False
        self._parent[element] = element
        self._rank[element] = 0
        self._size[element] = 1
        self._component_count += 1
        return True

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        """Total number of elements tracked."""
        return len(self._parent)

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of ``element``'s set.

        Applies iterative path compression (pointing every node on the walk
        directly at the root).
        """
        if element not in self._parent:
            raise UnionFindError(f"element {element!r} was never added")
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Second pass: compress the path.
        node = element
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._component_count -= 1
        return ra

    def add_many(self, elements: Iterable[Hashable]) -> int:
        """Add a batch of elements as singleton sets; return how many were new."""
        parent = self._parent
        rank = self._rank
        size = self._size
        added = 0
        for element in elements:
            if element in parent:
                continue
            parent[element] = element
            rank[element] = 0
            size[element] = 1
            added += 1
        self._component_count += added
        return added

    def add_forest(self, forest: Mapping[Hashable, Hashable]) -> None:
        """Adopt a ready-made partition of new elements, one parent write each.

        ``forest`` maps every element to its set's representative, and each
        representative to itself: the flat shape :meth:`export_forest`
        produces, and the one SGB-Any connectivity labels
        (:meth:`repro.core.pointset.PointSet.components`) give.  No
        ``union`` runs.  Every element must be new to this forest.
        """
        parent = self._parent
        if not parent.keys().isdisjoint(forest):
            raise UnionFindError("add_forest elements must not be tracked yet")
        sizes = Counter(forest.values())
        for root in sizes:
            if forest.get(root) != root:
                raise UnionFindError(f"representative {root!r} must map to itself")
        parent.update(forest)
        self._rank.update(dict.fromkeys(forest, 0))
        self._size.update(dict.fromkeys(forest, 1))
        for root, size in sizes.items():
            if size > 1:
                self._size[root] = size
                self._rank[root] = 1
        self._component_count += len(sizes)

    def union_pairs(self, pairs: Iterable[tuple[Hashable, Hashable]]) -> int:
        """Merge a batch of ``(a, b)`` edges; return the number of real merges.

        The engine and the stream apply their few stitching edges (halo-band
        and cross-epoch) with it; batch-internal connectivity arrives as a
        whole through :meth:`add_forest`.
        """
        before = self._component_count
        union = self.union
        for a, b in pairs:
            union(a, b)
        return before - self._component_count

    def union_many(self, elements: Iterable[Hashable]) -> Hashable | None:
        """Merge every element in ``elements`` into one set; return its root."""
        root: Hashable | None = None
        for element in elements:
            if root is None:
                root = self.find(element)
            else:
                root = self.union(root, element)
        return root

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Return True if ``a`` and ``b`` currently belong to the same set."""
        return self.find(a) == self.find(b)

    # -- component inspection ---------------------------------------------

    @property
    def component_count(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._component_count

    def component_size(self, element: Hashable) -> int:
        """Return the size of the set containing ``element``."""
        return self._size[self.find(element)]

    def components(self) -> Dict[Hashable, List[Hashable]]:
        """Return a mapping from set representative to the members of that set."""
        groups: Dict[Hashable, List[Hashable]] = {}
        for element in self._parent:
            groups.setdefault(self.find(element), []).append(element)
        return groups

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)

    # -- forest exchange (sharded execution) --------------------------------

    def export_forest(self) -> Dict[Hashable, Hashable]:
        """Return a flat ``{element -> root}`` snapshot of the forest.

        The mapping is fully path-compressed (every element points directly at
        its set representative), so it round-trips through pickling compactly
        and can be replayed into another forest with :meth:`merge_from`.  This
        is the wire format the sharded SGB engine uses to ship per-shard
        grouping state back from worker processes.
        """
        return {element: self.find(element) for element in self._parent}

    def split_forest(
        self, elements: Iterable[Hashable]
    ) -> "tuple[Dict[Hashable, Hashable], Dict[Hashable, Hashable]]":
        """Split the exported forest around the components touching ``elements``.

        Returns ``(touched, untouched)``: two ``{element -> root}`` mappings
        covering every tracked element, where ``touched`` holds exactly the
        members of components containing at least one of ``elements``.  This
        is the eviction primitive of the streaming window subsystem: when an
        epoch of points expires, only the *touched* components need re-linking
        from the retained per-epoch forests and cross-epoch edges, while the
        *untouched* mapping can be replayed verbatim into the rebuilt forest.
        """
        touched_roots = {self.find(element) for element in elements}
        touched: Dict[Hashable, Hashable] = {}
        untouched: Dict[Hashable, Hashable] = {}
        for element in self._parent:
            root = self.find(element)
            if root in touched_roots:
                touched[element] = root
            else:
                untouched[element] = root
        return touched, untouched

    def relabel(
        self, mapping: "Union[Mapping[Hashable, Hashable], Callable[[Hashable], Hashable]]"
    ) -> "UnionFind":
        """Return a new forest with every element renamed through ``mapping``.

        ``mapping`` is either a dict-like (``mapping[element]``) or a callable
        (``mapping(element)``); it must be injective over the tracked elements.
        The sharded engine uses this to lift shard-local point positions
        (``0..k``) into global input row indices before merging forests.
        """
        translate = mapping if callable(mapping) else mapping.__getitem__
        forest = self.export_forest()
        renamed = {element: translate(element) for element in forest}
        out = UnionFind()
        for new_element in renamed.values():
            if not out.add(new_element):
                raise UnionFindError(
                    f"relabel mapping is not injective: {new_element!r} appears twice"
                )
        for element, root in forest.items():
            if element != root:
                out.union(renamed[element], renamed[root])
        return out

    def merge_from(
        self,
        other: "UnionFind | Mapping[Hashable, Hashable]",
        translate: "Union[Mapping[Hashable, Hashable], Callable[[Hashable], Hashable], None]" = None,
    ) -> int:
        """Absorb another forest (or an exported ``{element -> root}`` mapping).

        Elements missing from this forest are added; every element is then
        unioned with its root, so all of ``other``'s groupings hold here too
        (existing groupings are preserved — merging is monotone).  ``translate``
        optionally renames ``other``'s elements on the way in, which is how
        shard-local forests land in the global index space without building an
        intermediate relabelled copy.  Returns the number of set merges that
        actually happened.
        """
        forest = other.export_forest() if isinstance(other, UnionFind) else other
        if translate is not None and not callable(translate):
            translate = translate.__getitem__
        before = self._component_count
        added = 0
        for element, root in forest.items():
            if translate is not None:
                element = translate(element)
                root = translate(root)
            added += self.add(element)
            if element != root:
                added += self.add(root)
                self.union(element, root)
        # Fresh elements arrive as singletons, so subtract them out: what is
        # left is the number of pre-existing set boundaries that collapsed.
        return before + added - self._component_count
