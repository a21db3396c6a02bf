"""Witness paths along the merge forest of a reduced-mode build.

A reduced-mode witness is a walk in the laminar family's merge forest
between a few tree anchors.  `Witnesses` keeps the forest's edges and each
hopset edge's anchors, and expands a witness each time it is read, keeping
no expanded path; `SpanningForest` roots the forest once and walks each
forest path by parent pointers, so a path costs its own length.  Only full
checks such as `validate_witnesses` read every witness; a query through a
reduced hopset with beta >= n - 1 reads none, since a padded edge is
strictly longer than the distance it spans and no shortest union path
takes it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scale_reduction import forest_adjacency
from .util import HopsetError


class Witnesses(Sequence):
    """Witness paths kept as merge-forest anchors, each expanded when read.

    Item i is the graph path behind hopset edge i.  `anchors[i]` holds it as
    (x1, y1, x2, y2, ...): each pair is joined by its unique walk in
    `forest`, a list of (u, v, w) edges, and the walks concatenate into the
    path (see `hopset._tree_anchors`).  The forest is rooted on the first
    read; a pair it does not join raises a `HopsetError` worded as
    `load_hopset` words it.  Instances are equal when their forests and anchors are.
    """

    def __init__(self, forest: list[tuple[int, int, int]], anchors: list[tuple[int, ...]]):
        self.forest = forest
        self.anchors = anchors
        self._spanning: SpanningForest | None = None

    def __len__(self) -> int:
        return len(self.anchors)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        if self._spanning is None:
            self._spanning = SpanningForest(forest_adjacency(self.forest))
        anchors, walk = self.anchors[i], []
        for a, b in zip(anchors[::2], anchors[1::2]):
            try:
                walk.extend(self._spanning.path(a, b))
            except HopsetError:
                fault = f"edge {i}: anchors {a + 1} and {b + 1} are not joined by the forest"
                raise HopsetError(fault) from None
        return tuple(walk)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Witnesses):
            return NotImplemented
        return (self.forest, self.anchors) == (other.forest, other.anchors)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Witnesses({self.forest!r}, {self.anchors!r})"


class SpanningForest:
    """A forest given by adjacency, kept as parent and depth maps.

    Each tree is rooted at its first vertex in `tree`'s order.  `path`
    climbs from the deeper end until the two ends meet, so a path costs its
    own length.
    """

    def __init__(self, tree: dict[int, list[tuple[int, int]]]):
        parent: dict[int, int | None] = {}
        depth: dict[int, int] = {}
        for root in tree:
            if root in parent:
                continue
            parent[root] = None
            depth[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y, _ in tree[x]:
                    if y not in parent:
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        stack.append(y)
        self.parent = parent
        self.depth = depth

    def path(self, a: int, b: int) -> list[int]:
        """The unique forest path from a to b."""
        parent, depth = self.parent, self.depth
        up_a, up_b = [a], [b]
        if a != b and a in depth and b in depth:
            for _ in range(depth[a] - depth[b]):
                a = parent[a]
                up_a.append(a)
            for _ in range(depth[b] - depth[a]):
                b = parent[b]
                up_b.append(b)
            while a != b:  # level now; two roots step to None together
                a, b = parent[a], parent[b]
                up_a.append(a)
                up_b.append(b)
        if a == b and a is not None:
            return up_a + up_b[-2::-1]
        raise HopsetError(f"vertices {up_a[0]} and {up_b[0]} not tree-connected")
