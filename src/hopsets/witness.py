"""Witness paths along the merge forest of a reduced-mode build.

A reduced-mode witness is a walk in the laminar family's merge forest
between a few tree anchors.  `SpanningForest` cuts a forest once into heavy
chains so each forest path is O(log n) list slices; `Witnesses` keeps the
forest's edges and each hopset edge's anchors, and expands a witness only
when it is first read.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scale_reduction import forest_adjacency
from .util import HopsetError


class Witnesses(Sequence):
    """Witness paths kept as merge-forest anchors, each expanded when first read.

    Item i is the graph path behind hopset edge i.  `anchors[i]` holds it as
    (x1, y1, x2, y2, ...): each pair is joined by its unique walk in
    `forest`, a list of (u, v, w) edges, and the walks concatenate into the
    path (see `hopset._tree_anchors`).  The forest is cut into heavy chains
    on the first read.  Instances are equal when their forests and anchors
    are.
    """

    def __init__(self, forest: list[tuple[int, int, int]], anchors: list[tuple[int, ...]]):
        self.forest = forest
        self.anchors = anchors
        self._paths: list[tuple[int, ...] | None] = [None] * len(anchors)
        self._spanning: SpanningForest | None = None

    def __len__(self) -> int:
        return len(self.anchors)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        path = self._paths[i]
        if path is None:
            if self._spanning is None:
                self._spanning = SpanningForest(forest_adjacency(self.forest))
            anchors, walk = self.anchors[i], []
            for a, b in zip(anchors[::2], anchors[1::2]):
                walk.extend(self._spanning.path(a, b))
            path = self._paths[i] = tuple(walk)
        return path

    def __eq__(self, other) -> bool:
        if not isinstance(other, Witnesses):
            return NotImplemented
        return (self.forest, self.anchors) == (other.forest, other.anchors)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Witnesses({self.forest!r}, {self.anchors!r})"


class SpanningForest:
    """A forest given by adjacency, cut once into heavy chains.

    Each tree is rooted at its first vertex in `tree`'s order.  Every vertex
    continues the chain of its parent when it roots the parent's largest
    child subtree (first such child on ties) and starts a chain of its own
    otherwise, so a root-ward walk meets O(log n) chains (Sleator-Tarjan)
    and `path` joins that many list slices.
    """

    def __init__(self, tree: dict[int, list[tuple[int, int]]]):
        parent: dict[int, int | None] = {}
        depth: dict[int, int] = {}
        order: list[int] = []  # each vertex after its parent
        for root in tree:
            if root in parent:
                continue
            parent[root] = None
            depth[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                order.append(x)
                for y, _ in tree[x]:
                    if y not in parent:
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        stack.append(y)
        size = dict.fromkeys(order, 1)
        for x in reversed(order):
            if parent[x] is not None:
                size[parent[x]] += size[x]
        heavy: dict[int, int] = {}
        for x in order:
            p = parent[x]
            if p is not None and (p not in heavy or size[x] > size[heavy[p]]):
                heavy[p] = x
        self.parent = parent
        self.chain: dict[int, list[int]] = {}  # vertex -> its chain, head first
        self.pos: dict[int, int] = {}  # vertex -> its index in its chain
        self.head_depth: dict[int, int] = {}  # chain head -> its depth
        for x in order:
            if x in self.chain:
                continue
            self.head_depth[x] = depth[x]
            ch: list[int] = []
            y: int | None = x
            while y is not None:
                self.chain[y] = ch
                self.pos[y] = len(ch)
                ch.append(y)
                y = heavy.get(y)

    def path(self, a: int, b: int) -> list[int]:
        """The unique forest path from a to b."""
        if a == b:
            return [a]
        chain, pos = self.chain, self.pos
        if a in chain and b in chain:
            ca, ia, cb, ib = chain[a], pos[a], chain[b], pos[b]
            out: list[int] = []  # a's side, root-ward
            down: list[list[int]] = []  # b's side: head-to-vertex slices
            while ca is not cb:
                # climb from the chain whose head is deeper: that head's
                # parent is still on the a..b path
                if self.head_depth[ca[0]] >= self.head_depth[cb[0]]:
                    x = self.parent[ca[0]]
                    if x is None:  # both heads are roots: two trees
                        break
                    out += ca[ia::-1]
                    ca, ia = chain[x], pos[x]
                else:
                    down.append(cb[: ib + 1])
                    x = self.parent[cb[0]]
                    cb, ib = chain[x], pos[x]
            else:
                out += reversed(ca[ib : ia + 1]) if ia >= ib else ca[ia : ib + 1]
                for piece in reversed(down):
                    out += piece
                return out
        raise HopsetError(f"vertices {a} and {b} not tree-connected")
