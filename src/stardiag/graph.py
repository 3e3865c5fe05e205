"""Immutable undirected simple graphs with label-addressed vertices.

Vertices are indexed densely 0..N-1 in lexicographic label order; public
results are always label sets.  Internally every vertex subset is a single
Python int used as a bitmask over the dense indices, which keeps the
exhaustive subset searches in the other modules cheap and allocation-free.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .base import DomainError

LabelSet = frozenset


class TopologyGraph:
    """Simple undirected graph bound to a family descriptor string.

    Instances are immutable after construction.  Construction collapses
    duplicate edges and rejects self-loops and any label that no text
    format can carry: empty, holding whitespace (both formats split lines
    on it) or starting with `#` (an edge-list comment).  Only the family
    builders set `vertex_transitive`, on graphs where an automorphism
    carries any vertex to vertex 0, and `cell`, the (n, k) of the S_{n,k}
    a graph is; every other graph leaves them False and None.
    """

    _min_degree: int | None = None
    vertex_transitive: bool = False
    cell: tuple[int, int] | None = None

    def __init__(
        self,
        labels: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        descriptor: str = "custom",
    ):
        self._bind(sorted(set(labels)), descriptor)
        if not self.labels:
            raise DomainError("a graph needs at least one vertex")
        for lab in self.labels:
            if lab.split() != [lab] or lab.startswith("#"):
                raise DomainError(f"label {lab!r} is empty, holds whitespace or starts with '#'")
        masks = [0] * len(self.labels)
        for a, b in edges:
            ia = self._lookup(a)
            ib = self._lookup(b)
            if ia == ib:
                raise DomainError(f"self-loop on vertex {a!r}")
            masks[ia] |= 1 << ib
            masks[ib] |= 1 << ia
        self.nbr_masks: tuple[int, ...] = tuple(masks)

    def _bind(self, labels, descriptor: str):
        """Set the fields both constructors share, from the sorted distinct labels."""
        self.labels: tuple[str, ...] = tuple(labels)
        self.descriptor = descriptor
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self.full_mask: int = (1 << len(self.labels)) - 1

    @classmethod
    def from_masks(
        cls,
        labels,
        masks,
        descriptor: str,
        *,
        vertex_transitive: bool,
        cell: tuple[int, int] | None,
    ) -> "TopologyGraph":
        """Trusted constructor from sorted distinct labels and their neighbour masks.

        Nothing is checked: `masks` must be symmetric and loop-free,
        `vertex_transitive` must hold of the graph and `cell` name its
        S_{n,k}, if any.  The family builders use it; the tests hold their
        output equal to the edge-list constructor's.  Their graphs may be
        shared, so nothing writes to a graph after its builder returns,
        except `min_degree()`'s lazy cache, which holds the same value
        whichever caller fills it.
        """
        graph = cls.__new__(cls)
        graph._bind(labels, descriptor)
        graph.nbr_masks = tuple(masks)
        graph.vertex_transitive = vertex_transitive
        graph.cell = cell
        return graph

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr_masks) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, TopologyGraph):
            return NotImplemented
        return self.labels == other.labels and self.nbr_masks == other.nbr_masks

    def __hash__(self):
        return hash((self.labels, self.nbr_masks))

    def __repr__(self):
        return (
            f"TopologyGraph({self.descriptor!r}, |V|={self.vertex_count}, "
            f"|E|={self.edge_count})"
        )

    def _lookup(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown vertex {label!r}") from None

    # -- mask helpers ----------------------------------------------------

    def mask_of(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self._lookup(lab)
        return m

    def labels_of(self, mask: int) -> LabelSet:
        return frozenset(self.labels[i] for i in _iter_bits(mask))

    def sorted_labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _iter_bits(mask))

    def neighborhood_mask(self, mask: int) -> int:
        """Union of neighbor masks of the bits in `mask`, minus `mask`."""
        return self.with_neighbors_in(mask, 1) & ~mask

    def with_neighbors_in(self, mask: int, c: int) -> int:
        """Vertices with at least `c` neighbors in `mask` (all of V when c <= 0).

        A bit-sliced count that saturates at c: after each bit of `mask`,
        levels[j] holds the vertices seen with more than j neighbors so far.
        """
        if c <= 0:
            return self.full_mask
        if c > mask.bit_count():
            return 0
        nbr = self.nbr_masks
        levels = [0] * c
        higher = range(c - 1, 0, -1)
        for i in _iter_bits(mask):
            m = nbr[i]
            for j in higher:
                levels[j] |= levels[j - 1] & m
            levels[0] |= m
        return levels[-1]

    # -- graph operations ------------------------------------------------

    def neighbors(self, label: str) -> LabelSet:
        return self.labels_of(self.nbr_masks[self._lookup(label)])

    def degree(self, label: str) -> int:
        return self.nbr_masks[self._lookup(label)].bit_count()

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components of the subgraph induced by `within` (default V)."""
        region = self.full_mask if within is None else within
        nbr = self.nbr_masks
        comps = []
        todo = region
        while todo:
            seed = todo & -todo
            # the seed's neighbours are the first layer: one generator fewer per component
            frontier = nbr[seed.bit_length() - 1] & region & ~seed
            comp = seed | frontier
            while frontier:
                grown = 0
                for i in _iter_bits(frontier):
                    grown |= nbr[i]
                frontier = grown & region & ~comp
                comp |= frontier
            comps.append(comp)
            todo &= ~comp
        return comps

    def is_connected(self) -> bool:
        return len(self.component_masks()) == 1

    def min_degree(self) -> int:
        """Smallest vertex degree, counted on the first call and kept: the graph is immutable."""
        if self._min_degree is None:
            self._min_degree = min(map(int.bit_count, self.nbr_masks))
        return self._min_degree

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i, lab in enumerate(self.labels):
            for j in _iter_bits(self.nbr_masks[i] >> i + 1):  # the neighbours above i
                out.append((lab, self.labels[i + 1 + j]))
        out.sort()
        return out

    # -- serialization ---------------------------------------------------

    def to_edgelist(self) -> str:
        """One 'label1 label2' pair per line, lexicographically sorted.

        Isolated vertices are not representable in this format.
        """
        return "".join(f"{a} {b}\n" for a, b in self.edges())

    def to_dot(self) -> str:
        """Every ID quoted, with each backslash and double quote in it escaped by a backslash."""
        lines = [f"graph {_dot_id(self.descriptor)} {{"]
        for i, lab in enumerate(self.labels):
            if self.nbr_masks[i] == 0:
                lines.append(f"  {_dot_id(lab)};")
        for a, b in self.edges():
            lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edgelist_text(cls, text: str, descriptor: str = "custom") -> "TopologyGraph":
        edges = []
        labels = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"edge-list line {lineno}: expected two labels, got {line!r}")
            labels.update(parts)
            edges.append((parts[0], parts[1]))
        if not labels:
            raise DomainError("edge-list input contains no edges")
        return cls(labels, edges, descriptor=descriptor)


def _dot_id(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


#: binary digits '0'/'1' to the bytes 0/1 that `compress` reads as selectors
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first.

    A mask wider than 64 bits with at least one bit in eight set is read
    in one pass over its binary digits, in C.  Any other mask is peeled a
    bit at a time: each peel costs time linear in the width, so it wins
    while set bits are few.
    """
    width = mask.bit_length()
    if width > 64 and 8 * mask.bit_count() >= width:
        yield from compress(range(width), bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES))
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
