"""Immutable undirected simple graphs with label-addressed vertices.

Vertices are indexed densely 0..N-1 in lexicographic label order; public
results are always label sets.  Internally every vertex subset is a single
Python int used as a bitmask over the dense indices, which keeps the
exhaustive subset searches in the other modules cheap and allocation-free.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .base import DomainError

LabelSet = frozenset


class TopologyGraph:
    """Simple undirected graph bound to a family descriptor string.

    Instances are immutable after construction.  Construction collapses
    duplicate edges and rejects self-loops.
    """

    _min_degree: int | None = None

    def __init__(
        self,
        labels: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        descriptor: str = "custom",
    ):
        self.labels: tuple[str, ...] = tuple(sorted(set(labels)))
        if not self.labels:
            raise DomainError("a graph needs at least one vertex")
        self.descriptor = descriptor
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        masks = [0] * len(self.labels)
        for a, b in edges:
            ia = self._lookup(a)
            ib = self._lookup(b)
            if ia == ib:
                raise DomainError(f"self-loop on vertex {a!r}")
            masks[ia] |= 1 << ib
            masks[ib] |= 1 << ia
        self.nbr_masks: tuple[int, ...] = tuple(masks)
        self.full_mask: int = (1 << len(self.labels)) - 1

    @classmethod
    def from_masks(cls, labels, masks, descriptor: str) -> "TopologyGraph":
        """Trusted constructor from sorted distinct labels and their neighbour masks.

        Nothing is checked: `masks` must be symmetric and loop-free.  The
        star-family builders use it; the tests hold their output equal to
        the edge-list constructor's.
        """
        graph = cls.__new__(cls)
        graph.labels = tuple(labels)
        graph.descriptor = descriptor
        graph._index = {lab: i for i, lab in enumerate(graph.labels)}
        graph.nbr_masks = tuple(masks)
        graph.full_mask = (1 << len(graph.labels)) - 1
        return graph

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr_masks) // 2

    def __contains__(self, label: str) -> bool:
        return label in self._index

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
        out = 0
        for i in _iter_bits(mask):
            out |= self.nbr_masks[i]
        return out & ~mask

    # -- graph operations ------------------------------------------------

    def neighbors(self, label: str) -> LabelSet:
        return self.labels_of(self.nbr_masks[self._lookup(label)])

    def degree(self, label: str) -> int:
        return self.nbr_masks[self._lookup(label)].bit_count()

    def neighborhood_of_set(self, labels: Iterable[str]) -> LabelSet:
        return self.labels_of(self.neighborhood_mask(self.mask_of(labels)))

    def induced_subgraph(self, labels: Iterable[str]) -> "TopologyGraph":
        """Subgraph on `labels` with exactly the edges of this graph inside it."""
        mask = self.mask_of(labels)
        if mask == 0:
            raise DomainError("induced subgraph of an empty vertex set")
        keep = self.sorted_labels_of(mask)
        edges = []
        for lab in keep:
            i = self._index[lab]
            for j in _iter_bits(self.nbr_masks[i] & mask):
                if j > i:
                    edges.append((lab, self.labels[j]))
        return TopologyGraph(keep, edges, descriptor=f"induced({self.descriptor})")

    def delete_vertices(self, labels: Iterable[str]) -> "TopologyGraph":
        mask = self.mask_of(labels)
        if mask == self.full_mask:
            raise DomainError("cannot delete every vertex")
        return self.induced_subgraph(self.labels_of(self.full_mask & ~mask))

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components of the subgraph induced by `within` (default V)."""
        region = self.full_mask if within is None else within
        comps = []
        todo = region
        while todo:
            seed = todo & -todo
            comp = seed
            frontier = seed
            while frontier:
                grown = 0
                for i in _iter_bits(frontier):
                    grown |= self.nbr_masks[i]
                frontier = grown & region & ~comp
                comp |= frontier
            comps.append(comp)
            todo &= ~comp
        return comps

    def components(self) -> list[LabelSet]:
        """Partition of V into maximal connected sets, smallest first."""
        comps = self.component_masks()
        comps.sort(key=lambda m: (m.bit_count(), min(self.sorted_labels_of(m))))
        return [self.labels_of(m) for m in comps]

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
            for j in _iter_bits(self.nbr_masks[i]):
                if j > i:
                    out.append(tuple(sorted((lab, self.labels[j]))))
        out.sort()
        return out

    # -- serialization ---------------------------------------------------

    def to_edgelist(self) -> str:
        """One 'label1 label2' pair per line, lexicographically sorted.

        Isolated vertices are not representable in this format.
        """
        return "".join(f"{a} {b}\n" for a, b in self.edges())

    def to_dot(self) -> str:
        lines = [f'graph "{self.descriptor}" {{']
        for i, lab in enumerate(self.labels):
            if self.nbr_masks[i] == 0:
                lines.append(f'  "{lab}";')
        for a, b in self.edges():
            lines.append(f'  "{a}" -- "{b}";')
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


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
