"""Relay-tree topologies: the network between source and mirror.

The paper models one source→mirror channel; its motivating
deployments freshen through source→relay→edge-cache *trees* where a
poll transits every hop on its root-to-edge path (PAPERS.md:
Kaswan–Bastopcu–Ulukus, "Freshness Based Cache Updating in Parallel
Relay Networks").  This module is the pure topology vocabulary —
who hangs below whom, what each uplink can carry, how long a hop
takes — consumed by the fault layer
(:mod:`repro.faults.correlated` drives node outages through the
dependency graph) and the sync path
(:class:`~repro.faults.channel.SyncChannel` charges every ledger on
an element's path).

Everything here is deterministic: the only randomness is the seeded
element→edge assignment in :meth:`Topology.build`, drawn from a
``SeedSequence``-derived generator so the same seed always yields the
same tree (freshlint FL001/FL011).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import period_index
from repro.errors import ValidationError

__all__ = ["HopLedger", "Topology"]

#: Node id of the source (the tree root).
SOURCE = 0


@dataclass(frozen=True)
class Topology:
    """A source→relay→edge tree with per-hop capacity and latency.

    Node 0 is the source; every other node has exactly one uplink to
    ``parents[node]``.  Leaves that host elements are *edge caches*;
    interior nodes are *relays*.  Each non-root node's uplink carries
    a per-period bandwidth capacity and a one-way latency; a poll of
    an element transits every uplink on the root-to-edge path.

    Attributes:
        parents: Parent node per node, shape ``(n_nodes,)``;
            ``parents[0] == -1`` and ``parents[i] < i`` (topological
            order).
        element_edge: Hosting edge node per element, shape
            ``(n_elements,)``.
        link_bandwidth: Per-period capacity of each node's uplink, in
            size units per period (``inf`` = uncapped; the root entry
            is ignored).
        link_latency: One-way transit latency of each node's uplink,
            in period units (the root entry is ignored).
    """

    parents: np.ndarray
    element_edge: np.ndarray
    link_bandwidth: np.ndarray
    link_latency: np.ndarray
    _paths: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        parents = np.asarray(self.parents, dtype=np.int64)
        edges = np.asarray(self.element_edge, dtype=np.int64)
        bandwidth = np.asarray(self.link_bandwidth, dtype=float)
        latency = np.asarray(self.link_latency, dtype=float)
        if parents.ndim != 1 or parents.shape[0] < 2:
            raise ValidationError(
                "a topology needs the source plus at least one node, "
                f"got parents of shape {parents.shape}")
        if parents[0] != -1:
            raise ValidationError(
                f"node 0 is the source and must have parent -1, got "
                f"{parents[0]}")
        n_nodes = parents.shape[0]
        for node in range(1, n_nodes):
            if not 0 <= parents[node] < node:
                raise ValidationError(
                    f"parents must be topologically ordered "
                    f"(0 <= parents[{node}] < {node}), got "
                    f"{parents[node]}")
        if edges.ndim != 1 or edges.size == 0:
            raise ValidationError(
                f"element_edge must be a non-empty vector, got shape "
                f"{edges.shape}")
        children = np.zeros(n_nodes, dtype=np.int64)
        counted = np.bincount(parents[1:], minlength=n_nodes)
        children[:counted.shape[0]] = counted
        for element, edge in enumerate(edges.tolist()):
            if not 1 <= edge < n_nodes:
                raise ValidationError(
                    f"element {element} maps to node {edge}, outside "
                    f"[1, {n_nodes})")
            if children[edge]:
                raise ValidationError(
                    f"element {element} maps to interior node {edge}; "
                    "elements live on leaf edge caches")
        for name, vector in (("link_bandwidth", bandwidth),
                             ("link_latency", latency)):
            if vector.shape != (n_nodes,):
                raise ValidationError(
                    f"{name} shape {vector.shape} does not match "
                    f"{n_nodes} nodes")
        if (bandwidth[1:] <= 0.0).any():
            raise ValidationError(
                "link_bandwidth must be > 0 on every uplink")
        if (latency[1:] < 0.0).any():
            raise ValidationError(
                "link_latency must be >= 0 on every uplink")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "element_edge", edges)
        object.__setattr__(self, "link_bandwidth", bandwidth)
        object.__setattr__(self, "link_latency", latency)
        paths = []
        for node in range(n_nodes):
            path: list[int] = []
            cursor = node
            while cursor != SOURCE:
                path.append(cursor)
                cursor = int(parents[cursor])
            paths.append(tuple(reversed(path)))
        object.__setattr__(self, "_paths", tuple(paths))

    # -- construction ----------------------------------------------

    @classmethod
    def build(cls, n_elements: int, *, n_relays: int = 3,
              edges_per_relay: int = 2, seed: int = 0,
              relay_bandwidth: float = np.inf,
              edge_bandwidth: float = np.inf,
              relay_latency: float = 0.0,
              edge_latency: float = 0.0) -> "Topology":
        """Build a balanced two-level relay tree with seeded placement.

        Elements are assigned to edge caches by a seeded random
        permutation split into equal contiguous chunks, so hot and
        cold elements spread across subtrees and the same seed always
        produces the same tree.

        Args:
            n_elements: Catalog size, >= 1.
            n_relays: Relays directly below the source, >= 1.
            edges_per_relay: Edge caches below each relay, >= 1.
            seed: Placement seed (dimensionless).
            relay_bandwidth: Capacity of each source→relay uplink, in
                size units per period (``inf`` = uncapped).
            edge_bandwidth: Capacity of each relay→edge uplink, in
                size units per period (``inf`` = uncapped).
            relay_latency: Source→relay hop latency, in period units.
            edge_latency: Relay→edge hop latency, in period units.

        Returns:
            The seeded :class:`Topology`.
        """
        if n_elements < 1:
            raise ValidationError(
                f"n_elements must be >= 1, got {n_elements}")
        if n_relays < 1:
            raise ValidationError(
                f"n_relays must be >= 1, got {n_relays}")
        if edges_per_relay < 1:
            raise ValidationError(
                f"edges_per_relay must be >= 1, got {edges_per_relay}")
        n_edges = n_relays * edges_per_relay
        n_nodes = 1 + n_relays + n_edges
        parents = np.full(n_nodes, -1, dtype=np.int64)
        bandwidth = np.full(n_nodes, np.inf)
        latency = np.zeros(n_nodes)
        for relay in range(n_relays):
            node = 1 + relay
            parents[node] = SOURCE
            bandwidth[node] = relay_bandwidth
            latency[node] = relay_latency
        for edge in range(n_edges):
            node = 1 + n_relays + edge
            parents[node] = 1 + edge // edges_per_relay
            bandwidth[node] = edge_bandwidth
            latency[node] = edge_latency
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        order = rng.permutation(n_elements)
        element_edge = np.empty(n_elements, dtype=np.int64)
        chunks = np.array_split(order, n_edges)
        for edge, chunk in enumerate(chunks):
            element_edge[chunk] = 1 + n_relays + edge
        return cls(parents=parents, element_edge=element_edge,
                   link_bandwidth=bandwidth, link_latency=latency)

    # -- structure queries -----------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total node count, source included (dimensionless)."""
        return self.parents.shape[0]

    @property
    def n_elements(self) -> int:
        """Number of hosted elements (dimensionless)."""
        return self.element_edge.shape[0]

    @property
    def root_children(self) -> tuple[int, ...]:
        """Nodes directly below the source, in id order."""
        return tuple(np.flatnonzero(self.parents == SOURCE).tolist())

    def path_of_node(self, node: int) -> tuple[int, ...]:
        """The root-to-``node`` path, as uplink-owning node ids.

        Each entry identifies one hop (the node owning the uplink);
        the source itself never appears.
        """
        if not 0 <= node < self.n_nodes:
            raise ValidationError(
                f"node {node} outside [0, {self.n_nodes})")
        return self._paths[node]

    def path_of_element(self, element: int) -> tuple[int, ...]:
        """The root-to-edge hop path of ``element``'s host."""
        if not 0 <= element < self.n_elements:
            raise ValidationError(
                f"element {element} outside [0, {self.n_elements})")
        return self._paths[int(self.element_edge[element])]

    def path_latency(self, element: int) -> float:
        """Total one-way transit latency of the element's path.

        Returns:
            The summed hop latency, in period units.
        """
        path = self.path_of_element(element)
        return float(self.link_latency[list(path)].sum())

    def depth_of(self, node: int) -> int:
        """Hops between the source and ``node`` (dimensionless)."""
        return len(self.path_of_node(node))

    def descendant_elements(self, node: int) -> np.ndarray:
        """Boolean mask of elements hosted inside ``node``'s subtree.

        The source's subtree is every element.
        """
        if not 0 <= node < self.n_nodes:
            raise ValidationError(
                f"node {node} outside [0, {self.n_nodes})")
        if node == SOURCE:
            return np.ones(self.n_elements, dtype=bool)
        mask = np.zeros(self.n_elements, dtype=bool)
        for element in range(self.n_elements):
            if node in self._paths[int(self.element_edge[element])]:
                mask[element] = True
        return mask

    # -- shard maps -------------------------------------------------

    @property
    def shard_of(self) -> np.ndarray:
        """Element → breaker-shard map from subtree membership.

        One shard per edge cache (the finest subtree an element
        belongs to), contiguous in edge-node order — the natural
        granularity for the circuit breaker, since an edge's uplink
        fails as one unit.  Shape ``(n_elements,)``.
        """
        edges = np.unique(self.element_edge)
        remap = {int(edge): shard for shard, edge in
                 enumerate(edges.tolist())}
        return np.array([remap[int(edge)] for edge in
                         self.element_edge.tolist()], dtype=np.int64)

    @property
    def n_shards(self) -> int:
        """Shard count implied by :attr:`shard_of` (dimensionless)."""
        return int(np.unique(self.element_edge).shape[0])

    @property
    def subtree_of(self) -> np.ndarray:
        """Element → top-level-subtree index (the relay it lives under).

        Subtrees are indexed by the source's children in id order;
        shape ``(n_elements,)``.  This is the granularity degraded
        planning collapses outages at: a relay failure takes out its
        whole subtree.
        """
        children = self.root_children
        remap = {child: index for index, child in enumerate(children)}
        out = np.empty(self.n_elements, dtype=np.int64)
        for element in range(self.n_elements):
            top = self._paths[int(self.element_edge[element])][0]
            out[element] = remap[top]
        return out

    @property
    def n_subtrees(self) -> int:
        """Top-level subtree count (dimensionless)."""
        return len(self.root_children)

    def reachable_bandwidth(self,
                            unreachable_elements: np.ndarray) -> float:
        """Capacity still deliverable given an element outage mask.

        Sums the source-uplink capacity of every top-level subtree
        that still hosts at least one reachable element — bandwidth
        behind a fully-dead relay is lost, not transferable, which is
        what degraded replans must derate by.

        Args:
            unreachable_elements: Boolean mask, shape
                ``(n_elements,)``.

        Returns:
            Deliverable capacity in size units per period (``inf``
            when every surviving uplink is uncapped).
        """
        mask = np.asarray(unreachable_elements, dtype=bool)
        if mask.shape != (self.n_elements,):
            raise ValidationError(
                f"unreachable mask shape {mask.shape} does not match "
                f"{self.n_elements} elements")
        subtree = self.subtree_of
        total = 0.0
        for index, child in enumerate(self.root_children):
            members = subtree == index
            if members.any() and (~mask[members]).any():
                total += float(self.link_bandwidth[child])
        return total


class HopLedger:
    """Per-period bandwidth ledgers for every uplink of a topology.

    The hop-level analogue of :class:`~repro.faults.channel.
    SyncChannel`'s flat period ledger: a poll of an element must fit
    in *every* ledger on its root-to-edge path, and a transfer that
    ran charges them all.  Admission is all-or-nothing — a poll that
    would overdraw any hop is denied before touching the wire.

    Args:
        topology: The tree whose uplinks are metered.
        period_length: Clock length of one budget period, in the
            simulation's time units, > 0.
    """

    def __init__(self, topology: Topology,
                 period_length: float = 1.0) -> None:
        if period_length <= 0.0:
            raise ValidationError(
                f"period_length must be > 0, got {period_length}")
        self._topology = topology
        self._period_length = period_length
        self._period_end = period_length
        self._spent = np.zeros(topology.n_nodes)
        self._transits = np.zeros(topology.n_nodes, dtype=np.int64)

    def _roll(self, time: float) -> None:
        # As the channel's ledger: the period stands until a time
        # reaches the next window's start.
        if time < self._period_end:
            return
        period = int(period_index(time, self._period_length))
        self._period_end = (period + 1) * self._period_length
        self._spent[:] = 0.0

    def admits(self, element: int, size: float, time: float) -> int | None:
        """Whether a transfer of ``size`` fits every hop on the path.

        Args:
            element: Element being polled.
            size: Transfer size, in size units.
            time: Run-clock time, in the simulation's time units
                (rolls the period ledgers forward at its windows).

        Returns:
            None when admitted, else the node id of the first
            saturated hop on the root-to-edge path.
        """
        self._roll(time)
        for node in self._topology.path_of_element(element):
            capacity = float(self._topology.link_bandwidth[node])
            if self._spent[node] + size > capacity:
                return node
        return None

    def charge(self, element: int, size: float) -> None:
        """Charge a transfer that ran against every hop on its path.

        Args:
            element: Element that was polled.
            size: Transfer size, in size units.
        """
        for node in self._topology.path_of_element(element):
            self._spent[node] += size
            self._transits[node] += 1

    def hop_spent(self) -> np.ndarray:
        """Bandwidth charged per hop this period, in size units."""
        return self._spent.copy()

    def hop_transit_counts(self) -> np.ndarray:
        """Transfers charged per hop over the ledger's lifetime
        (dimensionless counts)."""
        return self._transits.copy()
