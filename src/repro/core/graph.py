"""Connectivity of the entity–site graph (Section 5, Table 2, Figure 9).

The paper models iterative, bootstrapping-based source discovery as
reachability in the bipartite graph whose nodes are entities and
websites, with an edge when the site mentions the entity.  The
quantities it reports are:

- the number of connected components,
- the fraction of entities in the largest component (is a random seed
  set all-but-surely inside it?),
- the diameter d (a "perfect" set-expansion algorithm needs at most
  d/2 iterations), and
- robustness: the same after deleting the top-k sites (is the graph
  held together only by a few head aggregators?).

Every kernel is numpy over the CSR adjacency :class:`EntitySiteGraph`
builds; nothing here imports scipy.  Components come from hook and
shortcut: each edge hooks the larger of its endpoints' roots under the
smaller, then pointer jumping flattens the forest, so every node ends
up labelled with the smallest node id in its component after a few
rounds (:class:`UnionFind` cross-checks it in the tests).  BFS is
direction-optimizing (Beamer et al., SC 2012): each level reads
whichever is shorter, the frontier's neighbour lists (top-down) or the
unvisited nodes' (bottom-up).  The diameter uses the Takes–Kosters
BoundingDiameters algorithm seeded by a double sweep.  Figure 9's
robustness curve runs in reverse: label the graph without the top
sites once, then add them back one by one through a union-find over
component roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incidence import BipartiteIncidence, sorted_unique, transpose_csr

__all__ = [
    "ComponentSummary",
    "EntitySiteGraph",
    "GraphMetrics",
    "UnionFind",
    "robustness_curve",
]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        """Root of x's component (with path compression)."""
        root = x
        parent = self.parent
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def roots(self) -> np.ndarray:
        """Component root per element (fully compressed)."""
        parent = self.parent
        # Iterated pointer jumping: converges in O(log n) rounds.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                return parent
            parent[:] = grandparent


@dataclass(frozen=True)
class ComponentSummary:
    """Connected-component structure of one entity–site graph.

    Only *present* nodes participate: entities with at least one
    mention and sites with at least one entity.  Entities missing from
    the corpus entirely are not graph nodes (the paper's graphs are
    built from observed mentions).
    """

    n_components: int
    n_present_entities: int
    n_present_sites: int
    largest_component_entities: int
    largest_component_sites: int
    component_entity_counts: np.ndarray

    @property
    def fraction_entities_in_largest(self) -> float:
        """Fraction of present entities inside the largest component."""
        if self.n_present_entities == 0:
            return 0.0
        return self.largest_component_entities / self.n_present_entities


class EntitySiteGraph:
    """Bipartite entity–site graph over an incidence structure.

    Node ids: entities keep their indices ``[0, n_entities)``; site s
    becomes node ``n_entities + s``.  Only present nodes are reachable.
    """

    def __init__(self, incidence: BipartiteIncidence) -> None:
        self.incidence = incidence
        n_entities = incidence.n_entities
        n = n_entities + incidence.n_sites
        self.n_nodes = n
        # The incidence is already CSR by site, so the site half of the
        # adjacency is a straight copy; the entity half is its transpose,
        # which keeps each entity's neighbour sites ascending.
        entity_ptr, entity_sites = transpose_csr(incidence)
        n_edges = len(incidence.entity_idx)
        self._adj_ptr = np.empty(n + 1, dtype=np.int64)
        self._adj_ptr[:n_entities + 1] = entity_ptr
        self._adj_ptr[n_entities + 1:] = n_edges + incidence.site_ptr[1:]
        self._adj = np.empty(2 * n_edges, dtype=np.int64)
        self._adj[:n_edges] = entity_sites + n_entities
        self._adj[n_edges:] = incidence.entity_idx
        self._degrees = np.diff(self._adj_ptr)
        self._present = np.flatnonzero(self._degrees > 0)
        self._labels = None

    # -- basic structure -------------------------------------------------------

    def degree(self, node: int) -> int:
        """Number of neighbours of a node."""
        return int(self._adj_ptr[node + 1] - self._adj_ptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour node ids."""
        return self._adj[self._adj_ptr[node]:self._adj_ptr[node + 1]]

    def present_nodes(self) -> np.ndarray:
        """Nodes with at least one edge."""
        return self._present.copy()

    # -- components -------------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Smallest node id in each node's component (computed once, shared).

        A node without edges is its own component.  The site half of
        the adjacency lists every edge once, which is all hooking needs.
        """
        if self._labels is None:
            n_entities = self.incidence.n_entities
            self._labels = _min_labels(
                self.n_nodes,
                self._adj[self._adj_ptr[n_entities]:],
                np.repeat(
                    np.arange(n_entities, self.n_nodes),
                    self._degrees[n_entities:],
                ),
            )
        return self._labels

    def components(self) -> ComponentSummary:
        """Summarize the component structure over present nodes.

        Components are ordered by label, i.e. by their smallest node
        id, so the largest one is the first of the biggest: the one
        holding the smallest entity id.  :class:`UnionFind` gives the
        same partition and cross-checks it in the test suite.
        """
        inc = self.incidence
        present = self._degrees > 0
        entity_present = present[:inc.n_entities]
        site_present = present[inc.n_entities:]
        n_present_entities = int(entity_present.sum())
        n_present_sites = int(site_present.sum())
        if n_present_entities + n_present_sites == 0:
            return ComponentSummary(0, 0, 0, 0, 0, np.empty(0, dtype=np.int64))

        labels = self.component_labels()
        present_idx = np.flatnonzero(present)
        present_labels = labels[present_idx]
        unique_labels, compact = np.unique(present_labels, return_inverse=True)
        is_entity = present_idx < inc.n_entities
        entity_counts = np.bincount(
            compact[is_entity], minlength=len(unique_labels)
        )
        site_counts = np.bincount(
            compact[~is_entity], minlength=len(unique_labels)
        )
        largest = int(np.argmax(entity_counts + site_counts))
        return ComponentSummary(
            n_components=len(unique_labels),
            n_present_entities=n_present_entities,
            n_present_sites=n_present_sites,
            largest_component_entities=int(entity_counts[largest]),
            largest_component_sites=int(site_counts[largest]),
            component_entity_counts=np.sort(entity_counts)[::-1],
        )

    # -- BFS / distances ----------------------------------------------------------

    def bfs_levels(self, source: int) -> np.ndarray:
        """BFS distance from ``source`` to every node (-1 when unreachable).

        Direction-optimizing: each level reads whichever side holds
        fewer adjacency entries.  Top-down gathers the frontier's
        neighbour lists and keeps the unvisited nodes among them;
        bottom-up gathers every unvisited node's list and keeps the
        nodes with a neighbour on the frontier.  On these dense,
        small-diameter graphs the middle levels go bottom-up, which is
        what makes the hundreds of traversals behind the exact diameter
        (Table 2) cheap.
        """
        source = int(source)
        ptr, adj, degrees = self._adj_ptr, self._adj, self._degrees
        levels = np.full(self.n_nodes, -1, dtype=np.int64)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        frontier_degrees = degrees[frontier]
        frontier_entries = int(frontier_degrees.sum())
        unvisited_entries = len(adj) - frontier_entries
        slot = np.empty(self.n_nodes, dtype=np.int64)
        level = 0
        while frontier_entries and unvisited_entries:
            level += 1
            if frontier_entries <= unvisited_entries:
                frontier = _top_down(
                    ptr, adj, frontier, frontier_degrees, levels, slot
                )
            else:
                unvisited = self._present[levels[self._present] < 0]
                frontier = _bottom_up(
                    ptr, adj, unvisited, degrees[unvisited], levels, level
                )
            levels[frontier] = level
            frontier_degrees = degrees[frontier]
            frontier_entries = int(frontier_degrees.sum())
            unvisited_entries -= frontier_entries
        return levels

    def eccentricity(self, node: int) -> int:
        """Longest shortest path from ``node`` within its component."""
        levels = self.bfs_levels(node)
        return int(levels.max())

    def eccentricity_sample(
        self,
        sample_size: int = 64,
        rng: np.random.Generator | int = 0,
    ) -> np.ndarray:
        """Eccentricities of a random sample of largest-component nodes.

        The d/2 iteration bound of Section 5 is a worst case; the
        *typical* number of expansion iterations from a seed node v is
        ``ecc(v)/2``.  Sampling the eccentricity distribution shows how
        tight the worst case is: in these small-world graphs most nodes
        sit within one hop of the radius.

        Returns:
            Sorted eccentricities (ascending); empty when the graph has
            no edges.
        """
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        present = self.present_nodes()
        if len(present) == 0:
            return np.empty(0, dtype=np.int64)
        degrees = self._degrees
        hub = int(present[np.argmax(degrees[present])])
        component = np.flatnonzero(self.bfs_levels(hub) >= 0)
        picks = rng.choice(
            component, size=min(sample_size, len(component)), replace=False
        )
        eccentricities = np.array(
            [self.eccentricity(int(node)) for node in picks], dtype=np.int64
        )
        return np.sort(eccentricities)

    def double_sweep(self, start: int) -> tuple[int, int, int]:
        """Double-sweep heuristic: a diameter lower bound and a midpoint.

        BFS from ``start`` finds a farthest node a; BFS from a finds a
        farthest node b.  dist(a, b) lower-bounds the diameter, and a
        node halfway along is a good iFUB root.

        Returns:
            ``(lower_bound, root, a)`` where root is the halfway node.
        """
        levels = self.bfs_levels(start)
        a = int(np.argmax(levels))
        levels_a = self.bfs_levels(a)
        b = int(np.argmax(levels_a))
        lower = int(levels_a[b])
        # Walk back from b towards a along BFS parents to find the middle.
        half = lower // 2
        # Any node at distance `half` from a that is on a shortest path works;
        # approximate with a node at that level closest to b's branch: use a
        # BFS from b and pick a node with d(a,.) == half and minimal d(b,.).
        levels_b = self.bfs_levels(b)
        on_path = np.flatnonzero(
            (levels_a >= 0) & (levels_b >= 0) & (levels_a + levels_b == lower)
        )
        candidates = on_path[levels_a[on_path] == half]
        root = int(candidates[0]) if len(candidates) else a
        return lower, root, a

    def diameter(self, max_bfs: int | None = None) -> int:
        """Exact diameter of the largest connected component.

        Implements the Takes–Kosters *BoundingDiameters* algorithm:
        every BFS from a node v yields its exact eccentricity and, via
        the triangle inequality, tightens per-node eccentricity bounds
        ``max(d(v,u), ecc(v) - d(v,u)) <= ecc(u) <= ecc(v) + d(v,u)``.
        Nodes whose upper bound cannot exceed the current diameter lower
        bound are pruned; the algorithm alternates between the node with
        the largest upper bound (diameter candidates) and the smallest
        lower bound (strong pruners).  On small-world graphs like these
        entity–site graphs, it terminates after a handful of BFS
        traversals — unlike iFUB, it does not degenerate when the
        diameter is close to the radius.

        For a disconnected graph the result is the maximum over the
        diameters of its components — the smallest d such that every
        *connected* pair of nodes is within d hops (the bound relevant
        to set expansion, which can never cross components anyway).
        Components are processed largest-first with a size-based prune:
        a component of n nodes cannot have diameter above n - 1, so
        once the running maximum reaches that bound the remaining
        (smaller) components are skipped.

        Args:
            max_bfs: Optional per-component safety cap; when hit, the
                current lower bound is returned (a valid diameter lower
                bound).
        """
        present = self.present_nodes()
        if len(present) == 0:
            return 0
        labels = self.component_labels()
        component_labels, counts = np.unique(labels[present], return_counts=True)
        order = np.argsort(counts)[::-1]
        best = 0
        for index in order:
            size = int(counts[index])
            if size - 1 <= best:
                break
            members = present[labels[present] == component_labels[index]]
            best = max(best, self._component_diameter(members, max_bfs))
        return best

    def _component_diameter(
        self, component: np.ndarray, max_bfs: int | None
    ) -> int:
        """BoundingDiameters within one connected component."""
        if len(component) <= 1:
            return 0
        degrees = self._degrees
        start = int(component[np.argmax(degrees[component])])

        ecc_lower = np.zeros(self.n_nodes, dtype=np.int64)
        ecc_upper = np.full(self.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
        active = np.zeros(self.n_nodes, dtype=bool)
        active[component] = True
        # Seed the lower bound with a double sweep: it almost always
        # finds the true diameter immediately, so the main loop spends
        # its budget proving optimality rather than searching.
        diameter_lower = self.double_sweep(start)[0]
        bfs_budget = max_bfs if max_bfs is not None else len(component)
        pick_upper = True

        for _ in range(bfs_budget):
            candidates = np.flatnonzero(active)
            if len(candidates) == 0:
                break
            if pick_upper:
                node = int(candidates[np.argmax(ecc_upper[candidates])])
            else:
                node = int(candidates[np.argmin(ecc_lower[candidates])])
            pick_upper = not pick_upper

            levels = self.bfs_levels(node)
            distances = levels[component]
            ecc = int(distances.max())
            diameter_lower = max(diameter_lower, ecc)
            ecc_lower[component] = np.maximum(
                ecc_lower[component], np.maximum(distances, ecc - distances)
            )
            ecc_upper[component] = np.minimum(
                ecc_upper[component], ecc + distances
            )
            # Nodes whose bounds met have a known eccentricity: fold it
            # into the diameter bound, then prune them along with every
            # node that can no longer raise the bound.
            settled = ecc_lower[component] == ecc_upper[component]
            if settled.any():
                diameter_lower = max(
                    diameter_lower, int(ecc_lower[component][settled].max())
                )
            done = ecc_upper[component] <= diameter_lower
            active[component[done | settled]] = False
            if not active[component].any():
                break
        return diameter_lower


@dataclass(frozen=True)
class GraphMetrics:
    """One row of the paper's Table 2."""

    domain: str
    attribute: str
    avg_sites_per_entity: float
    diameter: int
    n_components: int
    pct_entities_in_largest: float

    @classmethod
    def measure(
        cls,
        incidence: BipartiteIncidence,
        domain: str,
        attribute: str,
        max_bfs: int | None = 256,
    ) -> "GraphMetrics":
        """Measure all Table 2 quantities for one (domain, attribute)."""
        graph = EntitySiteGraph(incidence)
        summary = graph.components()
        return cls(
            domain=domain,
            attribute=attribute,
            avg_sites_per_entity=incidence.average_sites_per_entity(),
            diameter=graph.diameter(max_bfs=max_bfs),
            n_components=summary.n_components,
            pct_entities_in_largest=100.0 * summary.fraction_entities_in_largest,
        )


def robustness_curve(
    incidence: BipartiteIncidence,
    max_removed: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest-component entity fraction after removing top-k sites.

    Figure 9 of the paper: for k = 0..max_removed, delete the k sites
    mentioning the most entities and report the fraction of entities in
    the largest remaining component.  The denominator is fixed at the
    number of entities present in the *original* graph, so entities
    stranded by the removal count against the fraction.

    "Largest" is by present node count, ties going to the component
    with the smallest entity id, as :meth:`EntitySiteGraph.components`
    picks it.  The curve runs in reverse: the graph without all
    removed sites is labelled once, and each site is then added back
    by merging its entities' components in a union-find whose roots
    are each component's smallest entity id (removing sites never
    renumbers entities).

    Returns:
        ``(ks, fractions)`` arrays of length ``max_removed + 1``.
    """
    if max_removed < 0:
        raise ValueError("max_removed must be non-negative")
    original_entities = len(incidence.mentioned_entities())
    ks = np.arange(max_removed + 1)
    fractions = np.zeros(len(ks))
    if not original_entities:
        return ks, fractions
    n_entities, n_sites = incidence.n_entities, incidence.n_sites
    removed = incidence.sites_by_size()[:max_removed]
    sizes = incidence.site_sizes()
    kept_site = np.ones(n_sites, dtype=bool)
    kept_site[removed] = False
    kept_edge = np.repeat(kept_site, sizes)
    kept_entities = incidence.entity_idx[kept_edge]
    labels = _min_labels(
        n_entities + n_sites,
        kept_entities,
        n_entities + np.repeat(np.arange(n_sites), sizes)[kept_edge],
    )
    # Every present node's label is its component's smallest entity id.
    parent = labels[:n_entities].copy()
    present = np.zeros(n_entities, dtype=bool)
    present[kept_entities] = True
    entity_count = np.bincount(parent[present], minlength=n_entities)
    site_count = np.bincount(
        labels[n_entities:][kept_site & (sizes > 0)], minlength=n_entities
    )
    node_count = entity_count + site_count
    best = int(np.argmax(node_count))
    best_size = int(node_count[best])
    fractions[len(removed):] = entity_count[best] / original_entities
    for k in range(len(removed), 0, -1):
        entities = incidence.site_entities(int(removed[k - 1]))
        if len(entities):
            fresh = entities[~present[entities]]
            present[fresh] = True
            entity_count[fresh] = 1
            roots = sorted_unique(_find_roots(parent, entities))
            root = int(roots[0])
            entities_in = int(entity_count[roots].sum())
            sites_in = int(site_count[roots].sum()) + 1
            parent[roots] = root
            entity_count[root] = entities_in
            site_count[root] = sites_in
            size = entities_in + sites_in
            if size > best_size or (size == best_size and root < best):
                best, best_size = root, size
        fractions[k - 1] = entity_count[best] / original_entities
    return ks, fractions


def _top_down(
    ptr: np.ndarray,
    adj: np.ndarray,
    frontier: np.ndarray,
    frontier_degrees: np.ndarray,
    levels: np.ndarray,
    slot: np.ndarray,
) -> np.ndarray:
    """The next frontier: unvisited neighbours of the frontier, once each.

    ``slot`` is a work array of one entry per node: the last occurrence
    of each reached node keeps its position, so no sort is needed.
    """
    reached = adj[_gather(ptr, frontier, frontier_degrees)[0]]
    reached = reached[levels[reached] < 0]
    order = np.arange(len(reached))
    slot[reached] = order
    return reached[slot[reached] == order]


def _bottom_up(
    ptr: np.ndarray,
    adj: np.ndarray,
    unvisited: np.ndarray,
    unvisited_degrees: np.ndarray,
    levels: np.ndarray,
    level: int,
) -> np.ndarray:
    """The next frontier: unvisited nodes with a neighbour at ``level - 1``.

    Every node in ``unvisited`` has at least one neighbour, so each
    owns a non-empty run of the gathered lists and ``reduceat`` ORs
    exactly that run.
    """
    entries, starts = _gather(ptr, unvisited, unvisited_degrees)
    on_frontier = levels[adj[entries]] == level - 1
    return unvisited[np.logical_or.reduceat(on_frontier, starts)]


def _gather(
    ptr: np.ndarray, nodes: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency positions of ``nodes``' neighbour lists, concatenated.

    ``counts`` are the nodes' degrees.  Returns the positions and where
    each node's run starts among them.
    """
    starts = np.cumsum(counts) - counts
    positions = np.arange(int(counts.sum())) + np.repeat(ptr[nodes] - starts, counts)
    return positions, starts


def _min_labels(n_nodes: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Smallest node id in each node's component, by hook and shortcut.

    Each round, every edge whose endpoints sit in different trees hooks
    the larger of the two roots under the smaller (``np.minimum.at``),
    then pointer jumping flattens the forest.  A parent is never larger
    than its child, so the root of every finished tree is its smallest
    node.  Edges inside one tree stay inside it and drop out.  Rounds
    shrink the forest geometrically in practice (11 on a shuffled
    200,000-node path), where plain min-label propagation needs as many
    rounds as the diameter.
    """
    labels = np.arange(n_nodes, dtype=np.int64)
    while True:
        head_roots, tail_roots = labels[heads], labels[tails]
        crossing = head_roots != tail_roots
        if not crossing.any():
            return labels
        heads, tails = heads[crossing], tails[crossing]
        head_roots, tail_roots = head_roots[crossing], tail_roots[crossing]
        np.minimum.at(
            labels,
            np.maximum(head_roots, tail_roots),
            np.minimum(head_roots, tail_roots),
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _find_roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Union-find roots of ``nodes``, compressing their paths."""
    roots = parent[nodes]
    while True:
        above = parent[roots]
        if np.array_equal(above, roots):
            break
        roots = above
    parent[nodes] = roots
    return roots
