"""Greedy set cover over sites (Section 3.4.1, Figure 5).

Ranking sites by individual size ignores redundancy: the second-biggest
site may duplicate the biggest almost entirely.  The paper therefore
re-runs the coverage analysis with sites chosen by the classic greedy
set-cover approximation — at every step pick the site covering the most
*still-uncovered* entities — and finds the improvement insignificant.

The implementation is the *lazy* greedy algorithm: marginal gains are
kept in a max-heap and only re-evaluated when a site reaches the top.
Because coverage is submodular, a stale gain is an upper bound, so a
re-evaluated top element whose gain still dominates the next heap entry
is globally optimal for that step.  This turns the O(S^2) textbook loop
into near-linear behaviour on power-law corpora.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.incidence import BipartiteIncidence

__all__ = ["greedy_set_cover", "greedy_coverage_curve"]


def greedy_set_cover(
    incidence: BipartiteIncidence,
    max_sites: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Order sites by greedy marginal coverage gain.

    Args:
        incidence: The entity–site incidence.
        max_sites: Stop after selecting this many sites (default: run
            until no site adds coverage).

    Returns:
        ``(order, gains)``: selected site indices and the number of
        newly covered entities each contributed.  Sites contributing
        nothing are not selected, so the order's cumulative gain sums to
        the 1-coverage of the whole corpus.
    """
    if max_sites is None:
        max_sites = incidence.n_sites
    if max_sites < 0:
        raise ValueError("max_sites must be non-negative")

    covered = np.zeros(incidence.n_entities, dtype=bool)
    sizes = incidence.site_sizes()
    # Max-heap of (-stale_gain, site); initial gains are the site sizes.
    # One vectorised pass builds the same Python-int tuples in the same
    # (ascending site) order as a per-site loop would.
    nonempty = np.flatnonzero(sizes > 0)
    heap: list[tuple[int, int]] = list(
        zip((-sizes[nonempty]).tolist(), nonempty.tolist())
    )
    heapq.heapify(heap)

    order: list[int] = []
    gains: list[int] = []
    while heap and len(order) < max_sites:
        stale_gain, site = heapq.heappop(heap)
        entities = incidence.site_entities(site)
        fresh = entities[~covered[entities]]
        gain = len(fresh)
        if gain == 0:
            continue
        if heap and -heap[0][0] > gain:
            # Someone else's (upper-bound) gain beats our fresh gain:
            # re-queue with the exact value and try again.
            heapq.heappush(heap, (-gain, site))
            continue
        covered[fresh] = True
        order.append(site)
        gains.append(gain)

    return np.asarray(order, dtype=np.int64), np.asarray(gains, dtype=np.int64)


def greedy_coverage_curve(
    incidence: BipartiteIncidence,
    checkpoints: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """1-coverage of the top-t sites under the greedy set-cover order.

    Comparable point-for-point with the k=1 curve of
    :func:`repro.core.coverage.k_coverage_curves`: Figure 5 overlays the
    two.  Checkpoints beyond the number of useful sites report the
    final (saturated) coverage.

    Returns:
        ``(checkpoints, fractions)`` arrays.
    """
    from repro.core.coverage import default_checkpoints

    order, gains = greedy_set_cover(incidence)
    if checkpoints is None:
        checkpoints = default_checkpoints(incidence.n_sites)
    else:
        checkpoints = np.unique(np.asarray(checkpoints, dtype=np.int64))
    cumulative = np.cumsum(gains) if len(gains) else np.zeros(1, dtype=np.int64)
    denominator = max(incidence.n_entities, 1)
    clipped = np.clip(checkpoints, 1, len(cumulative)) - 1
    fractions = cumulative[clipped] / denominator
    return checkpoints, fractions
