"""Figure-7 demand lookup tables, served by every storage tier.

The serve tier answers ``/v1/demand`` from a binned demand-vs-reviews
curve per traffic site.  The table itself is tiny (a dozen bins), so
both tiers hold it as two aligned float64 arrays.  Lookup semantics:
nearest occupied bin by absolute distance, first index winning ties
(``np.argmin``), mean rounded to six digits at lookup time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.valueadd import log2_review_bins

__all__ = ["DemandTable"]


@dataclass(frozen=True)
class DemandTable:
    """Figure-7 lookup: normalized demand per log2 review-count bin."""

    site: str
    sources: dict[str, tuple[np.ndarray, np.ndarray]] = field(repr=False)
    max_reviews: int

    def lookup(self, source: str, n_reviews: int) -> dict[str, float]:
        """Demand estimate for an entity with ``n_reviews`` reviews.

        Bins the query with the paper's log2 grouping and returns the
        nearest *occupied* bin's mean demand (z-score normalized).

        Raises:
            KeyError: Unknown demand source.
            ValueError: Negative review count.
        """
        if source not in self.sources:
            raise KeyError(f"unknown source {source!r}; have {sorted(self.sources)}")
        if n_reviews < 0:
            raise ValueError("n_reviews must be non-negative")
        counts, means = self.sources[source]
        bins, centers = log2_review_bins(np.asarray([n_reviews]))
        center = float(centers[bins[0]])
        nearest = int(np.argmin(np.abs(counts - center)))
        return {
            "bin_center": float(counts[nearest]),
            "mean_normalized_demand": round(float(means[nearest]), 6),
        }
