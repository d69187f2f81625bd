"""Cookie-level traffic logs and unique-cookie demand aggregation.

The paper "use[s] unique (anonymized) cookies as a proxy for unique
users, and define[s] the demand for a URL (and hence the entity it
mentions) as the number of visits from unique cookies", counting unique
cookies *per month* in the search data and *per year* in the browse
data (Section 4.1, footnote 2).

:class:`TrafficLogGenerator` simulates a year of events: each event is
(cookie, entity URL, month), with entities drawn from the site's demand
weights and cookies from a heavy-tailed activity distribution (a few
power users, many occasional ones).  :func:`unique_cookie_demand`
aggregates a log back into per-entity demand, either directly from the
arrays or by parsing the URL strings — the latter exercising the same
pattern-matching path the paper ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.incidence import sorted_unique
from repro.traffic.demandmodel import SiteDemandProfile
from repro.traffic.urls import build_entity_url, parse_entity_url

__all__ = ["TrafficLog", "TrafficLogGenerator", "unique_cookie_demand"]


@dataclass
class TrafficLog:
    """One year of visits to entity pages of one site.

    Attributes:
        site: Site key (``amazon``, ``yelp``, ``imdb``).
        source: ``search`` or ``browse``.
        n_entities: Inventory size (entity indices are < this).
        entity: ``int64[n_events]`` entity index per event.
        cookie: ``int64[n_events]`` anonymized cookie id per event.
        month: ``int64[n_events]`` month (0..11) per event.
    """

    site: str
    source: str
    n_entities: int
    entity: np.ndarray
    cookie: np.ndarray
    month: np.ndarray

    @property
    def n_events(self) -> int:
        """Total number of visit events."""
        return len(self.entity)

    def iter_urls(self) -> Iterator[tuple[str, int, int]]:
        """Yield ``(url, cookie, month)`` with materialized URL strings.

        This is the log as the paper saw it — raw URLs — and feeds the
        parse-based aggregation path.
        """
        for entity, cookie, month in zip(
            self.entity.tolist(), self.cookie.tolist(), self.month.tolist()
        ):
            url = build_entity_url(self.site, entity, style=cookie % 2)
            yield url, cookie, month


class TrafficLogGenerator:
    """Simulates search and browse logs for one site profile.

    On construction, samples the site's entity population (review
    counts + demand weights) once; both logs then draw events from that
    shared population, exactly as one year of real traffic hits one
    fixed inventory.

    Args:
        profile: The site's demand model.
        n_entities: Inventory size.
        n_cookies: Size of the user (cookie) population.
        cookie_activity_exponent: Power-law exponent of per-cookie
            activity (a small core of heavy users).
        seed: RNG seed (population and events).
    """

    def __init__(
        self,
        profile: SiteDemandProfile,
        n_entities: int,
        n_cookies: int | None = None,
        cookie_activity_exponent: float = 0.7,
        seed: int = 0,
    ) -> None:
        if n_entities < 1:
            raise ValueError("n_entities must be positive")
        self.profile = profile
        self.n_entities = n_entities
        self.n_cookies = n_cookies if n_cookies is not None else max(n_entities, 100)
        if self.n_cookies < 1:
            raise ValueError("n_cookies must be positive")
        self.cookie_activity_exponent = cookie_activity_exponent
        self._rng = np.random.default_rng(seed)
        self.population = profile.sample_population(n_entities, self._rng)
        cookie_weights = (
            np.arange(1, self.n_cookies + 1, dtype=np.float64)
            ** -cookie_activity_exponent
        )
        self._cookie_cdf = np.cumsum(cookie_weights)
        self._cookie_cdf /= self._cookie_cdf[-1]

    def _generate(self, source: str, weights: np.ndarray, n_events: int) -> TrafficLog:
        if n_events < 1:
            raise ValueError("n_events must be positive")
        rng = self._rng
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        entity = np.searchsorted(cdf, rng.random(n_events), side="right")
        cookie = np.searchsorted(
            self._cookie_cdf, rng.random(n_events), side="right"
        )
        month = rng.integers(12, size=n_events)
        return TrafficLog(
            site=self.profile.name,
            source=source,
            n_entities=self.n_entities,
            entity=entity.astype(np.int64),
            cookie=cookie.astype(np.int64),
            month=month.astype(np.int64),
        )

    def search_log(self, n_events: int) -> TrafficLog:
        """A year of search-click events."""
        return self._generate("search", self.population.search_weights, n_events)

    def browse_log(self, n_events: int) -> TrafficLog:
        """A year of toolbar browse events (more head-biased)."""
        return self._generate("browse", self.population.browse_weights, n_events)


def unique_cookie_demand(
    log: TrafficLog,
    parse_urls: bool = False,
    key_to_index: dict[str, int] | None = None,
) -> np.ndarray:
    """Per-entity demand as the paper defines it.

    Search logs count unique cookies per month, summed over the year;
    browse logs count unique cookies over the whole year (footnote 2 of
    the paper).

    Args:
        log: The traffic log.
        parse_urls: Re-derive entity indices by materializing URL
            strings and pattern-matching them (the paper's actual code
            path) instead of using the log's arrays directly.  Slower;
            used by integration tests and one benchmark arm.
        key_to_index: Required with ``parse_urls``: maps URL entity keys
            to entity indices.

    Returns:
        ``float64[n_entities]`` demand vector.
    """
    if parse_urls:
        if key_to_index is None:
            raise ValueError("key_to_index is required when parse_urls=True")
        entities = np.empty(log.n_events, dtype=np.int64)
        cookies = np.empty(log.n_events, dtype=np.int64)
        months = np.empty(log.n_events, dtype=np.int64)
        n = 0
        for url, cookie, month in log.iter_urls():
            parsed = parse_entity_url(url)
            if parsed is None or parsed[0] != log.site:
                continue
            index = key_to_index.get(parsed[1])
            if index is None:
                continue
            entities[n], cookies[n], months[n] = index, cookie, month
            n += 1
        entities, cookies, months = entities[:n], cookies[:n], months[:n]
    else:
        entities, cookies, months = log.entity, log.cookie, log.month

    demand = np.zeros(log.n_entities, dtype=np.float64)
    if len(entities) == 0:
        return demand
    cookie_space = np.int64(cookies.max()) + 1
    if log.source == "search":
        # Unique (entity, month, cookie) triples: one count per cookie
        # per month, summed over the year.
        pair = (entities * 12 + months) * cookie_space + cookies
        entity_of_pair = sorted_unique(pair) // cookie_space // 12
    else:
        # Unique (entity, cookie) pairs over the whole year.
        pair = entities * cookie_space + cookies
        entity_of_pair = sorted_unique(pair) // cookie_space
    np.add.at(demand, entity_of_pair, 1.0)
    return demand
