"""Runners for every table and figure in the paper's evaluation.

The mapping (see DESIGN.md for the full index):

- Table 1  → :func:`run_table1`
- Figure 1 → :func:`run_figure1` (phone k-coverage, 8 domains)
- Figure 2 → :func:`run_figure2` (homepage k-coverage, 8 domains)
- Figure 3 → :func:`run_figure3` (book ISBN coverage)
- Figure 4 → :func:`run_figure4` (restaurant reviews: k-coverage and
  aggregate-review coverage)
- Figure 5 → :func:`run_figure5` (greedy set cover vs. size order)
- Figure 6 → :func:`run_figure6` (demand CDF/PDF, search & browse)
- Figure 7 → :func:`run_figure7` (normalized demand vs. #reviews)
- Figure 8 → :func:`run_figure8` (relative value-add VA(n)/VA(0))
- Table 2  → :func:`run_table2` (graph metrics per domain/attribute)
- Figure 9 → :func:`run_figure9` (robustness after removing top-k)

All runners are deterministic in the :class:`ExperimentConfig` seed.

:data:`ARTIFACTS` renders each runner's result into the files it
publishes, one entry per ``repro all`` task; ``repro all`` and the
single-artifact commands (``repro table1|table2|figure N``) both render
through it, so they print and write the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.coverage import (
    CoverageCurves,
    aggregate_coverage_curve,
    k_coverage_curves,
)
from repro.core.demand import DemandCurves
from repro.core.graph import GraphMetrics, robustness_curve
from repro.core.incidence import BipartiteIncidence
from repro.core.setcover import greedy_coverage_curve
from repro.core.valueadd import ValueAddCurve, demand_vs_reviews, value_add_curve
from repro.entities.books import BookGenerator
from repro.entities.business import BusinessGenerator
from repro.entities.catalog import EntityDatabase
from repro.entities.domains import (
    ATTRIBUTE_HOMEPAGE,
    ATTRIBUTE_ISBN,
    ATTRIBUTE_PHONE,
    ATTRIBUTE_REVIEWS,
    LOCAL_BUSINESS_DOMAINS,
    table1_rows,
)
from repro.extract.runner import ExtractionRunner
from repro.perf import active_cache, derive_seed, fingerprint
from repro.pipeline.config import ExperimentConfig
from repro.report.figures import ascii_plot
from repro.report.tables import ascii_table
from repro.traffic.demandmodel import get_site_profile
from repro.traffic.logs import TrafficLogGenerator, unique_cookie_demand
from repro.webgen.corpus import CorpusBuilder
from repro.webgen.profiles import get_profile

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "ReviewSpreadResult",
    "SetCoverResult",
    "SpreadResult",
    "TrafficDataset",
    "build_traffic_dataset",
    "format_table2",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_spread",
    "run_spread_via_extraction",
    "run_table1",
    "run_table2",
    "spread_incidence",
]

TRAFFIC_SITES = ("imdb", "amazon", "yelp")


# ---------------------------------------------------------------------------
# Cache-aware artifact builders
# ---------------------------------------------------------------------------
#
# Each builder is a pure function of its fingerprinted inputs, so when
# an artifact cache is installed (repro.perf.configure_cache) a hit is
# exactly — byte for byte — what a cold run would regenerate.  With no
# cache installed every builder degrades to the plain computation.


def spread_incidence(
    domain: str, attribute: str, config: ExperimentConfig
) -> BipartiteIncidence:
    """Generate one spread corpus, via the artifact cache when installed.

    The fingerprint covers everything generation consumes: the full
    :class:`~repro.webgen.profiles.SpreadProfile`, the scale preset, and
    the derived stream seed.  Several runners (Figures 1–5 and 9,
    Table 2) share corpora; routing them through this helper makes each
    distinct corpus get generated exactly once per cache lifetime.
    """
    profile = get_profile(domain, attribute)
    seed = derive_seed(config.seed, f"spread:{domain}:{attribute}")
    cache = active_cache()
    if cache is None:
        return profile.generate(config.scale_preset, seed=seed)
    key = fingerprint(
        "incidence", profile=profile, scale=config.scale_preset, seed=seed
    )
    incidence = cache.get_incidence(key)
    if incidence is None:
        incidence = profile.generate(config.scale_preset, seed=seed)
        cache.put_incidence(key, incidence)
    return incidence


def _graph_metrics_row(
    domain: str, attribute: str, config: ExperimentConfig
) -> GraphMetrics:
    """One Table 2 row, cached as a JSON record when a cache is active."""
    cache = active_cache()
    key = None
    if cache is not None:
        key = fingerprint(
            "table2-row",
            profile=get_profile(domain, attribute),
            scale=config.scale_preset,
            seed=derive_seed(config.seed, f"spread:{domain}:{attribute}"),
            max_bfs=config.max_bfs,
        )
        rows = cache.get_records(key)
        if rows:
            return GraphMetrics(**rows[0])
    incidence = spread_incidence(domain, attribute, config)
    measured = GraphMetrics.measure(
        incidence, domain, attribute, max_bfs=config.max_bfs
    )
    # Coerce to plain Python scalars so the cold row and the JSON
    # round-tripped warm row are indistinguishable downstream.
    record = {
        "domain": measured.domain,
        "attribute": measured.attribute,
        "avg_sites_per_entity": float(measured.avg_sites_per_entity),
        "diameter": int(measured.diameter),
        "n_components": int(measured.n_components),
        "pct_entities_in_largest": float(measured.pct_entities_in_largest),
    }
    row = GraphMetrics(**record)
    if cache is not None:
        cache.put_records(key, [record])
    return row


def _robustness_panel(
    domain: str, attribute: str, config: ExperimentConfig, max_removed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One Figure 9 curve, cached as an array bundle when active."""
    cache = active_cache()
    key = None
    if cache is not None:
        key = fingerprint(
            "robustness",
            profile=get_profile(domain, attribute),
            scale=config.scale_preset,
            seed=derive_seed(config.seed, f"spread:{domain}:{attribute}"),
            max_removed=max_removed,
        )
        arrays = cache.get_arrays(key)
        if arrays is not None:
            return arrays["ks"], arrays["fractions"]
    incidence = spread_incidence(domain, attribute, config)
    ks, fractions = robustness_curve(incidence, max_removed=max_removed)
    if cache is not None:
        cache.put_arrays(key, {"ks": ks, "fractions": fractions})
    return ks, fractions


# ---------------------------------------------------------------------------
# Spread of data (Figures 1-5)
# ---------------------------------------------------------------------------


@dataclass
class SpreadResult:
    """k-coverage curves for one (domain, attribute) panel."""

    domain: str
    attribute: str
    incidence: BipartiteIncidence = field(repr=False)
    curves: CoverageCurves

    def series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Figure-ready series: one per k."""
        return {
            f"k={k}": (self.curves.checkpoints, self.curves.curve(k))
            for k in self.curves.ks
        }

    def render(self) -> str:
        """ASCII panel in the paper's style (log-x, coverage on y)."""
        return ascii_plot(
            self.series(),
            log_x=True,
            title=f"{self.domain} {self.attribute}s (k-coverage of top-t sites)",
            x_label="top-t sites",
            y_label="coverage",
        )


def run_spread(
    domain: str, attribute: str, config: ExperimentConfig
) -> SpreadResult:
    """One spread panel: generate the incidence, compute k-coverage."""
    incidence = spread_incidence(domain, attribute, config)
    curves = k_coverage_curves(incidence, ks=config.ks)
    return SpreadResult(
        domain=domain, attribute=attribute, incidence=incidence, curves=curves
    )


def run_figure1(config: ExperimentConfig) -> dict[str, SpreadResult]:
    """Figure 1: phone k-coverage for the 8 local-business domains."""
    return {
        domain: run_spread(domain, ATTRIBUTE_PHONE, config)
        for domain in LOCAL_BUSINESS_DOMAINS
    }


def run_figure2(config: ExperimentConfig) -> dict[str, SpreadResult]:
    """Figure 2: homepage k-coverage for the 8 local-business domains."""
    return {
        domain: run_spread(domain, ATTRIBUTE_HOMEPAGE, config)
        for domain in LOCAL_BUSINESS_DOMAINS
    }


def run_figure3(config: ExperimentConfig) -> SpreadResult:
    """Figure 3: book ISBN k-coverage."""
    return run_spread("books", ATTRIBUTE_ISBN, config)


@dataclass
class ReviewSpreadResult:
    """Figure 4: review k-coverage plus the aggregate-review curve."""

    spread: SpreadResult
    aggregate_checkpoints: np.ndarray
    aggregate_fractions: np.ndarray

    def aggregate_series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Figure 4(b) series."""
        return {
            "aggregate reviews": (
                self.aggregate_checkpoints,
                self.aggregate_fractions,
            )
        }

    def render(self) -> str:
        """Both panels, ASCII."""
        panel_a = self.spread.render()
        panel_b = ascii_plot(
            self.aggregate_series(),
            log_x=True,
            title="Aggregate reviews (fraction of all review pages in top-n sites)",
            x_label="top-n sites",
            y_label="fraction of review pages",
        )
        return panel_a + "\n\n" + panel_b


def run_figure4(config: ExperimentConfig) -> ReviewSpreadResult:
    """Figure 4: spread of the restaurant review attribute."""
    spread = run_spread("restaurants", ATTRIBUTE_REVIEWS, config)
    checkpoints, fractions = aggregate_coverage_curve(spread.incidence)
    return ReviewSpreadResult(
        spread=spread,
        aggregate_checkpoints=checkpoints,
        aggregate_fractions=fractions,
    )


@dataclass
class SetCoverResult:
    """Figure 5: 1-coverage under size order vs. greedy set cover."""

    domain: str
    attribute: str
    checkpoints: np.ndarray
    by_size: np.ndarray
    by_greedy: np.ndarray

    def series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Both orderings as plot series."""
        return {
            "order by size": (self.checkpoints, self.by_size),
            "greedy set cover": (self.checkpoints, self.by_greedy),
        }

    def max_improvement(self) -> float:
        """Largest coverage gain of greedy over size order at any t."""
        return float(np.max(self.by_greedy - self.by_size))

    def render(self) -> str:
        """ASCII panel."""
        return ascii_plot(
            self.series(),
            log_x=True,
            title=f"Greedy covering for {self.domain} {self.attribute}s",
            x_label="top-t sites",
            y_label="1-coverage",
        )


def run_figure5(
    config: ExperimentConfig,
    domain: str = "restaurants",
    attribute: str = ATTRIBUTE_HOMEPAGE,
) -> SetCoverResult:
    """Figure 5: does careful (greedy) site selection beat size order?"""
    incidence = spread_incidence(domain, attribute, config)
    curves = k_coverage_curves(incidence, ks=(1,))
    checkpoints = curves.checkpoints
    __, greedy = greedy_coverage_curve(incidence, checkpoints=checkpoints)
    return SetCoverResult(
        domain=domain,
        attribute=attribute,
        checkpoints=checkpoints,
        by_size=curves.curve(1),
        by_greedy=greedy,
    )


# ---------------------------------------------------------------------------
# Value of tail extraction (Figures 6-8)
# ---------------------------------------------------------------------------


@dataclass
class TrafficDataset:
    """One site's sampled inventory plus measured demand vectors."""

    site: str
    reviews: np.ndarray
    search_demand: np.ndarray
    browse_demand: np.ndarray

    def demand(self, source: str) -> np.ndarray:
        """Demand vector for ``search`` or ``browse``."""
        if source == "search":
            return self.search_demand
        if source == "browse":
            return self.browse_demand
        raise ValueError(f"unknown source {source!r}")


def build_traffic_dataset(site: str, config: ExperimentConfig) -> TrafficDataset:
    """Simulate a year of traffic for one site and aggregate demand.

    Cached as an array bundle when an artifact cache is installed: the
    three Figure 6–8 runners each need all three sites, so one cold
    simulation per site serves all of them.
    """
    seed = derive_seed(config.seed, f"traffic:{site}")
    profile = get_site_profile(site)
    cache = active_cache()
    key = None
    if cache is not None:
        key = fingerprint(
            "traffic",
            profile=profile,
            n_entities=config.traffic_entities,
            n_cookies=config.traffic_cookies,
            n_events=config.traffic_events,
            cookie_activity_exponent=0.5,
            seed=seed,
        )
        arrays = cache.get_arrays(key)
        if arrays is not None:
            return TrafficDataset(
                site=site,
                reviews=arrays["reviews"],
                search_demand=arrays["search_demand"],
                browse_demand=arrays["browse_demand"],
            )
    generator = TrafficLogGenerator(
        profile,
        n_entities=config.traffic_entities,
        n_cookies=config.traffic_cookies,
        cookie_activity_exponent=0.5,
        seed=seed,
    )
    search = unique_cookie_demand(generator.search_log(config.traffic_events))
    browse = unique_cookie_demand(generator.browse_log(config.traffic_events))
    dataset = TrafficDataset(
        site=site,
        reviews=generator.population.reviews,
        search_demand=search,
        browse_demand=browse,
    )
    if cache is not None:
        cache.put_arrays(
            key,
            {
                "reviews": dataset.reviews,
                "search_demand": dataset.search_demand,
                "browse_demand": dataset.browse_demand,
            },
        )
    return dataset


def run_figure6(
    config: ExperimentConfig,
) -> dict[str, dict[str, DemandCurves]]:
    """Figure 6: demand CDF and rank-PDF per site, search and browse.

    Returns ``{source: {site: DemandCurves}}``.
    """
    datasets = {site: build_traffic_dataset(site, config) for site in TRAFFIC_SITES}
    result: dict[str, dict[str, DemandCurves]] = {}
    for source in ("search", "browse"):
        result[source] = {
            site: DemandCurves.from_demand(site, datasets[site].demand(source))
            for site in TRAFFIC_SITES
        }
    return result


def run_figure7(
    config: ExperimentConfig,
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Figure 7: mean z-scored demand per review-count group.

    Returns ``{site: {source: (review_counts, mean_demand)}}``.
    """
    result: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for site in TRAFFIC_SITES:
        dataset = build_traffic_dataset(site, config)
        result[site] = {
            source: demand_vs_reviews(dataset.demand(source), dataset.reviews)
            for source in ("search", "browse")
        }
    return result


def run_figure8(
    config: ExperimentConfig,
) -> dict[str, dict[str, ValueAddCurve]]:
    """Figure 8: relative value-add VA(n)/VA(0) per review-count group.

    Returns ``{site: {source: ValueAddCurve}}``.
    """
    result: dict[str, dict[str, ValueAddCurve]] = {}
    for site in TRAFFIC_SITES:
        dataset = build_traffic_dataset(site, config)
        result[site] = {
            source: value_add_curve(
                dataset.demand(source),
                dataset.reviews,
                label=f"{site}/{source}",
            )
            for source in ("search", "browse")
        }
    return result


# ---------------------------------------------------------------------------
# Connectivity (Table 2, Figure 9)
# ---------------------------------------------------------------------------

#: The 17 (domain, attribute) rows of Table 2, in the paper's order.
TABLE2_ROWS: tuple[tuple[str, str], ...] = (
    ("books", ATTRIBUTE_ISBN),
    ("automotive", ATTRIBUTE_PHONE),
    ("banks", ATTRIBUTE_PHONE),
    ("home", ATTRIBUTE_PHONE),
    ("hotels", ATTRIBUTE_PHONE),
    ("libraries", ATTRIBUTE_PHONE),
    ("restaurants", ATTRIBUTE_PHONE),
    ("retail", ATTRIBUTE_PHONE),
    ("schools", ATTRIBUTE_PHONE),
    ("automotive", ATTRIBUTE_HOMEPAGE),
    ("banks", ATTRIBUTE_HOMEPAGE),
    ("home", ATTRIBUTE_HOMEPAGE),
    ("hotels", ATTRIBUTE_HOMEPAGE),
    ("libraries", ATTRIBUTE_HOMEPAGE),
    ("restaurants", ATTRIBUTE_HOMEPAGE),
    ("retail", ATTRIBUTE_HOMEPAGE),
    ("schools", ATTRIBUTE_HOMEPAGE),
)


def run_table1() -> str:
    """Table 1: the domain/attribute inventory."""
    return ascii_table(
        ["Domains", "Attributes"], table1_rows(), title="Table 1: List of Domains"
    )


def run_table2(
    config: ExperimentConfig,
    rows: tuple[tuple[str, str], ...] = TABLE2_ROWS,
) -> list[GraphMetrics]:
    """Table 2: entity–site graph metrics for every (domain, attribute)."""
    return [
        _graph_metrics_row(domain, attribute, config)
        for domain, attribute in rows
    ]


def format_table2(metrics: list[GraphMetrics]) -> str:
    """Render Table 2 in the paper's column layout."""
    rows = [
        (
            m.domain,
            m.attribute,
            round(m.avg_sites_per_entity, 1),
            m.diameter,
            m.n_components,
            round(m.pct_entities_in_largest, 2),
        )
        for m in metrics
    ]
    return ascii_table(
        [
            "Domain",
            "Attr",
            "Avg #sites/entity",
            "diameter",
            "# conn. comp.",
            "% entities in largest",
        ],
        rows,
        title="Table 2: Entity-Site Graphs and Metrics",
    )


def run_figure9(
    config: ExperimentConfig,
    max_removed: int = 10,
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Figure 9: largest-component fraction after removing top-k sites.

    Returns ``{panel: {domain: (ks, fractions)}}`` with panels
    ``phone``, ``homepage``, and ``isbn``, mirroring 9(a)-9(c).
    """
    panels: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {
        ATTRIBUTE_PHONE: {},
        ATTRIBUTE_HOMEPAGE: {},
        ATTRIBUTE_ISBN: {},
    }
    for domain in LOCAL_BUSINESS_DOMAINS:
        for attribute in (ATTRIBUTE_PHONE, ATTRIBUTE_HOMEPAGE):
            panels[attribute][domain] = _robustness_panel(
                domain, attribute, config, max_removed
            )
    panels[ATTRIBUTE_ISBN]["books"] = _robustness_panel(
        "books", ATTRIBUTE_ISBN, config, max_removed
    )
    return panels


# ---------------------------------------------------------------------------
# The artifact table: what each `repro all` task writes
# ---------------------------------------------------------------------------

#: Labelled (x, y) series, as :func:`repro.report.figures.write_csv` takes.
Series = dict[str, tuple[np.ndarray, np.ndarray]]
#: One ``.txt`` file of a task: its name, its text, and the CSV series
#: written beside it, keyed by CSV stem.
Rendered = tuple[str, str, dict[str, Series]]


@dataclass(frozen=True)
class Artifact:
    """One table or figure: how it renders and what shared data it reads.

    ``render`` returns every file its task writes, in order.
    ``corpora`` and ``traffic`` name the spread corpora and traffic
    datasets it reads, so a cached run can generate each of them once,
    ahead of every reader.
    """

    render: Callable[[ExperimentConfig], list[Rendered]]
    corpora: tuple[tuple[str, str], ...] = ()
    traffic: tuple[str, ...] = ()


def _plotted(name: str, series: Series, **plot) -> Rendered:
    """A file whose text is an ASCII plot of the series its CSV holds."""
    return name, ascii_plot(series, **plot), {name: series}


def _render_table1(config: ExperimentConfig) -> list[Rendered]:
    return [("table1", run_table1(), {})]


def _spread_panels(number: int, results: dict[str, SpreadResult]) -> list[Rendered]:
    """Figures 1 and 2: one k-coverage panel per local-business domain."""
    panels = []
    for domain, result in results.items():
        name = f"figure{number}_{domain}"
        panels.append((name, result.render(), {name: result.series()}))
    return panels


def _render_figure1(config: ExperimentConfig) -> list[Rendered]:
    return _spread_panels(1, run_figure1(config))


def _render_figure2(config: ExperimentConfig) -> list[Rendered]:
    return _spread_panels(2, run_figure2(config))


def _render_figure3(config: ExperimentConfig) -> list[Rendered]:
    figure3 = run_figure3(config)
    return [("figure3", figure3.render(), {"figure3": figure3.series()})]


def _render_figure4(config: ExperimentConfig) -> list[Rendered]:
    figure4 = run_figure4(config)
    csvs = {
        "figure4a": figure4.spread.series(),
        "figure4b": figure4.aggregate_series(),
    }
    return [("figure4", figure4.render(), csvs)]


def _render_figure5(config: ExperimentConfig) -> list[Rendered]:
    figure5 = run_figure5(config)
    text = (
        figure5.render()
        + f"\n\nmax greedy improvement: {figure5.max_improvement():.3f}"
    )
    return [("figure5", text, {"figure5": figure5.series()})]


def _render_figure6(config: ExperimentConfig) -> list[Rendered]:
    return [
        _plotted(
            f"figure6_{source}",
            {site: (c.inventory, c.cumulative_share) for site, c in curves.items()},
            title=f"Figure 6 ({source}): cumulative demand",
            x_label="normalized inventory",
            y_label="cumulative demand",
        )
        for source, curves in run_figure6(config).items()
    ]


def _render_figure7(config: ExperimentConfig) -> list[Rendered]:
    return [
        _plotted(
            f"figure7_{site}",
            sources,
            title=f"Figure 7 ({site}): demand vs #reviews",
            x_label="# of reviews",
            y_label="avg normalized demand",
        )
        for site, sources in run_figure7(config).items()
    ]


def _render_figure8(config: ExperimentConfig) -> list[Rendered]:
    return [
        _plotted(
            f"figure8_{site}",
            {
                source: (curve.review_counts, curve.relative_value_add)
                for source, curve in sources.items()
            },
            log_x=True,
            title=f"Figure 8 ({site}): VA(n)/VA(0)",
            x_label="# of reviews",
            y_label="relative value-add",
        )
        for site, sources in run_figure8(config).items()
    ]


def _render_table2(config: ExperimentConfig) -> list[Rendered]:
    return [("table2", format_table2(run_table2(config)), {})]


def _render_figure9(config: ExperimentConfig) -> list[Rendered]:
    return [
        _plotted(
            f"figure9_{attribute}",
            by_domain,
            title=f"Figure 9 ({attribute}): robustness to top-k removal",
            x_label="top-k sites removed",
            y_label="fraction in largest component",
        )
        for attribute, by_domain in run_figure9(config).items()
    ]


_PHONE_PAIRS = tuple((domain, ATTRIBUTE_PHONE) for domain in LOCAL_BUSINESS_DOMAINS)
_HOMEPAGE_PAIRS = tuple(
    (domain, ATTRIBUTE_HOMEPAGE) for domain in LOCAL_BUSINESS_DOMAINS
)

#: Every table and figure, keyed by its ``repro all`` task name, in the
#: run's canonical order.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(_render_table1),
    "figure1": Artifact(_render_figure1, corpora=_PHONE_PAIRS),
    "figure2": Artifact(_render_figure2, corpora=_HOMEPAGE_PAIRS),
    "figure3": Artifact(_render_figure3, corpora=(("books", ATTRIBUTE_ISBN),)),
    "figure4": Artifact(
        _render_figure4, corpora=(("restaurants", ATTRIBUTE_REVIEWS),)
    ),
    "figure5": Artifact(
        _render_figure5, corpora=(("restaurants", ATTRIBUTE_HOMEPAGE),)
    ),
    "figure6": Artifact(_render_figure6, traffic=TRAFFIC_SITES),
    "figure7": Artifact(_render_figure7, traffic=TRAFFIC_SITES),
    "figure8": Artifact(_render_figure8, traffic=TRAFFIC_SITES),
    "table2": Artifact(_render_table2, corpora=TABLE2_ROWS),
    "figure9": Artifact(_render_figure9, corpora=TABLE2_ROWS),
}


# ---------------------------------------------------------------------------
# Full-pipeline (HTML) variant
# ---------------------------------------------------------------------------


def _build_database(domain: str, attribute: str, n_entities: int, seed: int):
    if domain == "books":
        return EntityDatabase.from_books(
            BookGenerator(seed=seed).generate(n_entities)
        )
    homepage_fraction = 1.0 if attribute == ATTRIBUTE_HOMEPAGE else 0.85
    return EntityDatabase.from_listings(
        BusinessGenerator(
            domain, seed=seed, homepage_fraction=homepage_fraction
        ).generate(n_entities)
    )


def run_spread_via_extraction(
    domain: str,
    attribute: str,
    config: ExperimentConfig,
) -> tuple[SpreadResult, BipartiteIncidence]:
    """The spread experiment via the full HTML pipeline.

    Renders the sampled incidence into actual HTML pages, stores them in
    a crawl cache, re-extracts with the Section 3.2 matchers, and runs
    the same coverage analysis on the *extracted* incidence.  Used to
    check that extraction noise does not change the curve shapes.

    Returns:
        ``(result_on_extracted, truth_incidence)``.
    """
    seed = derive_seed(config.seed, f"pipeline:{domain}:{attribute}")
    scale = config.scale_preset
    database = _build_database(domain, attribute, scale.n_entities, seed)
    profile = get_profile(domain, attribute)
    incidence = profile.generate(scale, seed=seed)
    corpus = CorpusBuilder(database, attribute, seed=seed + 1).build(incidence)
    runner = ExtractionRunner(database, attribute)
    extracted = runner.run(
        corpus.cache, with_multiplicity=attribute == ATTRIBUTE_REVIEWS
    )
    curves = k_coverage_curves(extracted, ks=config.ks)
    result = SpreadResult(
        domain=domain, attribute=attribute, incidence=extracted, curves=curves
    )
    return result, corpus.truth
