"""Runners for the extension studies (beyond the paper's own figures).

The tables/figures runners live in :mod:`repro.pipeline.experiments`;
this module gives the extension analyses the same one-call shape, each
returning a small result object with a ``render()`` method:

- :func:`run_discovery_study` — perfect vs. budgeted bootstrapping
  against the d/2 bound.
- :func:`run_redundancy_study` — content-redundancy reports per
  (domain, attribute).
- :func:`run_user_tail_study` — per-user tail exposure per site.
- :func:`run_staleness_study` — snapshot decay and re-crawl policies.

The discovery/redundancy/staleness runners cache their *derived panels*
through :func:`repro.perf.active_cache` (the studies already shared the
spread incidences; now warm runs skip the expansions, report scans, and
corpus evolution too).  Every cached row is coerced to plain Python
scalars before storage, so a JSON round-tripped warm result is
indistinguishable from a cold one — same byte-identity contract as the
pipeline artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import EntitySiteGraph
from repro.core.redundancy import RedundancyReport, redundancy_report
from repro.discovery.bootstrap import BootstrapExpansion
from repro.discovery.noisy import NoisyExpansion
from repro.perf import active_cache, derive_seed, fingerprint
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.experiments import spread_incidence
from repro.report.tables import ascii_table
from repro.traffic.demandmodel import get_site_profile
from repro.traffic.logs import TrafficLogGenerator
from repro.traffic.users import UserTailReport, user_tail_analysis
from repro.webgen.evolution import CorpusEvolver, recrawl_comparison, staleness_curve
from repro.webgen.profiles import get_profile

__all__ = [
    "DiscoveryStudy",
    "StalenessStudy",
    "format_user_tail",
    "run_discovery_study",
    "run_redundancy_study",
    "run_staleness_study",
    "run_user_tail_study",
]


@dataclass(frozen=True)
class DiscoveryStudy:
    """Perfect vs. budgeted bootstrapping on one corpus."""

    domain: str
    attribute: str
    diameter: int
    perfect_iterations: int
    perfect_coverage: float
    budgeted_iterations: int
    budgeted_coverage: float
    budgeted_queries: int

    def render(self) -> str:
        """Human-readable summary."""
        return "\n".join(
            [
                f"Bootstrapping discovery ({self.domain}/{self.attribute}):",
                f"  diameter d = {self.diameter} (bound d/2 = {self.diameter // 2})",
                f"  perfect:  {self.perfect_iterations} iterations, "
                f"{self.perfect_coverage:.1%} coverage",
                f"  budgeted: {self.budgeted_iterations} iterations, "
                f"{self.budgeted_coverage:.1%} coverage, "
                f"{self.budgeted_queries} queries",
            ]
        )


def run_discovery_study(
    config: ExperimentConfig,
    domain: str = "restaurants",
    attribute: str = "phone",
    seed_size: int = 5,
    retrieval_budget: int = 10,
    extraction_recall: float = 0.9,
) -> DiscoveryStudy:
    """Run both expansion variants on a freshly generated corpus.

    Cached as a JSON record when an artifact cache is installed; the
    fingerprint covers the corpus identity (profile/scale/stream seed),
    the master seed both expansions draw from, and every study knob.
    """
    cache = active_cache()
    key = None
    if cache is not None:
        key = fingerprint(
            "discovery-study",
            profile=get_profile(domain, attribute),
            scale=config.scale_preset,
            stream_seed=derive_seed(config.seed, f"spread:{domain}:{attribute}"),
            master_seed=config.seed,
            max_bfs=config.max_bfs,
            seed_size=seed_size,
            retrieval_budget=retrieval_budget,
            extraction_recall=extraction_recall,
        )
        rows = cache.get_records(key)
        if rows:
            return DiscoveryStudy(**rows[0])
    incidence = spread_incidence(domain, attribute, config)
    graph = EntitySiteGraph(incidence)
    diameter = graph.diameter(max_bfs=config.max_bfs)
    perfect = BootstrapExpansion(incidence).random_seed_trial(
        seed_size, rng=config.seed
    )
    budgeted = NoisyExpansion(
        incidence,
        retrieval_budget=retrieval_budget,
        extraction_recall=extraction_recall,
        seed=config.seed,
    ).run(perfect.entities[:seed_size].tolist())
    n = incidence.n_entities
    # Plain-scalar record so the cold result and the JSON round-tripped
    # warm result are indistinguishable downstream.
    record = {
        "domain": domain,
        "attribute": attribute,
        "diameter": int(diameter),
        "perfect_iterations": int(perfect.iterations),
        "perfect_coverage": float(perfect.entity_fraction(n)),
        "budgeted_iterations": int(budgeted.iterations),
        "budgeted_coverage": float(budgeted.entity_fraction(n)),
        "budgeted_queries": int(budgeted.queries_issued),
    }
    if cache is not None:
        cache.put_records(key, [record])
    return DiscoveryStudy(**record)


def run_redundancy_study(
    config: ExperimentConfig,
    pairs: tuple[tuple[str, str], ...] = (
        ("restaurants", "phone"),
        ("restaurants", "homepage"),
        ("books", "isbn"),
    ),
) -> dict[tuple[str, str], RedundancyReport]:
    """Redundancy reports for several (domain, attribute) corpora.

    Each pair's report is cached as one JSON record keyed on the corpus
    identity, so warm runs skip both generation and the report scans.
    """
    cache = active_cache()
    reports = {}
    for domain, attribute in pairs:
        key = None
        if cache is not None:
            key = fingerprint(
                "redundancy-report",
                profile=get_profile(domain, attribute),
                scale=config.scale_preset,
                stream_seed=derive_seed(config.seed, f"spread:{domain}:{attribute}"),
            )
            rows = cache.get_records(key)
            if rows:
                reports[(domain, attribute)] = RedundancyReport(**rows[0])
                continue
        incidence = spread_incidence(domain, attribute, config)
        measured = redundancy_report(incidence)
        record = {
            "redundancy_coefficient": float(measured.redundancy_coefficient),
            "singleton_fraction": float(measured.singleton_fraction),
            "median_replication": float(measured.median_replication),
            "head_overlap_mean": float(measured.head_overlap_mean),
            "novelty_decay_rank": int(measured.novelty_decay_rank),
        }
        if cache is not None:
            cache.put_records(key, [record])
        reports[(domain, attribute)] = RedundancyReport(**record)
    return reports


def run_user_tail_study(
    config: ExperimentConfig,
    source: str = "browse",
    tail_fraction: float = 0.8,
) -> dict[str, UserTailReport]:
    """User-level tail exposure per traffic site."""
    reports = {}
    for site in ("imdb", "amazon", "yelp"):
        generator = TrafficLogGenerator(
            get_site_profile(site),
            n_entities=config.traffic_entities,
            n_cookies=config.traffic_cookies,
            seed=derive_seed(config.seed, f"traffic:{site}"),
        )
        log = (
            generator.browse_log(config.traffic_events)
            if source == "browse"
            else generator.search_log(config.traffic_events)
        )
        reports[site] = user_tail_analysis(log, tail_fraction=tail_fraction)
    return reports


def format_user_tail(reports: dict[str, UserTailReport]) -> str:
    """Render the user-tail study as a table."""
    rows = [
        (
            site,
            round(report.tail_demand_share, 3),
            round(report.users_touching_tail, 3),
            round(report.users_regular_tail, 3),
        )
        for site, report in reports.items()
    ]
    return ascii_table(
        ["site", "tail demand share", "users touching tail", "users regular"],
        rows,
        title="User-level tail exposure",
    )


@dataclass(frozen=True)
class StalenessStudy:
    """Snapshot decay + re-crawl policy outcomes for one corpus."""

    domain: str
    attribute: str
    epochs: int
    decay: np.ndarray
    policies: dict[str, float]

    def render(self) -> str:
        """Human-readable summary."""
        decay_text = ", ".join(f"{value:.3f}" for value in self.decay)
        lines = [
            f"Staleness study ({self.domain}/{self.attribute}, "
            f"{self.epochs} epochs):",
            f"  still-true fraction per epoch: {decay_text}",
            "  final accuracy by re-crawl policy:",
        ]
        lines.extend(
            f"    {policy:<14} {value:.3f}"
            for policy, value in self.policies.items()
        )
        return "\n".join(lines)


def run_staleness_study(
    config: ExperimentConfig,
    domain: str = "banks",
    attribute: str = "phone",
    epochs: int = 5,
    churn: float = 0.08,
    budget_per_epoch: int = 30,
) -> StalenessStudy:
    """Evolve a corpus and compare re-crawl policies.

    Cached as one JSON record (decay series + policy map) when an
    artifact cache is installed; the fingerprint covers the corpus
    identity, the evolution seed, and every churn/budget knob.
    """
    cache = active_cache()
    key = None
    if cache is not None:
        key = fingerprint(
            "staleness-study",
            profile=get_profile(domain, attribute),
            scale=config.scale_preset,
            stream_seed=derive_seed(config.seed, f"spread:{domain}:{attribute}"),
            master_seed=config.seed,
            epochs=epochs,
            churn=churn,
            budget_per_epoch=budget_per_epoch,
        )
        rows = cache.get_records(key)
        if rows:
            row = rows[0]
            return StalenessStudy(
                domain=domain,
                attribute=attribute,
                epochs=epochs,
                decay=np.asarray(row["decay"], dtype=np.float64),
                policies={name: float(v) for name, v in row["policies"].items()},
            )
    incidence = spread_incidence(domain, attribute, config)
    evolver = CorpusEvolver(edge_drop_rate=churn, edge_add_rate=churn)
    snapshots = evolver.evolve(incidence, epochs=epochs, rng=config.seed)
    decay = staleness_curve(snapshots, incidence)
    policies = recrawl_comparison(
        incidence,
        evolver,
        epochs=epochs,
        budget_per_epoch=budget_per_epoch,
        rng=config.seed,
    )
    record = {
        "decay": [float(value) for value in decay],
        "policies": {name: float(value) for name, value in policies.items()},
    }
    if cache is not None:
        cache.put_records(key, [record])
    return StalenessStudy(
        domain=domain,
        attribute=attribute,
        epochs=epochs,
        decay=np.asarray(record["decay"], dtype=np.float64),
        policies=record["policies"],
    )
