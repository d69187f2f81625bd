"""Run manifests: the handle every storage backend opens.

A manifest (``manifest.json``, written by
:func:`repro.pipeline.runall.write_manifest`) records the experiment
config and corpus inventory of a completed ``repro all`` run.  It is
the *input* to the store compiler in :mod:`repro.store.compile` and to
both tiers that open the compiled store (:mod:`repro.store.backend`,
reached from ``repro serve`` through :mod:`repro.serve.indices`), so it
lives here, below the HTTP tier in the layer DAG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.perf import fingerprint
from repro.pipeline.config import MANIFEST_FORMAT, MANIFEST_NAME, ExperimentConfig

__all__ = ["Manifest", "load_manifest", "manifest_identity"]


@dataclass(frozen=True)
class Manifest:
    """Parsed ``manifest.json``: the config and shape of a finished run."""

    config: ExperimentConfig
    spread_pairs: tuple[tuple[str, str], ...]
    traffic_sites: tuple[str, ...]
    artifacts: tuple[str, ...]


def load_manifest(path: str | Path) -> Manifest:
    """Load a run manifest from a file or a run output directory.

    Raises:
        FileNotFoundError: No manifest exists (the run never completed).
        ValueError: The file is not a ``repro-manifest-v1`` document.
    """
    location = Path(path)
    if location.is_dir():
        location = location / MANIFEST_NAME
    payload = json.loads(location.read_text())
    if payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{location}: expected format {MANIFEST_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    raw = payload["config"]
    config = ExperimentConfig(
        scale=raw["scale"],
        seed=raw["seed"],
        ks=tuple(raw["ks"]),
        max_bfs=raw["max_bfs"],
        traffic_entities=raw["traffic_entities"],
        traffic_events=raw["traffic_events"],
        traffic_cookies=raw["traffic_cookies"],
    )
    return Manifest(
        config=config,
        spread_pairs=tuple(
            (str(domain), str(attribute))
            for domain, attribute in payload["spread_pairs"]
        ),
        traffic_sites=tuple(payload["traffic_sites"]),
        artifacts=tuple(payload.get("artifacts", ())),
    )


def manifest_identity(manifest: Manifest) -> str:
    """The index fingerprint a manifest would build to, without building.

    This is exactly the ``identity`` every backend assigns — a pure
    function of the config and corpus inventory — so a hot-reload
    watcher can decide whether a rewritten ``manifest.json`` actually
    changes the serving index before paying for a rebuild, and the
    response cache can key on it regardless of which backend answered.
    """
    return fingerprint(
        "serve-index",
        config=manifest.config,
        pairs=[list(pair) for pair in manifest.spread_pairs],
        traffic_sites=list(manifest.traffic_sites),
    )
