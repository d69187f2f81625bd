"""repro.serve pagination: opaque cursors over the stable CSR order."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.config import ExperimentConfig
from repro.serve import ServeApp, ServeSettings
from repro.serve.indices import build_index
from repro.serve.server import _decode_cursor, _encode_cursor
from repro.store import Manifest

CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)

MANIFEST = Manifest(
    config=CONFIG,
    spread_pairs=(("restaurants", "phone"),),
    traffic_sites=("imdb",),
    artifacts=(),
)

#: The fattest host under this seed: 191 entities (found empirically,
#: stable because the corpus generators are seeded).
HOST = "site-000000.restaurants-phone.example.com"
BASE = f"/v1/site/{HOST}/entities"


@pytest.fixture(scope="module")
def index():
    return build_index(MANIFEST)


@pytest.fixture()
def app(index):
    instance = ServeApp(index, ServeSettings(response_cache_entries=0))
    yield instance
    instance.close()


def get(app: ServeApp, path: str) -> tuple[int, dict]:
    status, body = app.handle(path)
    return status, json.loads(body)


def test_cursor_roundtrip_and_opacity():
    cursor = _encode_cursor("restaurants", "phone", 150)
    assert "restaurants" not in cursor  # base64url: opaque to clients
    assert _decode_cursor(cursor) == ("restaurants", "phone", 150)


@pytest.mark.parametrize(
    "cursor",
    [
        "not-base64!!!",
        "aGVsbG8",  # valid base64, not JSON
        _encode_cursor("restaurants", "phone", -1),  # negative offset
    ],
)
def test_malformed_cursors_400(app, cursor):
    status, payload = get(app, f"{BASE}?limit=10&cursor={cursor}")
    assert status == 400
    assert "cursor" in payload["error"]


def test_legacy_shape_without_limit_or_cursor(app, index):
    """The PR 4 contract is untouched when no paging params appear."""
    status, payload = get(app, BASE)
    assert status == 200
    (match,) = payload["matches"]
    assert match["n_entities"] == 191
    assert match["truncated"] is False
    assert len(match["entities"]) == 191
    assert "next_cursor" not in payload
    assert "offset" not in match


def test_pages_concatenate_to_the_full_listing(app):
    """Walking cursors with any limit reproduces the listing exactly."""
    __, full = get(app, BASE)
    (full_match,) = full["matches"]

    collected: list[str] = []
    offsets: list[int] = []
    pages = 0
    cursor = None
    while True:
        path = f"{BASE}?limit=50" + (f"&cursor={cursor}" if cursor else "")
        status, payload = get(app, path)
        assert status == 200
        assert payload["limit"] == 50
        (match,) = payload["matches"]
        assert match["domain"] == "restaurants"
        assert match["n_entities"] == 191
        offsets.append(match["offset"])
        collected.extend(match["entities"])
        pages += 1
        cursor = payload["next_cursor"]
        if cursor is None:
            break
    assert pages == 4  # 50 + 50 + 50 + 41
    assert offsets == [0, 50, 100, 150]
    assert collected == full_match["entities"]


def test_page_boundary_exactly_at_listing_end(app):
    """A page ending on the last entity yields no next cursor."""
    cursor = _encode_cursor("restaurants", "phone", 141)
    status, payload = get(app, f"{BASE}?limit=50&cursor={cursor}")
    assert status == 200
    (match,) = payload["matches"]
    assert len(match["entities"]) == 50
    assert payload["next_cursor"] is None


def test_limit_is_capped_by_settings(index):
    app = ServeApp(
        index,
        ServeSettings(max_site_entities=30, response_cache_entries=0),
    )
    try:
        status, payload = get(app, f"{BASE}?limit=1000")
        assert status == 200
        assert payload["limit"] == 30
        (match,) = payload["matches"]
        assert len(match["entities"]) == 30
    finally:
        app.close()


def test_limit_must_be_positive(app):
    status, payload = get(app, f"{BASE}?limit=0")
    assert status == 400
    assert "limit" in payload["error"]


def test_cursor_for_foreign_pair_400(app):
    cursor = _encode_cursor("books", "isbn", 0)
    status, payload = get(app, f"{BASE}?limit=10&cursor={cursor}")
    assert status == 400
    assert "cursor names no current match" in payload["error"]


def test_cursor_offset_beyond_listing_400(app):
    cursor = _encode_cursor("restaurants", "phone", 100_000)
    status, payload = get(app, f"{BASE}?limit=10&cursor={cursor}")
    assert status == 400
    assert "beyond" in payload["error"]


def test_paged_responses_are_deterministic_bytes(app):
    path = f"{BASE}?limit=25"
    first = app.handle(path)
    second = app.handle(path)
    assert first == second


def test_pagination_composes_with_response_cache(index):
    cached = ServeApp(index, ServeSettings(response_cache_entries=64))
    plain = ServeApp(index, ServeSettings(response_cache_entries=0))
    try:
        path = f"{BASE}?limit=40"
        baseline = plain.handle(path)
        assert cached.handle(path) == baseline
        assert cached.handle(path) == baseline  # served from the rcache
        assert cached.rcache.stats()["hits"] >= 1
    finally:
        cached.close()
        plain.close()
