"""The HTTP query service: routing, caching, fault hooks.

:class:`ServeApp` is the transport-free request handler.
``handle(path)`` maps a request path (with query string) to
``(status, body_bytes)``, answering on the calling thread — in the
HTTP shell, the thread that reads the request's connection — so a
query that stalls holds only its own connection.  Tests drive this
object directly, no sockets needed.  The one HTTP shell around it is
:class:`~repro.serve.fasthttp.FastHTTPServer`, which
:class:`~repro.serve.sharding.ShardedServer` runs for every worker
count.

Determinism contract: handlers are pure functions of the immutable
:class:`~repro.store.backend.QueryIndex`, and bodies are rendered with
sorted keys, so a response is byte-identical whether it came from the
LRU cache, the micro-batcher's shared run, or a cold computation.

Hot reload: everything derived from one index generation — the index
itself, the response cache, the in-flight batcher, and the path-key
memo — is bundled into an :class:`_Epoch`.  A request captures the
epoch reference once and never touches ``self`` state that could swap
under it, so :meth:`ServeApp.swap_index` is a single atomic reference
assignment: in-flight requests finish against the epoch they started
with, new requests see the new one, and a torn read (old pair data
with new demand tables, say) is impossible by construction.

Fault injection: each query endpoint calls
``active_plan().apply_task_faults("serve:<endpoint>", ...)`` before its
handler, so an ``op=hang,task=serve:*`` directive wedges that request
(and any identical request coalesced onto it) until the hang ends,
while every other request keeps answering; ``op=error`` surfaces as a
500.  This puts the serving path under the same chaos suite as the
batch pipeline.
"""

from __future__ import annotations

import base64
import binascii
import json
import time
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

from repro.perf import fingerprint
from repro.resilience import InjectedTaskError, active_plan
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.rcache import ResponseCache
from repro.store.backend import QueryIndex
from repro.store.mmapcsr import ArrayPair

__all__ = [
    "RunRouter",
    "ServeApp",
    "ServeSettings",
    "WORKER_HEADER",
]

#: Response header naming the worker process that answered a request —
#: the load generator aggregates it into per-worker attribution.
WORKER_HEADER = "X-Repro-Worker"

#: Query endpoints eligible for response caching and batching.
_CACHEABLE = frozenset({"entity", "site", "coverage", "demand", "setcover"})


@dataclass(frozen=True)
class ServeSettings:
    """Operational knobs for the query service.

    Attributes:
        host: Bind address of the server's listener.
        port: Bind port (0 = ephemeral, useful in tests/CI).
        response_cache_entries: LRU response-cache capacity; 0 disables
            the cache entirely (for byte-identity comparisons).
        max_setcover_budget: Upper bound on ``/v1/setcover?budget=``.
        max_site_entities: Truncation limit for unpaginated ``/v1/site``
            listings, and the cap on ``?limit=`` page sizes.
    """

    host: str = "127.0.0.1"
    port: int = 8123
    response_cache_entries: int = 1024
    max_setcover_budget: int = 500
    max_site_entities: int = 500

    def __post_init__(self) -> None:
        if self.response_cache_entries < 0:
            raise ValueError("response_cache_entries must be >= 0")
        if self.max_setcover_budget < 1 or self.max_site_entities < 1:
            raise ValueError("limits must be >= 1")


class _HTTPError(Exception):
    """Internal control flow: an error response with a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _render(payload: dict[str, object]) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, trailing newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _encode_cursor(domain: str, attribute: str, offset: int) -> str:
    """Opaque pagination cursor over the stable CSR listing order."""
    token = json.dumps(
        {"a": attribute, "d": domain, "o": int(offset)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return base64.urlsafe_b64encode(token).decode("ascii")


def _decode_cursor(cursor: str) -> tuple[str, str, int]:
    """Decode a cursor; raises :class:`_HTTPError` 400 when malformed."""
    try:
        payload = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        domain, attribute = str(payload["d"]), str(payload["a"])
        offset = int(payload["o"])
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise _HTTPError(400, f"malformed cursor: {type(exc).__name__}") from exc
    if offset < 0:
        raise _HTTPError(400, "malformed cursor: negative offset")
    return domain, attribute, offset


class _Epoch:
    """One index generation and every cache derived from it.

    Requests capture the epoch once; hot reload replaces the whole
    bundle in one reference assignment.  The path-key memo maps raw
    request targets to their (endpoint, fingerprint) so the hot path
    skips URL parsing and sha256 hashing entirely on repeat targets —
    it is bounded and simply cleared when full (memo entries are pure
    derivations, so losing them only costs a recompute).
    """

    __slots__ = ("index", "rcache", "batcher", "path_keys", "path_keys_cap")

    def __init__(self, index: QueryIndex, settings: ServeSettings) -> None:
        """Build the caches one index generation owns."""
        self.index = index
        self.rcache: ResponseCache | None = (
            ResponseCache(settings.response_cache_entries)
            if settings.response_cache_entries
            else None
        )
        self.batcher = MicroBatcher()
        self.path_keys: dict[str, tuple[str, str]] = {}
        self.path_keys_cap = max(4096, 4 * settings.response_cache_entries)


class ServeApp:
    """Socket-free request handler over an immutable :class:`QueryIndex`."""

    def __init__(
        self,
        index: QueryIndex,
        settings: ServeSettings | None = None,
        worker_id: int = 0,
    ) -> None:
        """Wire the index to caches and metrics."""
        self.settings = settings or ServeSettings()
        self.worker_id = int(worker_id)
        self.metrics = ServeMetrics()
        self.metrics.set_index_build_seconds(index.build_seconds)
        self._epoch = _Epoch(index, self.settings)

    # Back-compat accessors: tests and callers address the *current*
    # epoch's structures through the app.
    @property
    def index(self) -> QueryIndex:
        """The current index generation."""
        return self._epoch.index

    @property
    def rcache(self) -> ResponseCache | None:
        """The current epoch's response cache (None when disabled)."""
        return self._epoch.rcache

    @property
    def batcher(self) -> MicroBatcher:
        """The current epoch's micro-batcher."""
        return self._epoch.batcher

    def swap_index(self, index: QueryIndex) -> None:
        """Atomically point new requests at ``index``.

        In-flight requests keep the epoch they captured — no lock, no
        drain, no torn reads.  The response cache and batcher are
        rebuilt with the epoch because their keys embed the old index
        identity and would never hit again anyway.
        """
        self.metrics.set_index_build_seconds(index.build_seconds)
        self._epoch = _Epoch(index, self.settings)
        self.metrics.count_index_swap()

    def close(self) -> None:
        """Nothing to stop: every request runs on its caller's thread."""

    # -- routing --------------------------------------------------------------

    def handle(self, target: str) -> tuple[int, bytes]:
        """Serve one GET request path; never raises."""
        started = time.perf_counter()
        epoch = self._epoch
        # Hot path: a repeat target skips urlsplit + param normalization
        # + fingerprint hashing and goes straight to the response cache.
        memo = epoch.path_keys.get(target)
        if memo is not None and epoch.rcache is not None:
            endpoint, key = memo
            cached = epoch.rcache.get(key)
            if cached is not None:
                self.metrics.observe(
                    endpoint, cached[0], time.perf_counter() - started
                )
                return cached
        endpoint = "unknown"
        try:
            parts = urlsplit(target)
            segments = [s for s in parts.path.split("/") if s]
            params = dict(parse_qsl(parts.query, keep_blank_values=True))
            endpoint, status, body = self._route(segments, params, epoch, target)
        except _HTTPError as exc:
            status, body = exc.status, _render(
                {"error": str(exc), "status": exc.status}
            )
        except InjectedTaskError as exc:
            status, body = 500, _render({"error": str(exc), "status": 500})
        except Exception as exc:
            # Process boundary: a handler bug must become a 500 response,
            # never a dropped connection or a dead server thread.
            status, body = 500, _render(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500}
            )
        self.metrics.observe(endpoint, status, time.perf_counter() - started)
        return status, body

    def _route(
        self,
        segments: list[str],
        params: dict[str, str],
        epoch: _Epoch,
        target: str,
    ) -> tuple[str, int, bytes]:
        """Dispatch to an endpoint; returns (endpoint, status, body)."""
        if segments == ["healthz"]:
            return "healthz", 200, _render(epoch.index.summary())
        if segments == ["metrics"]:
            return "metrics", 200, _render(self._metrics_payload(epoch))
        if len(segments) >= 2 and segments[0] == "v1":
            kind = segments[1]
            if kind == "entity" and len(segments) == 5 and segments[4] == "sites":
                return "entity", *self._query(
                    "entity",
                    {"domain": segments[2], "id": segments[3], **params},
                    epoch,
                    target,
                )
            if kind == "site" and len(segments) == 4 and segments[3] == "entities":
                return "site", *self._query(
                    "site", {"host": segments[2], **params}, epoch, target
                )
            if kind == "coverage" and len(segments) == 3:
                return "coverage", *self._query(
                    "coverage", {"domain": segments[2], **params}, epoch, target
                )
            if kind == "demand" and len(segments) == 3:
                return "demand", *self._query(
                    "demand", {"site": segments[2], **params}, epoch, target
                )
            if kind == "setcover" and len(segments) == 3:
                return "setcover", *self._query(
                    "setcover", {"domain": segments[2], **params}, epoch, target
                )
        raise _HTTPError(404, f"no route for /{'/'.join(segments)}")

    # -- query execution ------------------------------------------------------

    def _query(
        self,
        endpoint: str,
        params: dict[str, str],
        epoch: _Epoch,
        target: str,
    ) -> tuple[int, bytes]:
        """Run one cacheable query: LRU -> micro-batcher -> compute.

        The cache key fingerprints (endpoint, normalized params, index
        identity); the same key coalesces concurrent identical requests
        onto one run, on the first requester's own thread.  A wedged
        handler (fault-injected or not) holds only the requests waiting
        on that key, never the server.
        """
        assert endpoint in _CACHEABLE
        key = fingerprint(
            "serve-response",
            endpoint=endpoint,
            params=dict(sorted(params.items())),
            index=epoch.index.identity,
        )
        if epoch.rcache is not None:
            # Memoize target -> key so repeats take the fast path; the
            # memo is epoch-scoped, so a swap invalidates it wholesale.
            if len(epoch.path_keys) >= epoch.path_keys_cap:
                epoch.path_keys.clear()
            epoch.path_keys[target] = (endpoint, key)
            cached = epoch.rcache.get(key)
            if cached is not None:
                return cached
        status, body = epoch.batcher.submit(
            key, lambda: self._compute(endpoint, params, epoch)
        )
        if epoch.rcache is not None and status == 200:
            epoch.rcache.put(key, status, body)
        return status, body

    def _compute(
        self, endpoint: str, params: dict[str, str], epoch: _Epoch
    ) -> tuple[int, bytes]:
        """Query body, run by the batcher's leader (fault-injectable).

        Always returns a response tuple — errors become status codes
        here, inside the endpoint's attribution scope, so `/metrics`
        charges a 400/404/500 to the endpoint that produced it rather
        than to ``unknown``.
        """
        try:
            plan = active_plan()
            if plan is not None:
                plan.apply_task_faults(
                    f"serve:{endpoint}", attempt=1, in_worker=False
                )
            payload = getattr(self, f"_handle_{endpoint}")(epoch.index, params)
        except _HTTPError as exc:
            return exc.status, _render({"error": str(exc), "status": exc.status})
        except (KeyError, ValueError) as exc:
            return 400, _render({"error": str(exc), "status": 400})
        except Exception as exc:
            # Includes injected faults: a raising handler must answer its
            # own requesters, never drop their connections.
            return 500, _render(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500}
            )
        return 200, _render(payload)

    @staticmethod
    def _pair(index: QueryIndex, params: dict[str, str]) -> ArrayPair:
        """Resolve the (domain, attribute) pair named by request params."""
        domain = params["domain"]
        pair = index.resolve_pair(domain, params.get("attribute"))
        if pair is None:
            raise _HTTPError(
                404,
                f"unknown domain/attribute "
                f"{domain}/{params.get('attribute') or '<default>'}",
            )
        return pair

    @staticmethod
    def _int_param(params: dict[str, str], name: str, default: int | None = None) -> int:
        """Parse a required-or-defaulted integer query parameter."""
        raw = params.get(name)
        if raw is None:
            if default is None:
                raise _HTTPError(400, f"missing required parameter {name!r}")
            return default
        try:
            return int(raw)
        except ValueError:
            raise _HTTPError(400, f"parameter {name!r} must be an integer") from None

    def _handle_entity(
        self, index: QueryIndex, params: dict[str, str]
    ) -> dict[str, object]:
        """GET /v1/entity/{domain}/{id}/sites — where does an entity live?"""
        pair = self._pair(index, params)
        entity = pair.resolve_entity(params["id"])
        if entity is None:
            raise _HTTPError(
                404, f"unknown entity {params['id']!r} in {pair.domain}"
            )
        hosts = pair.entity_site_hosts(entity)
        return {
            "domain": pair.domain,
            "attribute": pair.attribute,
            "entity": pair.entity_label(entity),
            "entity_index": int(entity),
            "n_sites": int(len(hosts)),
            "sites": hosts,
        }

    def _site_matches(
        self, index: QueryIndex, host: str, params: dict[str, str]
    ) -> list[tuple[ArrayPair, int]]:
        """(pair, site) matches for a host, in stable sorted-pair order."""
        matches = index.host_matches(
            host, params.get("domain"), params.get("attribute")
        )
        if not matches:
            raise _HTTPError(404, f"unknown host {host!r}")
        return matches

    def _handle_site(
        self, index: QueryIndex, params: dict[str, str]
    ) -> dict[str, object]:
        """GET /v1/site/{host}/entities — what does a site mention?

        Without ``limit``/``cursor`` this is the PR 4 contract: every
        match with its entity list truncated at ``max_site_entities``.
        With them it pages over the same stable CSR order: each page
        holds up to ``limit`` entities (across matches, in sorted-pair
        order) plus an opaque ``next_cursor``; concatenating every
        page's entities per match reproduces the full listing exactly.
        """
        host = params["host"]
        matches = self._site_matches(index, host, params)
        if "limit" not in params and "cursor" not in params:
            limit = self.settings.max_site_entities
            return {
                "host": host,
                "matches": [
                    {
                        "domain": pair.domain,
                        "attribute": pair.attribute,
                        "n_entities": int(total),
                        "truncated": bool(total > limit),
                        "entities": pair.entity_labels(page),
                    }
                    for pair, total, page in (
                        (pair, *pair.site_page(site, 0, limit))
                        for pair, site in matches
                    )
                ],
            }
        limit = self._int_param(
            params, "limit", default=self.settings.max_site_entities
        )
        if limit < 1:
            raise _HTTPError(400, f"limit must be >= 1, got {limit}")
        limit = min(limit, self.settings.max_site_entities)
        start_at = 0
        offset = 0
        cursor = params.get("cursor")
        if cursor is not None:
            domain, attribute, offset = _decode_cursor(cursor)
            keys = [(pair.domain, pair.attribute) for pair, __ in matches]
            try:
                start_at = keys.index((domain, attribute))
            except ValueError:
                raise _HTTPError(
                    400, f"cursor names no current match: {domain}/{attribute}"
                ) from None
        pages: list[dict[str, object]] = []
        remaining = limit
        next_cursor: str | None = None
        for position in range(start_at, len(matches)):
            pair, site = matches[position]
            begin = offset if position == start_at else 0
            total, taken = pair.site_page(site, begin, remaining)
            if begin > total:
                raise _HTTPError(400, "cursor offset beyond listing")
            pages.append(
                {
                    "domain": pair.domain,
                    "attribute": pair.attribute,
                    "n_entities": int(total),
                    "offset": int(begin),
                    "entities": pair.entity_labels(taken),
                }
            )
            remaining -= len(taken)
            if begin + len(taken) < total:
                next_cursor = _encode_cursor(
                    pair.domain, pair.attribute, begin + len(taken)
                )
                break
            if remaining == 0:
                if position + 1 < len(matches):
                    follower, __ = matches[position + 1]
                    next_cursor = _encode_cursor(
                        follower.domain, follower.attribute, 0
                    )
                break
        return {
            "host": host,
            "limit": int(limit),
            "matches": pages,
            "next_cursor": next_cursor,
        }

    def _handle_coverage(
        self, index: QueryIndex, params: dict[str, str]
    ) -> dict[str, object]:
        """GET /v1/coverage/{domain}?k=&t= — dense-table k-coverage."""
        pair = self._pair(index, params)
        k = self._int_param(params, "k", default=1)
        top_t = self._int_param(params, "t", default=pair.n_sites)
        try:
            value = pair.coverage_at(k, top_t)
        except (KeyError, ValueError) as exc:
            raise _HTTPError(400, str(exc)) from exc
        return {
            "domain": pair.domain,
            "attribute": pair.attribute,
            "k": k,
            "t": top_t,
            "coverage": round(value, 6),
        }

    def _handle_demand(
        self, index: QueryIndex, params: dict[str, str]
    ) -> dict[str, object]:
        """GET /v1/demand/{site}?n_reviews=&source= — Figure-7 lookup."""
        site = params["site"]
        table = index.demand.get(site)
        if table is None:
            raise _HTTPError(
                404,
                f"unknown traffic site {site!r}; "
                f"have {sorted(index.demand)}",
            )
        n_reviews = self._int_param(params, "n_reviews")
        if n_reviews < 0:
            raise _HTTPError(400, "n_reviews must be non-negative")
        source = params.get("source", "search")
        try:
            result = table.lookup(source, n_reviews)
        except KeyError as exc:
            raise _HTTPError(400, str(exc)) from exc
        return {"site": site, "source": source, "n_reviews": n_reviews, **result}

    def _handle_setcover(
        self, index: QueryIndex, params: dict[str, str]
    ) -> dict[str, object]:
        """GET /v1/setcover/{domain}?budget= — bounded greedy cover."""
        pair = self._pair(index, params)
        budget = self._int_param(params, "budget", default=10)
        if not 1 <= budget <= self.settings.max_setcover_budget:
            raise _HTTPError(
                400,
                f"budget must be in [1, {self.settings.max_setcover_budget}], "
                f"got {budget}",
            )
        return {
            "domain": pair.domain,
            "attribute": pair.attribute,
            **pair.set_cover(budget),
        }

    def _metrics_payload(self, epoch: _Epoch) -> dict[str, object]:
        """The `/metrics` document: counters, histograms, cache stats."""
        payload = self.metrics.snapshot()
        payload["worker"] = self.worker_id
        payload["response_cache"] = (
            epoch.rcache.stats()
            if epoch.rcache is not None
            else {"enabled": False}
        )
        payload["batcher"] = epoch.batcher.stats()
        payload["index_fingerprint"] = epoch.index.identity
        payload["backend"] = epoch.index.backend
        return payload


class RunRouter:
    """Route ``/v1/run/{run_id}/...`` prefixes to per-run apps.

    The multi-run registry: each run keeps its own :class:`ServeApp`
    (index epoch, response cache, batcher, metrics), so runs reload and
    account independently.  Legacy unprefixed routes go to the default
    run unchanged — single-run clients never notice the router — and
    ``/v1/runs`` lists the registry.  The router quacks like a
    :class:`ServeApp` where the HTTP shell cares (``handle`` /
    ``worker_id``), so every worker drives it unmodified.
    """

    def __init__(self, apps: dict[str, ServeApp], default_run: str) -> None:
        if default_run not in apps:
            raise ValueError(f"default run {default_run!r} not in registry")
        self.apps = dict(apps)
        self.default_run = default_run

    @property
    def worker_id(self) -> int:
        """The default run's worker id (the shell stamps it on responses)."""
        return self.apps[self.default_run].worker_id

    def handle(self, target: str) -> tuple[int, bytes]:
        """Serve one GET request path, routing by run prefix."""
        parts = urlsplit(target)
        segments = [s for s in parts.path.split("/") if s]
        if segments == ["v1", "runs"]:
            return 200, _render(self._runs_payload())
        if len(segments) >= 3 and segments[0] == "v1" and segments[1] == "run":
            run_id = segments[2]
            app = self.apps.get(run_id)
            if app is None:
                return 404, _render(
                    {
                        "error": f"unknown run {run_id!r}; "
                        f"have {sorted(self.apps)}",
                        "status": 404,
                    }
                )
            rest = segments[3:]
            # /v1/run/{id}/healthz and /metrics unwrap to the run's own
            # service endpoints; everything else re-roots under /v1/.
            if rest in (["healthz"], ["metrics"]):
                path = f"/{rest[0]}"
            else:
                path = "/v1/" + "/".join(rest)
            query = f"?{parts.query}" if parts.query else ""
            return app.handle(path + query)
        return self.apps[self.default_run].handle(target)

    def _runs_payload(self) -> dict[str, object]:
        """The ``/v1/runs`` registry listing."""
        return {
            "default_run": self.default_run,
            "runs": [
                {
                    "run_id": run_id,
                    "backend": app.index.backend,
                    "index_fingerprint": app.index.identity,
                    "scale": app.index.config.scale,
                    "seed": app.index.config.seed,
                    "pairs": len(app.index.pairs),
                }
                for run_id, app in sorted(self.apps.items())
            ],
        }

    def close(self) -> None:
        """Close every run's app (idempotent)."""
        for app in self.apps.values():
            app.close()
