"""repro.serve.loadgen: stream determinism, percentiles, results, reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.loadgen import (
    CLIENT_ERROR_STATUS,
    LoadPlan,
    LoadResult,
    OpenLoadPlan,
    _endpoint_of,
    _percentile,
    build_open_schedule,
    build_streams,
    find_knee,
    open_rate_summary,
    run_open_load,
    stream_digest,
    write_bench_report,
)

SUMMARY = {
    "status": "ok",
    "pairs": [
        {
            "domain": "restaurants",
            "attribute": "phone",
            "n_entities": 120,
            "n_sites": 60,
            "ks": [1, 2, 3],
            "top_hosts": ["a.example", "b.example", "c.example"],
        },
        {
            "domain": "books",
            "attribute": "isbn",
            "n_entities": 80,
            "n_sites": 40,
            "ks": [1, 2],
            "top_hosts": ["d.example", "e.example"],
        },
    ],
    "traffic_sites": ["imdb", "yelp"],
}


def test_plan_validation():
    with pytest.raises(ValueError):
        LoadPlan(clients=0)
    with pytest.raises(ValueError):
        LoadPlan(requests=0)
    with pytest.raises(ValueError):
        LoadPlan(zipf_exponent=0.0)


def test_same_seed_same_stream():
    plan = LoadPlan(seed=7, clients=3, requests=50)
    first = build_streams(SUMMARY, plan)
    second = build_streams(SUMMARY, plan)
    assert first == second
    assert stream_digest(first) == stream_digest(second)


def test_different_seed_different_stream():
    base = build_streams(SUMMARY, LoadPlan(seed=7, clients=2, requests=40))
    other = build_streams(SUMMARY, LoadPlan(seed=8, clients=2, requests=40))
    assert stream_digest(base) != stream_digest(other)


def test_stream_sizes_sum_to_requests():
    plan = LoadPlan(seed=1, clients=4, requests=23)
    streams = build_streams(SUMMARY, plan)
    assert len(streams) == 4
    assert sum(len(s) for s in streams) == 23
    # Earlier clients absorb the remainder.
    assert [len(s) for s in streams] == [6, 6, 6, 5]


def test_client_streams_independent_of_client_count():
    """Client 0's stream depends only on its own seed, not on siblings."""
    solo = build_streams(SUMMARY, LoadPlan(seed=7, clients=1, requests=10))
    many = build_streams(SUMMARY, LoadPlan(seed=7, clients=5, requests=50))
    assert many[0][: len(solo[0])] == solo[0]


def test_streams_hit_every_endpoint():
    streams = build_streams(SUMMARY, LoadPlan(seed=7, clients=2, requests=300))
    seen = {_endpoint_of(path) for stream in streams for path in stream}
    assert seen == {"entity", "site", "coverage", "demand", "setcover"}


def test_stream_paths_stay_in_summary_vocabulary():
    streams = build_streams(SUMMARY, LoadPlan(seed=3, clients=2, requests=200))
    hosts = {h for pair in SUMMARY["pairs"] for h in pair["top_hosts"]}
    for path in (p for stream in streams for p in stream):
        if path.startswith("/v1/site/"):
            assert path.split("/")[3] in hosts
        elif path.startswith("/v1/demand/"):
            assert path.split("/")[3].split("?")[0] in SUMMARY["traffic_sites"]


def test_zipf_skews_toward_head_entities():
    streams = build_streams(
        SUMMARY, LoadPlan(seed=7, clients=1, requests=2000, zipf_exponent=1.3)
    )
    entity_ranks = [
        int(path.split("/")[4])
        for path in streams[0]
        if path.startswith("/v1/entity/")
    ]
    head = sum(1 for rank in entity_ranks if rank < 10)
    assert head > len(entity_ranks) * 0.4  # top ~8% of ranks dominate


def test_percentile_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert _percentile(samples, 0.50) == 50.0
    assert _percentile(samples, 0.95) == 95.0
    assert _percentile(samples, 0.99) == 99.0
    assert _percentile([], 0.5) == 0.0


def test_write_bench_report_shape(tmp_path):
    plan = LoadPlan(seed=7, clients=2, requests=4)
    result = LoadResult(
        wall_seconds=2.0,
        stream_sha256="abc123",
        latencies={"entity": [0.001, 0.002], "setcover": [0.1, 0.2]},
        statuses={"200": 3, str(CLIENT_ERROR_STATUS): 1},
        transport_errors=1,
    )
    path = tmp_path / "BENCH_PR4.json"
    payload = write_bench_report(path, plan, result, target="unit-test")
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert payload["request_stream_sha256"] == "abc123"
    assert payload["throughput_rps"] == 2.0
    assert set(payload["latency_ms"]) == {
        "p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"
    }
    assert payload["per_endpoint"]["setcover"]["count"] == 2
    assert payload["statuses"]["200"] == 3
    assert payload["transport_errors"] == 1
    assert payload["per_worker"] == {}
    assert "mode" not in payload and "offered_rate_rps" not in payload
    assert "server_metrics" not in payload
    with_metrics = write_bench_report(
        path, plan, result, server_metrics={"requests_total": 4}
    )
    assert with_metrics["server_metrics"] == {"requests_total": 4}


#: One closed and one open run's fixed inputs, and the reports they
#: must produce key for key and value for value: the committed closed-
#: and open-loop report shapes, with ``per_worker`` in both.
CLOSED_RESULT = dict(
    wall_seconds=2.0,
    stream_sha256="abc123",
    latencies={"entity": [0.001, 0.002], "setcover": [0.1, 0.2]},
    statuses={"200": 3, "599": 1},
    worker_requests={"0": 3},
    transport_errors=1,
)
CLOSED_REPORT = {
    "benchmark": "repro serve closed-loop load generator",
    "latency_ms": {
        "max_ms": 200.0, "mean_ms": 75.75, "p50_ms": 2.0, "p95_ms": 200.0,
        "p99_ms": 200.0,
    },
    "per_endpoint": {
        "entity": {
            "count": 2, "max_ms": 2.0, "mean_ms": 1.5, "p50_ms": 1.0,
            "p95_ms": 2.0, "p99_ms": 2.0,
        },
        "setcover": {
            "count": 2, "max_ms": 200.0, "mean_ms": 150.0, "p50_ms": 100.0,
            "p95_ms": 200.0, "p99_ms": 200.0,
        },
    },
    "per_worker": {"0": 3},
    "plan": {"clients": 2, "requests": 4, "seed": 7, "zipf_exponent": 1.1},
    "request_stream_sha256": "abc123",
    "rss_mb": 41.5,
    "server_metrics": {"requests_total": 4},
    "statuses": {"200": 3, "599": 1},
    "target": "unit-test",
    "throughput_rps": 2.0,
    "transport_errors": 1,
    "wall_seconds": 2.0,
}
SWEEP = {
    "knee": {"offered_rate_rps": 100.0, "ok": True, "p99_ms": 4.0},
    "knee_rate_rps": 100.0,
    "p99_budget_ms": 50.0,
    "rates": [{"offered_rate_rps": 100.0, "ok": True, "p99_ms": 4.0}],
}
WARMUP = {"rate_rps": 100.0, "requests": 100, "transport_errors": 0}
OPEN_RESULT = dict(
    wall_seconds=1.5,
    stream_sha256="deadbeef",
    latencies={"entity": [0.001, 0.002], "site": [0.004]},
    statuses={"200": 3},
    worker_requests={"0": 2, "1": 1},
    offered_rate=100.0,
)
OPEN_REPORT = {
    "benchmark": "repro serve open-loop load generator",
    "latency_ms": {
        "max_ms": 4.0, "mean_ms": 2.333, "p50_ms": 2.0, "p95_ms": 4.0,
        "p99_ms": 4.0,
    },
    "mode": "open",
    "offered_rate_rps": 100.0,
    "per_endpoint": {
        "entity": {
            "count": 2, "max_ms": 2.0, "mean_ms": 1.5, "p50_ms": 1.0,
            "p95_ms": 2.0, "p99_ms": 2.0,
        },
        "site": {
            "count": 1, "max_ms": 4.0, "mean_ms": 4.0, "p50_ms": 4.0,
            "p95_ms": 4.0, "p99_ms": 4.0,
        },
    },
    "per_worker": {"0": 2, "1": 1},
    "plan": {
        "connections": 2, "duration_seconds": 1.0, "rate": 100.0, "seed": 7,
        "zipf_exponent": 1.1,
    },
    "request_stream_sha256": "deadbeef",
    "rss_mb": 40.0,
    "server_metrics": {"requests_total": 3},
    "statuses": {"200": 3},
    "sweep": SWEEP,
    "target": "unit-test",
    "throughput_rps": 2.0,
    "transport_errors": 0,
    "wall_seconds": 1.5,
    "warmup": WARMUP,
}


def test_write_bench_report_pins_both_modes(tmp_path):
    closed = write_bench_report(
        tmp_path / "closed.json",
        LoadPlan(seed=7, clients=2, requests=4),
        LoadResult(**CLOSED_RESULT),
        server_metrics={"requests_total": 4},
        target="unit-test",
        rss_mb=41.5,
    )
    assert closed == CLOSED_REPORT
    assert json.loads((tmp_path / "closed.json").read_text()) == CLOSED_REPORT
    opened = write_bench_report(
        tmp_path / "open.json",
        OpenLoadPlan(seed=7, rate=100.0, duration_seconds=1.0, connections=2),
        LoadResult(**OPEN_RESULT),
        server_metrics={"requests_total": 3},
        target="unit-test",
        rss_mb=40.0,
        sweep=SWEEP,
        warmup=WARMUP,
    )
    assert opened == OPEN_REPORT
    assert json.loads((tmp_path / "open.json").read_text()) == OPEN_REPORT


def test_record_counts_statuses_workers_and_transport_errors():
    result = LoadResult(wall_seconds=1.0, stream_sha256="x")
    result.record(200, "entity", 0.002, "1")
    result.record(CLIENT_ERROR_STATUS, "site", 0.5)
    result.record(CLIENT_ERROR_STATUS, count=3)
    assert result.statuses == {"200": 1, "599": 4}
    assert result.transport_errors == 4
    assert result.worker_requests == {"1": 1}
    # Unanswered requests carry no latency sample.
    assert result.latencies == {"entity": [0.002], "site": [0.5]}
    assert result.total_requests == 2


def test_empty_pairs_rejected():
    with pytest.raises(ValueError, match="no .domain, attribute. pairs"):
        build_streams({"pairs": [], "traffic_sites": []}, LoadPlan())


# -- open-loop generation -----------------------------------------------------


def test_open_plan_validation():
    with pytest.raises(ValueError):
        OpenLoadPlan(rate=0.0)
    with pytest.raises(ValueError):
        OpenLoadPlan(duration_seconds=0.0)
    with pytest.raises(ValueError):
        OpenLoadPlan(connections=0)
    with pytest.raises(ValueError):
        OpenLoadPlan(zipf_exponent=0.0)


def test_open_plan_derives_requests_and_closed_twin():
    plan = OpenLoadPlan(seed=3, rate=500.0, duration_seconds=2.0, connections=3)
    assert plan.requests == 1000
    closed = plan.closed_plan()
    assert closed == LoadPlan(seed=3, clients=3, requests=1000)
    faster = plan.at_rate(1000.0)
    assert faster.requests == 2000
    assert faster.seed == plan.seed


def test_open_schedule_is_deterministic_and_aligned():
    plan = OpenLoadPlan(seed=7, rate=300.0, duration_seconds=1.0, connections=3)
    first = build_open_schedule(plan)
    second = build_open_schedule(plan)
    assert len(first) == 3
    streams = build_streams(SUMMARY, plan.closed_plan())
    for times, again, paths in zip(first, second, streams):
        assert list(times) == list(again)
        assert len(times) == len(paths)
        # Arrival times are strictly increasing from a Poisson process.
        assert all(b > a for a, b in zip(times, times[1:]))
    # A different seed moves every arrival.
    other = build_open_schedule(
        OpenLoadPlan(seed=8, rate=300.0, duration_seconds=1.0, connections=3)
    )
    assert list(other[0]) != list(first[0])


def test_open_schedule_mean_rate_matches_offer():
    plan = OpenLoadPlan(seed=7, rate=2000.0, duration_seconds=4.0, connections=2)
    schedules = build_open_schedule(plan)
    total = sum(len(times) for times in schedules)
    horizon = max(times[-1] for times in schedules)
    assert total == plan.requests
    # Poisson superposition: the realized span is close to the plan.
    assert horizon == pytest.approx(plan.duration_seconds, rel=0.2)


def test_write_open_bench_report_shape(tmp_path):
    plan = OpenLoadPlan(seed=7, rate=100.0, duration_seconds=1.0, connections=2)
    result = LoadResult(
        wall_seconds=1.0,
        stream_sha256="deadbeef",
        latencies={"entity": [0.001, 0.002]},
        statuses={"200": 2},
        worker_requests={"0": 1, "1": 1},
        transport_errors=0,
        offered_rate=100.0,
    )
    sweep = {
        "p99_budget_ms": 50.0,
        "rates": [{"offered_rate_rps": 100.0, "p99_ms": 2.0, "ok": True}],
        "knee_rate_rps": 100.0,
        "knee": {"offered_rate_rps": 100.0, "p99_ms": 2.0, "ok": True},
    }
    path = tmp_path / "BENCH_PR7.json"
    payload = write_bench_report(path, plan, result, sweep=sweep)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert payload["mode"] == "open"
    assert payload["offered_rate_rps"] == 100.0
    assert payload["throughput_rps"] == 2.0
    assert payload["per_worker"] == {"0": 1, "1": 1}
    assert payload["sweep"]["knee_rate_rps"] == 100.0
    assert payload["request_stream_sha256"] == "deadbeef"


def test_open_rate_summary_counts_errors():
    result = LoadResult(
        wall_seconds=2.0,
        stream_sha256="x",
        latencies={"entity": [0.004, 0.002]},
        statuses={"200": 2, str(CLIENT_ERROR_STATUS): 3},
        transport_errors=3,
        offered_rate=10.0,
    )
    row = open_rate_summary(result)
    assert row["offered_rate_rps"] == 10.0
    assert row["completed"] == 2
    assert row["transport_errors"] == 3
    assert row["p99_ms"] == 4.0


def test_run_open_load_rejects_misaligned_schedules():
    with pytest.raises(ValueError, match="align"):
        run_open_load("127.0.0.1", 1, [["/healthz"]], [], offered_rate=1.0)
    with pytest.raises(ValueError, match="length mismatch"):
        run_open_load(
            "127.0.0.1",
            1,
            [["/healthz"]],
            [np.asarray([0.1, 0.2])],
            offered_rate=1.0,
        )


def test_find_knee_requires_rates():
    plan = OpenLoadPlan()
    with pytest.raises(ValueError, match="at least one rate"):
        find_knee("127.0.0.1", 1, SUMMARY, plan, [], p99_budget_ms=1.0)
