"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

They pin what the numbers rest on: seeded load plans, the generator's
thread and connection budget, the response-cache hit-share derivation,
the oracle sample, and the metric names against ``BENCHMARK.json``.
None of them needs a `repro all` run; the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402

SUMMARY = {
    "pairs": [
        {
            "domain": domain,
            "attribute": "phone",
            "n_entities": 5000,
            "n_sites": 400,
            "ks": [1, 2, 3],
            "top_hosts": [f"{domain}-{i}.example" for i in range(50)],
        }
        for domain in ("banks", "restaurants")
    ],
    "traffic_sites": ["siteA", "siteB"],
}

#: A GET-only keep-alive server answering 200 to everything, run as a
#: child so that it adds no thread to the process under test.
STUB_SERVER = """
import http.server
class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", "3")
        self.end_headers()
        self.wfile.write(b"ok\\n")
    def log_message(self, *args):
        pass
server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
print(server.server_address[1], flush=True)
server.serve_forever()
"""


class LoadPlanTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in common.WORKLOADS.values():
            first = common.plan_load(SUMMARY, workload, seed=7, seconds=5)
            second = common.plan_load(SUMMARY, workload, seed=7, seconds=5)
            self.assertEqual(first["sha256"], second["sha256"])

    def test_different_seed_different_digest(self):
        for workload in common.WORKLOADS.values():
            first = common.plan_load(SUMMARY, workload, seed=7, seconds=5)
            second = common.plan_load(SUMMARY, workload, seed=8, seconds=5)
            self.assertNotEqual(first["sha256"], second["sha256"])

    def test_digest_covers_the_schedule(self):
        paths = ["/healthz"] * 10
        early = loadgen.build_schedule(1, 100.0, 10, "x")
        late = [times + 0.5 for times in early]
        self.assertNotEqual(
            loadgen.plan_digest([("x", paths, early)]), loadgen.plan_digest([("x", paths, late)])
        )

    def test_cold_mix_has_no_set_cover_and_a_long_tail(self):
        paths = loadgen.build_stream(SUMMARY, loadgen.COLD, 3, 20_000, "main")
        self.assertFalse(any("/setcover/" in p for p in paths))
        hot = loadgen.build_stream(SUMMARY, loadgen.HOT, 3, 20_000, "main")
        self.assertGreater(len(set(paths)), 2 * len(set(hot)))


class GeneratorBudgetTest(unittest.TestCase):
    def setUp(self):
        self.server = subprocess.Popen(
            [sys.executable, "-c", STUB_SERVER], stdout=subprocess.PIPE, text=True
        )
        self.port = int(self.server.stdout.readline())

    def tearDown(self):
        self.server.terminate()
        self.server.wait(timeout=10)
        self.server.stdout.close()

    def test_one_thread_and_at_most_nproc_connections(self):
        budget = loadgen.thread_budget()
        self.assertLessEqual(loadgen.CONNECTIONS, budget)
        tasks_before = len(os.listdir("/proc/self/task"))
        seen = {"open": 0, "max_open": 0, "threads": set(), "tasks": set()}
        original_connect = loadgen._connect
        original_close = loadgen._Conn.close

        def counting_connect(port):
            seen["open"] += 1
            seen["max_open"] = max(seen["max_open"], seen["open"])
            seen["threads"].add(threading.active_count())
            seen["tasks"].add(len(os.listdir("/proc/self/task")))
            return original_connect(port)

        def counting_close(conn):
            seen["open"] -= 1
            original_close(conn)

        original_start = threading.Thread.start

        def counting_start(thread):
            seen["thread_starts"] = seen.get("thread_starts", 0) + 1
            original_start(thread)

        loadgen._connect = counting_connect
        loadgen._Conn.close = counting_close
        threading.Thread.start = counting_start
        try:
            paths = [f"/v1/x/{i}" for i in range(400)]
            closed = loadgen.closed_loop(self.port, paths, None)
            opened = loadgen.open_loop(self.port, paths, loadgen.build_schedule(1, 2000.0, 400, "t"))
        finally:
            loadgen._connect = original_connect
            loadgen._Conn.close = original_close
            threading.Thread.start = original_start
        self.assertNotIn("thread_starts", seen)
        self.assertEqual((closed.completed, closed.failed), (400, 0))
        self.assertEqual((opened.completed, opened.failed), (400, 0))
        self.assertLessEqual(seen["max_open"], budget)
        self.assertEqual(seen["threads"], {1})
        self.assertEqual(seen["tasks"], {tasks_before})
        self.assertEqual(seen["open"], 0)


class _StubPair:
    domain, attribute, n_sites = "d", "a", 10

    def coverage_at(self, k, top_t):
        return top_t / 10.0


class HitShareTest(unittest.TestCase):
    def test_derivation_counts_each_request_once(self):
        """With one cache slot, A A B A answers one of four requests from
        the cache.  ``hit_rate`` says 1/5: the memoised A whose entry B
        evicted misses twice, in the fast path and again in ``_query``."""
        common.use_checkout_source()
        from repro.pipeline.config import ExperimentConfig
        from repro.serve import ServeApp, ServeSettings
        from repro.serve.batcher import MicroBatcher
        from repro.store.backend import QueryIndex

        index = QueryIndex(
            config=ExperimentConfig(scale="tiny"),
            pairs={("d", "a"): _StubPair()},
            default_attribute={"d": "a"},
            demand={},
            identity="selftest",
            build_seconds=0.0,
        )
        app = ServeApp(index, ServeSettings(port=0, response_cache_entries=1))
        tracer = layers.Tracer()
        tracer.patch_method(MicroBatcher, "submit", "serve.submit")
        try:
            first, second = "/v1/coverage/d?k=1&t=1", "/v1/coverage/d?k=1&t=2"
            __, failed = layers.replay(app, [first, first, second, first])
            stats = app.rcache.stats()
        finally:
            tracer.restore()
            app.close()
        self.assertEqual(failed, 0)
        submits = len(tracer.select("serve.submit"))
        self.assertEqual(submits, 3)
        self.assertEqual(layers.rcache_hit_share(4, submits), 0.25)
        self.assertEqual(stats["hit_rate"], 0.2)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((common.HERE.parent / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        self.assertEqual(per_layer, layers.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(common.WORKLOADS))

    def test_oracle_sample_covers_every_endpoint_and_error_cases(self):
        paths = loadgen.build_stream(SUMMARY, loadgen.COLD, 5, 3000, "main")
        sample = run.oracle_sample(SUMMARY, paths, 5)
        self.assertEqual(len(sample), len(set(sample)))
        endpoints = {p.split("/")[2].split("?")[0] for p in sample[:-2]}
        self.assertEqual(endpoints, set(layers.ENDPOINTS))
        self.assertIn("k=not-a-number", sample[-2])


if __name__ == "__main__":
    unittest.main()
