"""The serve path must not pay for the batch-pipeline stack at import.

IMP001 enforces this statically from the committed import-cost tables;
these tests enforce it dynamically: a fresh interpreter importing the
serve tier must not load ``repro.pipeline.experiments`` (or the other
heavy batch modules), the stdlib ``http.server`` (its one HTTP shell is
``repro.serve.fasthttp``), nor ``http.client`` and the load generator
(``repro.serve.loadgen`` is a client), the PEP 562 lazy exports of
``repro.pipeline`` must still behave like the old eager ones, and the
Section 5 experiments (Table 2, Figure 9) must not load scipy.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HEAVY_BATCH_MODULES = (
    "repro.pipeline.experiments",
    "repro.pipeline.extensions",
    "repro.pipeline.runall",
)


def _loaded_after(statement):
    """Module names present in sys.modules after ``statement`` (fresh proc)."""
    code = f"{statement}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": "src",
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    return set(proc.stdout.split())


def test_importing_serve_skips_the_batch_stack():
    loaded = _loaded_after("import repro.serve")
    assert "repro.serve" in loaded
    # The manifest contract comes from the light config module...
    assert "repro.pipeline.config" in loaded
    # ...and none of the heavy batch stack rides along.
    for heavy in HEAVY_BATCH_MODULES:
        assert heavy not in loaded, heavy


def test_importing_serve_skips_the_stdlib_http_server():
    """No stdlib HTTP server or client, and not the load generator."""
    loaded = _loaded_after("import repro.serve")
    for module in ("http.server", "http.client", "repro.serve.loadgen"):
        assert module not in loaded, module


def test_importing_pipeline_package_is_lazy():
    loaded = _loaded_after("import repro.pipeline")
    for heavy in HEAVY_BATCH_MODULES:
        assert heavy not in loaded, heavy


def test_table2_and_figure9_run_without_scipy():
    """The connectivity kernels are numpy; scipy stays off the batch path."""
    loaded = _loaded_after(
        "from repro.pipeline.config import ExperimentConfig\n"
        "from repro.pipeline.experiments import run_figure9, run_table2\n"
        "config = ExperimentConfig(scale='tiny')\n"
        "run_table2(config)\n"
        "run_figure9(config)"
    )
    assert "repro.core.graph" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


def test_lazy_exports_resolve_and_cache():
    import repro.pipeline as pipeline

    # Attribute access triggers the PEP 562 import and returns the real
    # object (identical to importing the submodule directly).
    from repro.pipeline.experiments import run_spread

    assert pipeline.run_spread is run_spread
    assert "run_spread" in vars(pipeline)  # cached: next access is direct
    assert "run_spread" in dir(pipeline)
    assert pipeline.MANIFEST_NAME == "manifest.json"  # eager re-export


def test_unknown_attribute_still_raises():
    import repro.pipeline as pipeline

    try:
        pipeline.no_such_export
    except AttributeError as exc:
        assert "no_such_export" in str(exc)
    else:  # pragma: no cover - the assert documents intent
        raise AssertionError("expected AttributeError")
