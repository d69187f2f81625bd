"""Tests for reprolint (repro.devtools): rules, config, CLI, and the
guarantee that the shipped tree itself is violation-free."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.config import LintConfig, PathPolicy, load_config
from repro.devtools.lint import (
    PARSE_ERROR_RULE,
    check_project,
    check_source,
    lint_paths,
    main,
)
from repro.devtools.registry import all_rules, resolve_selectors
from repro.devtools.rules.layering import LAYERS

REPO_ROOT = Path(__file__).resolve().parent.parent

SRC_PATH = "src/repro/core/_fixture.py"


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------- RNG001


def test_rng001_flags_legacy_global_calls():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\n__all__ = []\n\n'
        "np.random.seed(7)\n",
        select=["RNG001"],
    )
    assert rules_of(findings) == ["RNG001"]
    assert findings[0].line == 6


def test_rng001_flags_legacy_import_and_aliases():
    findings = check_source(
        '"""M."""\nfrom numpy.random import rand\n', select=["RNG001"]
    )
    assert rules_of(findings) == ["RNG001"]
    findings = check_source(
        '"""M."""\nimport numpy\n\nnumpy.random.shuffle([1, 2])\n',
        select=["RNG001"],
    )
    assert rules_of(findings) == ["RNG001"]


def test_rng001_clean_on_generator_usage():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\n'
        "def draw(rng):\n"
        '    """Draw."""\n'
        "    return rng.integers(10)\n",
        select=["RNG001"],
    )
    assert findings == []


def test_rng001_inline_suppression():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\n'
        "np.random.seed(7)  # reprolint: disable=RNG001\n",
        select=["RNG001"],
    )
    assert findings == []


# ---------------------------------------------------------------- RNG002


def test_rng002_flags_stdlib_random():
    assert rules_of(
        check_source('"""M."""\nimport random\n', select=["RNG002"])
    ) == ["RNG002"]
    assert rules_of(
        check_source('"""M."""\nfrom random import choice\n', select=["RNG002"])
    ) == ["RNG002"]


def test_rng002_does_not_flag_other_modules():
    findings = check_source(
        '"""M."""\nimport secrets\nfrom os import urandom\n', select=["RNG002"]
    )
    assert findings == []


# ---------------------------------------------------------------- RNG003


def test_rng003_flags_unseeded_default_rng():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\nrng = np.random.default_rng()\n',
        select=["RNG003"],
    )
    assert rules_of(findings) == ["RNG003"]


def test_rng003_clean_when_seeded():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\nrng = np.random.default_rng(0)\n',
        select=["RNG003"],
    )
    assert findings == []


# ---------------------------------------------------------------- RNG004


def test_rng004_flags_wall_clock_reads():
    findings = check_source(
        '"""M."""\nimport time\nfrom datetime import datetime\n\n'
        "t = time.time()\nnow = datetime.now()\n",
        select=["RNG004"],
    )
    assert rules_of(findings) == ["RNG004", "RNG004"]


def test_rng004_suppression_and_clean():
    findings = check_source(
        '"""M."""\nimport time\n\n'
        "t = time.time()  # reprolint: disable=RNG004\n",
        select=["RNG004"],
    )
    assert findings == []


# ---------------------------------------------------------------- SEED001


def test_seed001_flags_missing_seed_parameter():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\n'
        "def noisy(n):\n"
        '    """Noise."""\n'
        "    rng = np.random.default_rng(1234)\n"
        "    return rng.normal(size=n)\n",
        select=["SEED001"],
    )
    assert rules_of(findings) == ["SEED001"]


def test_seed001_clean_with_rng_or_seed_parameter():
    source = (
        '"""M."""\nimport numpy as np\n\n'
        "def noisy(n, seed):\n"
        '    """Noise."""\n'
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.normal(size=n)\n\n"
        "def draw(rng, n):\n"
        '    """Draw."""\n'
        "    return rng.integers(n)\n"
    )
    assert check_source(source, select=["SEED001"]) == []


def test_seed001_clean_for_seed_bearing_class_methods():
    source = (
        '"""M."""\nimport numpy as np\n\n'
        "class Sampler:\n"
        '    """Sampler."""\n\n'
        "    def __init__(self, seed=0):\n"
        "        self._rng = np.random.default_rng(seed)\n\n"
        "    def draw(self, n):\n"
        '        """Draw."""\n'
        "        rng = self._rng\n"
        "        return rng.integers(n)\n"
    )
    assert check_source(source, select=["SEED001"]) == []


def test_seed001_flags_instance_rng_without_seedable_init():
    source = (
        '"""M."""\nimport numpy as np\n\n'
        "class Sampler:\n"
        '    """Sampler."""\n\n'
        "    def __init__(self):\n"
        "        self._rng = np.random.default_rng()\n\n"
        "    def draw(self, n):\n"
        '        """Draw."""\n'
        "        return self._rng.integers(n)\n"
    )
    assert "SEED001" in rules_of(check_source(source, select=["SEED001"]))


def test_seed001_ignores_non_generator_receivers():
    source = (
        '"""M."""\n\n'
        "def pick(router, options):\n"
        '    """Pick."""\n'
        "    return router.choice(options)\n"
    )
    assert check_source(source, select=["SEED001"]) == []


def test_seed001_inline_suppression():
    source = (
        '"""M."""\nimport numpy as np\n\n'
        "def noisy(n):\n"
        '    """Noise."""\n'
        "    rng = np.random.default_rng(1)  # reprolint: disable=SEED001\n"
        "    return rng.normal(size=n)\n"
    )
    assert check_source(source, select=["SEED001"]) == []


# ---------------------------------------------------------------- LAY001/2


def test_lay001_flags_forbidden_edge():
    findings = check_project(
        {
            "src/repro/core/thing.py": (
                '"""M."""\nfrom repro.pipeline.config import ExperimentConfig\n'
            )
        },
        select=["LAY001"],
    )
    assert rules_of(findings) == ["LAY001"]
    assert "core" in findings[0].message and "pipeline" in findings[0].message


def test_lay001_allows_dag_edges_and_relative_imports():
    findings = check_project(
        {
            "src/repro/webgen/render.py": (
                '"""M."""\nfrom ..entities.catalog import Entity\n'
                "from repro.crawl.store import Page\n"
            )
        },
        select=["LAY001"],
    )
    assert findings == []


def test_lay001_root_modules_sit_above_the_dag():
    findings = check_project(
        {"src/repro/cli.py": '"""M."""\nfrom repro.pipeline import runall\n'},
        select=["LAY001"],
    )
    assert findings == []


def test_lay002_flags_cycles():
    findings = check_project(
        {
            "src/repro/crawl/a.py": '"""M."""\nimport repro.extract.runner\n',
            "src/repro/extract/b.py": '"""M."""\nimport repro.crawl.store\n',
        },
        select=["LAY002"],
    )
    assert rules_of(findings) == ["LAY002"]
    assert "crawl" in findings[0].message and "extract" in findings[0].message


def test_lay002_clean_on_acyclic_imports():
    findings = check_project(
        {
            "src/repro/extract/b.py": '"""M."""\nimport repro.crawl.store\n',
            "src/repro/crawl/a.py": '"""M."""\nimport repro.core.incidence\n',
        },
        select=["LAY002"],
    )
    assert findings == []


# ---------------------------------------------------------------- API001/2/3


def test_api001_flags_missing_docstrings():
    findings = check_source(
        "def f():\n    pass\n\n"
        "class C:\n"
        '    """C."""\n\n'
        "    def m(self):\n"
        "        pass\n",
        select=["API001"],
    )
    # module + function f + method C.m
    assert rules_of(findings) == ["API001", "API001", "API001"]


def test_api001_ignores_private_and_dunder():
    findings = check_source(
        '"""M."""\n\n'
        "def _helper():\n    pass\n\n"
        "class C:\n"
        '    """C."""\n\n'
        "    def __repr__(self):\n"
        "        return 'C'\n",
        select=["API001"],
    )
    assert findings == []


def test_api002_missing_all_and_mismatches():
    assert rules_of(check_source('"""M."""\n', select=["API002"])) == ["API002"]
    findings = check_source(
        '"""M."""\n\n__all__ = ["ghost"]\n\n'
        "def visible():\n"
        '    """V."""\n',
        select=["API002"],
    )
    assert rules_of(findings) == ["API002", "API002"]  # ghost + visible


def test_api002_clean_when_consistent():
    findings = check_source(
        '"""M."""\n\n__all__ = ["visible"]\n\n'
        "def visible():\n"
        '    """V."""\n\n'
        "def _hidden():\n"
        '    """H."""\n',
        select=["API002"],
    )
    assert findings == []


def test_api003_flags_mutable_defaults():
    findings = check_source(
        '"""M."""\n\n'
        "def f(a, b=[], c={}, d=set(), *, e=list()):\n"
        '    """F."""\n',
        select=["API003"],
    )
    assert rules_of(findings) == ["API003"] * 4


def test_api003_clean_on_immutable_defaults():
    findings = check_source(
        '"""M."""\n\n'
        "def f(a, b=(), c=None, d=0, e=\"x\"):\n"
        '    """F."""\n',
        select=["API003"],
    )
    assert findings == []


# ------------------------------------------------------- suppression forms


def test_file_level_suppression():
    findings = check_source(
        '"""M."""\n# reprolint: disable-file=RNG002\nimport random\n',
        select=["RNG002"],
    )
    assert findings == []


def test_suppression_is_rule_specific():
    findings = check_source(
        '"""M."""\nimport numpy as np\n\n'
        "np.random.seed(7)  # reprolint: disable=RNG003\n",
        select=["RNG001"],
    )
    assert rules_of(findings) == ["RNG001"]


def test_directive_inside_string_is_ignored():
    findings = check_source(
        '"""M."""\nimport random\n\n'
        'NOTE = "# reprolint: disable-file=RNG002"\n',
        select=["RNG002"],
    )
    assert rules_of(findings) == ["RNG002"]


# --------------------------------------------------------- registry/config


def test_selectors_expand_families_and_reject_unknown():
    ids = resolve_selectors(["RNG"])
    assert {"RNG001", "RNG002", "RNG003", "RNG004"} <= ids
    assert resolve_selectors(["all"]) == frozenset(all_rules())
    with pytest.raises(ValueError):
        resolve_selectors(["NOPE123"])


def test_config_longest_prefix_wins_and_excludes(tmp_path):
    config = LintConfig(
        exclude=("examples",),
        paths=(
            PathPolicy("src", ("RNG",)),
            PathPolicy("src/repro/core", ("API003",)),
        ),
    )
    assert config.selectors_for("src/repro/core/graph.py") == ("API003",)
    assert config.selectors_for("src/repro/cli.py") == ("RNG",)
    assert config.selectors_for("tests/test_x.py") == ("all",)
    assert config.is_excluded("examples/quickstart.py")
    assert not config.is_excluded("examples_extra/other.py")


def test_load_config_reads_real_pyproject():
    config = load_config(REPO_ROOT / "pyproject.toml")
    assert config.is_excluded("examples/quickstart.py")
    # Longest-prefix match: the core kernels add the PERF hot-path rules.
    assert config.selectors_for("src/repro/core/graph.py") == (
        "RNG",
        "SEED",
        "LAY",
        "API",
        "PERF",
    )
    # The perf layer may read clocks (that is its job) but keeps the
    # rest of the determinism contract, plus the ROB error discipline.
    perf_selectors = config.selectors_for("src/repro/perf/executor.py")
    assert "RNG004" not in perf_selectors
    assert "RNG001" in perf_selectors
    assert "ROB" in perf_selectors
    assert config.selectors_for("src/repro/pipeline/runall.py") == (
        "RNG",
        "SEED",
        "LAY",
        "API",
        "ROB",
    )
    # repro.resilience hosts the sanctioned sleep; no ROB select there.
    assert "ROB" not in config.selectors_for("src/repro/resilience/policy.py")
    assert "API001" not in config.selectors_for("benchmarks/bench_fig1.py")


def test_parse_error_reported_not_raised(tmp_path):
    bad = tmp_path / "src" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    findings, checked = lint_paths([Path("src")], tmp_path, LintConfig())
    assert checked == 1
    assert rules_of(findings) == [PARSE_ERROR_RULE]


# ------------------------------------------------------------ CLI surface


def test_cli_json_schema(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text('"""M."""\nimport random\n')
    code = main(
        ["src", "--root", str(tmp_path), "--format", "json", "--select", "RNG002"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["summary"] == {"total": 1, "by_rule": {"RNG002": 1}}
    finding = payload["findings"][0]
    assert finding["rule"] == "RNG002"
    assert finding["path"].endswith("bad.py")
    assert set(finding) == {"path", "line", "col", "rule", "message"}


def test_cli_missing_path_is_an_error_not_clean(tmp_path, capsys):
    # A typo'd path must not report "clean" and gate CI green.
    assert main(["no_such_dir", "--root", str(tmp_path)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_exit_zero_and_clean_message(tmp_path, capsys):
    target = tmp_path / "src" / "ok.py"
    target.parent.mkdir(parents=True)
    target.write_text('"""M."""\n\n__all__ = []\n')
    assert main(["src", "--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0
    assert "RNG001" in proc.stdout and "LAY001" in proc.stdout


# --------------------------------------------- the shipped tree is clean


def test_shipped_tree_is_violation_free(capsys):
    code = main(
        ["src", "tests", "benchmarks", "--root", str(REPO_ROOT), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == [], payload["findings"]
    assert code == 0
    # All three roots were actually walked, not silently skipped.
    assert payload["files_checked"] > 100


def test_layering_dag_matches_design_section3():
    # DESIGN §3: core is pure analysis — imports nothing from anywhere.
    assert LAYERS["core"] == frozenset()
    # entities never depends on webgen (it is webgen's *input*).
    assert "webgen" not in LAYERS["entities"]
    # report renders results; it must not reach back into pipeline.
    assert "pipeline" not in LAYERS["report"]
    # nothing may import pipeline except serve (the online consumer of
    # the batch pipeline's builders), store (which compiles the
    # pipeline's artifacts into out-of-core tiers), and root modules.
    assert all(
        "pipeline" not in allowed
        for pkg, allowed in LAYERS.items()
        if pkg not in {"serve", "store"}
    )
    # serve is the top of the DAG: a sink no other subsystem imports.
    assert "pipeline" in LAYERS["serve"]
    assert all("serve" not in allowed for allowed in LAYERS.values())
    # store sits below serve and never knows about HTTP.
    assert "store" in LAYERS["serve"]
    assert all(
        "store" not in allowed
        for pkg, allowed in LAYERS.items()
        if pkg != "serve"
    )
    # devtools is a leaf: lints the tree without participating in it.
    assert LAYERS["devtools"] == frozenset()
    # The whitelist itself is acyclic (defensive: config drift).
    visiting, done = set(), set()

    def visit(pkg):
        assert pkg not in visiting, f"cycle through {pkg}"
        if pkg in done:
            return
        visiting.add(pkg)
        for dep in LAYERS.get(pkg, ()):  # noqa: B007
            visit(dep)
        visiting.discard(pkg)
        done.add(pkg)

    for pkg in LAYERS:
        visit(pkg)


# ---------------------------------------------------------------- STORE001


def test_store001_flags_interpolated_sql():
    findings = check_source(
        '"""M."""\n\n\n'
        "def bad(conn, table, k):\n"
        '    """B."""\n'
        '    conn.execute(f"SELECT * FROM {table}")\n'
        '    conn.execute("SELECT * FROM t WHERE k = %s" % k)\n'
        '    conn.execute("SELECT * FROM " + table)\n'
        '    conn.executemany("INSERT INTO t VALUES ({})".format(k), [])\n'
        '    conn.executescript(";".join(["a", "b"]))\n',
        select=["STORE001"],
    )
    assert rules_of(findings) == ["STORE001"] * 5
    assert [f.line for f in findings] == [6, 7, 8, 9, 10]


def test_store001_clean_on_constant_statements():
    findings = check_source(
        '"""M."""\n\n\n'
        "def good(conn, k):\n"
        '    """G."""\n'
        '    conn.execute("SELECT * FROM t WHERE k = ?", (k,))\n'
        '    conn.execute("SELECT entity FROM edges "\n'
        '                 "WHERE pair_id = ? AND site = ?", (1, 2))\n'
        '    conn.execute("SELECT 1" + " FROM t")\n'
        '    conn.executescript("CREATE TABLE a(x); CREATE TABLE b(y);")\n',
        select=["STORE001"],
    )
    assert findings == []


def test_store001_ignores_non_execute_calls():
    findings = check_source(
        '"""M."""\n\n\n'
        "def other(runner, name):\n"
        '    """O."""\n'
        '    runner.launch(f"job-{name}")\n',
        select=["STORE001"],
    )
    assert findings == []


def test_store001_selected_for_the_store_tree():
    config = load_config(REPO_ROOT / "pyproject.toml")
    selectors = config.selectors_for("src/repro/crawl/store.py")
    assert "STORE" in selectors
    assert "STORE001" in resolve_selectors(selectors)
