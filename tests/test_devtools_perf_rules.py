"""Tests for the PERF hot-path rules and the --changed-only mode."""

from __future__ import annotations

import subprocess
import textwrap

import pytest

from repro.devtools.lint import check_source, main, staged_python_files


def _rules(source: str, select=("PERF",)):
    findings = check_source(textwrap.dedent(source), select=list(select))
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# PERF001: list membership tests inside loops
# ---------------------------------------------------------------------------


def test_perf001_flags_membership_in_list_literal_inside_loop():
    assert _rules(
        """
        def f(items):
            for item in items:
                if item in [1, 2, 3]:
                    yield item
        """
    ) == ["PERF001"]


def test_perf001_flags_membership_in_list_variable_inside_loop():
    assert _rules(
        """
        def f(items):
            allowed = [1, 2, 3]
            for item in items:
                if item not in allowed:
                    yield item
        """
    ) == ["PERF001"]


def test_perf001_ignores_membership_in_set_or_outside_loops():
    assert _rules(
        """
        def f(items):
            allowed = {1, 2, 3}
            ok = 2 in allowed
            for item in items:
                if item in allowed:
                    yield item
        """
    ) == []


# ---------------------------------------------------------------------------
# PERF002: numpy array growth inside loops
# ---------------------------------------------------------------------------


def test_perf002_flags_np_concatenate_inside_loop():
    assert _rules(
        """
        import numpy as np

        def f(chunks):
            out = np.empty(0)
            for chunk in chunks:
                out = np.concatenate([out, chunk])
            return out
        """
    ) == ["PERF002"]


def test_perf002_flags_from_import_and_append():
    assert _rules(
        """
        from numpy import append

        def f(chunks):
            out = None
            while chunks:
                out = append(out, chunks.pop())
            return out
        """
    ) == ["PERF002"]


def test_perf002_allows_single_concatenate_after_loop():
    assert _rules(
        """
        import numpy as np

        def f(chunks):
            parts = []
            for chunk in chunks:
                parts.append(chunk)
            return np.concatenate(parts)
        """
    ) == []


# ---------------------------------------------------------------------------
# PERF003: index-counting loops over arrays
# ---------------------------------------------------------------------------


def test_perf003_flags_range_len_loop():
    assert _rules(
        """
        def f(xs):
            total = 0
            for i in range(len(xs)):
                total += xs[i]
            return total
        """
    ) == ["PERF003"]


def test_perf003_flags_range_over_shape():
    assert _rules(
        """
        def f(matrix):
            for i in range(matrix.shape[0]):
                print(matrix[i])
        """
    ) == ["PERF003"]


def test_perf003_allows_direct_iteration_and_bounded_range():
    assert _rules(
        """
        def f(xs, n):
            for x in xs:
                print(x)
            for i in range(n):
                print(i)
            for i in range(0, len(xs), 2):  # explicit stride: not the pattern
                print(i)
        """
    ) == []


# ---------------------------------------------------------------------------
# PERF004: plain np.unique (numpy >= 2.3 hashes, then sorts)
# ---------------------------------------------------------------------------


def test_perf004_flags_plain_unique_however_numpy_is_imported():
    assert _rules(
        """
        import numpy as np
        import numpy
        from numpy import unique

        def f(a, b, c):
            return np.unique(a), numpy.unique(b), unique(c)
        """
    ) == ["PERF004", "PERF004", "PERF004"]


def test_perf004_flags_false_flags_and_unrelated_keywords():
    assert _rules(
        """
        import numpy as np

        def f(a):
            return np.unique(a, return_counts=False, equal_nan=True)
        """
    ) == ["PERF004"]


def test_perf004_allows_unique_that_asks_for_more():
    assert _rules(
        """
        import numpy as np

        def f(a, flags, options):
            first = np.unique(a, return_index=True)
            inverse = np.unique(a, return_inverse=True)
            counts = np.unique(a, return_counts=True)
            rows = np.unique(a, axis=0)
            positional = np.unique(a, True)
            starred = np.unique(*flags)
            spread = np.unique(a, **options)
            return first, inverse, counts, rows, positional, starred, spread
        """
    ) == []


def test_perf004_ignores_other_unique_functions():
    assert _rules(
        """
        import pandas as pd

        def f(frame, unique):
            return pd.unique(frame), unique(frame), frame.unique()
        """
    ) == []


def test_perf004_is_selected_for_the_kernels_and_generators():
    from pathlib import Path

    from repro.devtools.config import load_config
    from repro.devtools.registry import resolve_selectors

    config = load_config(Path(__file__).resolve().parents[1] / "pyproject.toml")
    for path in ("src/repro/core/coverage.py", "src/repro/traffic/logs.py",
                 "src/repro/webgen/evolution.py"):
        assert "PERF004" in resolve_selectors(config.selectors_for(path)), path
    # The generators take only PERF004 of the family.
    assert "PERF003" not in resolve_selectors(
        config.selectors_for("src/repro/webgen/assignment.py")
    )


def test_perf_rules_respect_inline_suppression():
    assert _rules(
        """
        def f(xs):
            for i in range(len(xs)):  # reprolint: disable=PERF003
                print(xs[i])
        """
    ) == []


# ---------------------------------------------------------------------------
# --changed-only (the pre-commit hook mode)
# ---------------------------------------------------------------------------


@pytest.fixture
def scratch_repo(tmp_path):
    def git(*argv):
        subprocess.run(
            ["git", "-C", str(tmp_path), *argv],
            check=True,
            capture_output=True,
        )

    git("init", "--quiet")
    git("config", "user.email", "t@example.invalid")
    git("config", "user.name", "t")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\nselect = ["PERF"]\n', encoding="utf-8"
    )
    return tmp_path, git


def test_changed_only_with_empty_index_is_clean(scratch_repo, capsys):
    root, __ = scratch_repo
    assert main(["--changed-only", "--root", str(root)]) == 0
    assert "0 file(s)" in capsys.readouterr().out


def test_changed_only_lints_staged_file(scratch_repo, capsys):
    root, git = scratch_repo
    bad = root / "hot.py"
    bad.write_text(
        "def f(xs):\n"
        "    for i in range(len(xs)):\n"
        "        print(xs[i])\n",
        encoding="utf-8",
    )
    git("add", "hot.py")
    assert staged_python_files(root) == [bad.relative_to(root)]
    assert main(["--changed-only", "--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "PERF003" in out
    assert "hot.py" in out


def test_changed_only_ignores_unstaged_files(scratch_repo, capsys):
    root, git = scratch_repo
    staged = root / "ok.py"
    staged.write_text(
        '"""A module with nothing to flag."""\n\n__all__ = ["X"]\n\nX = 1\n',
        encoding="utf-8",
    )
    git("add", "ok.py")
    unstaged = root / "bad.py"
    unstaged.write_text(
        "def f(xs):\n"
        "    for i in range(len(xs)):\n"
        "        print(xs[i])\n",
        encoding="utf-8",
    )
    assert main(["--changed-only", "--root", str(root)]) == 0
    assert "bad.py" not in capsys.readouterr().out


def test_changed_only_skips_files_staged_then_deleted(scratch_repo):
    root, git = scratch_repo
    ghost = root / "ghost.py"
    ghost.write_text("X = 1\n", encoding="utf-8")
    git("add", "ghost.py")
    ghost.unlink()
    assert main(["--changed-only", "--root", str(root)]) == 0


def test_changed_only_scopes_to_path_arguments(scratch_repo, capsys):
    root, git = scratch_repo
    (root / "pkg").mkdir()
    for rel in ("pkg/a.py", "b.py"):
        path = root / rel
        path.write_text(
            "def f(xs):\n"
            "    for i in range(len(xs)):\n"
            "        print(xs[i])\n",
            encoding="utf-8",
        )
        git("add", rel)
    assert main(["--changed-only", "--root", str(root), "pkg"]) == 1
    out = capsys.readouterr().out
    assert "pkg/a.py" in out
    assert "b.py" not in out.replace("pkg/a.py", "")


def test_changed_only_outside_git_repo_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\n", encoding="utf-8")
    assert main(["--changed-only", "--root", str(tmp_path)]) == 2
    assert "git index" in capsys.readouterr().err
