"""Tests for the repro.analysis invariant linter.

Every rule gets a known-bad fixture (each expected finding asserted by
line and rule name) and a known-clean fixture (the compliant spelling
of the same code).  On top of the per-rule fixtures: suppression
semantics, the runner/CLI contract, and the load-bearing repo-wide
gate — ``src/repro`` must lint clean with every rule enabled.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Module,
    all_rules,
    get_rule,
    lint_module,
    lint_paths,
    main,
    render_json,
    render_text,
)

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def run_rule(rule_name, source, *, name="fixture.mod", is_package=False):
    """Lint an in-memory snippet with a single rule."""
    module = Module.from_source(
        textwrap.dedent(source), name=name, is_package=is_package
    )
    return lint_module(module, [get_rule(rule_name)])


def lines_of(findings):
    return sorted(f.line for f in findings)


class TestToleranceDiscipline:
    def test_flags_inline_patterns(self):
        findings = run_rule(
            "tolerance-discipline",
            """\
            import math

            def check(sigma, budget):
                if sigma <= budget * (1 + 1e-9) + 1e-12:       # BinOp, 2 literals
                    return True
                if math.isclose(sigma, budget, rel_tol=1e-9):  # isclose w/ literal
                    return True
                return sigma - budget < 1e-6                   # Compare w/ literal
            """,
        )
        assert [f.rule for f in findings] == ["tolerance-discipline"] * 3
        assert lines_of(findings) == [4, 6, 8]

    def test_clean_spelling_passes(self):
        findings = run_rule(
            "tolerance-discipline",
            """\
            from repro.core.tolerance import within_budget

            def check(sigma, budget):
                return within_budget(sigma, budget)
            """,
        )
        assert findings == []

    def test_home_module_exempt(self):
        findings = run_rule(
            "tolerance-discipline",
            "EPS = 1e-9\n\ndef ok(a, b):\n    return a <= b * (1 + 1e-9) + 1e-12\n",
            name="repro.core.tolerance",
        )
        assert findings == []

    def test_non_tolerance_literals_ignored(self):
        findings = run_rule(
            "tolerance-discipline",
            "def f(x):\n    return x * 2.0 + 0.5 < 100.0\n",
        )
        assert findings == []


class TestSpecRouting:
    def test_flags_problem_literal_branches(self):
        findings = run_rule(
            "spec-routing",
            """\
            def pick(problem):
                if problem == "msr":
                    return 1
                if problem != "bmr":
                    return 2
                if problem in ("msr", "bmr"):
                    return 3
                return 0
            """,
        )
        assert [f.rule for f in findings] == ["spec-routing"] * 3
        assert lines_of(findings) == [2, 4, 6]

    def test_spec_dispatch_passes(self):
        findings = run_rule(
            "spec-routing",
            """\
            def pick(spec):
                return spec.default_panel_solvers
            """,
        )
        assert findings == []

    def test_home_module_exempt(self):
        findings = run_rule(
            "spec-routing",
            'def canon(problem):\n    return problem == "msr"\n',
            name="repro.core.problemspec",
        )
        assert findings == []

    def test_unrelated_string_compare_ignored(self):
        findings = run_rule(
            "spec-routing",
            'def f(fmt):\n    return fmt == "json"\n',
        )
        assert findings == []


class TestRegistryDiscipline:
    def test_flags_table_subscripts(self):
        findings = run_rule(
            "registry-discipline",
            """\
            from repro.algorithms.registry import SOLVERS

            def pick(name):
                return SOLVERS[("msr", name)]
            """,
        )
        assert [f.rule for f in findings] == ["registry-discipline"]
        assert lines_of(findings) == [4]

    def test_getters_pass(self):
        findings = run_rule(
            "registry-discipline",
            """\
            from repro.algorithms.registry import get_solver

            def pick(spec, name):
                return get_solver(spec, name)
            """,
        )
        assert findings == []

    def test_registry_module_exempt(self):
        findings = run_rule(
            "registry-discipline",
            "SOLVERS = {}\n\ndef get_solver(k):\n    return SOLVERS[k]\n",
            name="repro.algorithms.registry",
        )
        assert findings == []


class TestLayering:
    def test_flags_upward_import(self):
        findings = run_rule(
            "layering",
            "from repro.fastgraph import lmg_array\n",
            name="repro.core.graph",
        )
        assert len(findings) == 1
        assert findings[0].rule == "layering"
        assert "upward import" in findings[0].message

    def test_downward_and_same_family_pass(self):
        findings = run_rule(
            "layering",
            """\
            from repro.core.graph import VersionGraph
            from repro.algorithms.lmg import local_move_greedy
            """,
            name="repro.algorithms.dp_msr",
        )
        assert findings == []

    def test_type_checking_imports_exempt(self):
        findings = run_rule(
            "layering",
            """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.fastgraph.compiled import CompiledGraph
            """,
            name="repro.core.graph",
        )
        assert findings == []

    def test_relative_import_resolution_in_package(self):
        # `from .lmg import x` inside algorithms/__init__.py must resolve
        # to repro.algorithms.lmg (same family), not repro.lmg.
        findings = run_rule(
            "layering",
            "from .lmg import local_move_greedy\n",
            name="repro.algorithms",
            is_package=True,
        )
        assert findings == []

    def test_registry_is_sanctioned_wiring_hub(self):
        findings = run_rule(
            "layering",
            "from repro.fastgraph.trajectory import TRAJECTORY_SOLVERS\n",
            name="repro.algorithms.registry",
        )
        assert findings == []

    def test_non_repro_modules_skipped(self):
        findings = run_rule(
            "layering",
            "from repro.cli import main\n",
            name="somepackage.tool",
        )
        assert findings == []


class TestLockDiscipline:
    FIXTURE = """\
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self._thread = None  # guarded-by: _lock

        def bad(self):
            return self._thread is None

        def good_with(self):
            with self._lock:
                return self._thread is None

        def good_holds(self):  # holds: _lock
            return self._thread is None
    """

    def test_flags_unprotected_access_only(self):
        findings = run_rule("lock-discipline", self.FIXTURE)
        assert len(findings) == 1
        assert findings[0].rule == "lock-discipline"
        assert findings[0].line == 9
        assert "_thread" in findings[0].message

    def test_nested_function_resets_coverage(self):
        # A closure defined under `with self._lock:` may run on another
        # thread after the lock is released — coverage must not leak in.
        findings = run_rule(
            "lock-discipline",
            """\
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._out = None  # guarded-by: _lock

                def submit(self):
                    with self._lock:
                        def run():
                            return self._out
                        return run
            """,
        )
        assert lines_of(findings) == [11]

    def test_owner_thread_token(self):
        # Tokens that are not attributes (thread-ownership discipline)
        # are satisfied only by a `# holds:` annotation.
        findings = run_rule(
            "lock-discipline",
            """\
            class Ingest:
                def __init__(self):
                    self._gen = 0  # guarded-by: ingest-thread

                def bad(self):
                    return self._gen

                def good(self):  # holds: ingest-thread
                    return self._gen
            """,
        )
        assert lines_of(findings) == [6]

    def test_declaration_lines_exempt(self):
        findings = run_rule(
            "lock-discipline",
            """\
            import threading

            class W:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._x = 0  # guarded-by: _lock

                def reset(self):  # holds: _lock
                    self._x = 0
            """,
        )
        assert findings == []


class TestSuppression:
    def test_inline_marker_suppresses_named_rule(self):
        findings = run_rule(
            "tolerance-discipline",
            "def f(a, b):\n"
            "    return a <= b + 1e-9  # lint-ignore: tolerance-discipline\n",
        )
        assert findings == []

    def test_marker_on_comment_line_applies_to_next_code_line(self):
        findings = run_rule(
            "tolerance-discipline",
            "def f(a, b):\n"
            "    # justified: see docs\n"
            "    # lint-ignore: tolerance-discipline\n"
            "    return a <= b + 1e-9\n",
        )
        assert findings == []

    def test_bare_marker_suppresses_all_rules(self):
        findings = run_rule(
            "spec-routing",
            'def f(p):\n    return p == "msr"  # lint-ignore\n',
        )
        assert findings == []

    def test_marker_for_other_rule_does_not_suppress(self):
        findings = run_rule(
            "tolerance-discipline",
            "def f(a, b):\n    return a <= b + 1e-9  # lint-ignore: layering\n",
        )
        assert len(findings) == 1


class TestFramework:
    def test_all_rules_registered(self):
        names = sorted(all_rules())
        assert names == [
            "layering",
            "lock-discipline",
            "registry-discipline",
            "spec-routing",
            "tolerance-discipline",
        ]

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")

    def test_finding_render_and_dict(self):
        f = Finding(path="x.py", line=3, col=5, rule="layering", message="m")
        assert f.render() == "x.py:3:5: layering: m"
        assert f.to_dict() == {
            "path": "x.py",
            "line": 3,
            "col": 5,
            "rule": "layering",
            "message": "m",
        }

    def test_reporters(self):
        f = Finding(path="x.py", line=1, col=1, rule="layering", message="m")
        assert "1 finding" in render_text([f])
        assert render_text([]) == "no findings"
        payload = json.loads(render_json([f]))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "layering"

    def test_parse_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"


class TestRunnerCli:
    def test_repo_wide_clean(self):
        """The gate: src/repro lints clean under every rule."""
        findings = lint_paths([SRC_ROOT / "repro"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(p):\n    return p == "msr"\n')
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 0\n")
        assert main([str(dirty)]) == 1
        assert main([str(clean)]) == 0
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(p):\n    return p == "msr"\n')
        assert main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "spec-routing"

    def test_select_restricts_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(p):\n    return p == "msr"\n')
        assert main([str(dirty), "--select", "tolerance-discipline"]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path), "--select", "bogus"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC_ROOT / "repro")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_lint_subcommand(self):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(SRC_ROOT / "repro")]) == 0
