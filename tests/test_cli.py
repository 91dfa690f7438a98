"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.instances import figure1_graph
from repro.core.problemspec import SPECS


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(figure1_graph().to_json())
    return str(path)


class TestSolve:
    def test_msr_lmg_all(self, graph_file, capsys):
        rc = main(["solve", "msr", graph_file, "--budget", "21000", "--solver", "lmg-all"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_retrieval"] == 1350
        assert payload["storage"] <= 21000
        assert sorted(payload["materialized"]) == ["v1", "v3"]

    def test_msr_infeasible(self, graph_file, capsys):
        rc = main(["solve", "msr", graph_file, "--budget", "100", "--solver", "lmg"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "infeasible" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("solver", ["mp", "dp-bmr"])
    def test_bmr_infeasible_exits_1_without_traceback(self, graph_file, capsys, solver):
        # Negative retrieval budgets are infeasible (even materializing
        # everything has max retrieval 0); the solver's ValueError must
        # become an exit code, not a traceback.
        rc = main(["solve", "bmr", graph_file, "--budget", "-5", "--solver", solver])
        assert rc == 1
        captured = capsys.readouterr()
        assert "infeasible" in captured.err
        assert captured.out == ""

    def test_structural_graph_error_exits_2(self, graph_file, capsys, monkeypatch):
        # A GraphError is a problem with the input, not a budget
        # outcome: it must exit 2 with an "error:" line, never be
        # reported as "infeasible".
        from repro.core import GraphError
        from repro.algorithms import registry

        def broken(graph, budget):
            raise GraphError("dp_bmr requires a bidirectional tree input")

        monkeypatch.setitem(registry.SOLVERS, ("bmr", "dp-bmr"), broken)
        rc = main(["solve", "bmr", graph_file, "--budget", "600", "--solver", "dp-bmr"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "infeasible" not in captured.err

    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_msr_backend_flag(self, graph_file, capsys, backend):
        rc = main(
            [
                "solve", "msr", graph_file,
                "--budget", "21000",
                "--solver", "lmg-all",
                "--backend", backend,
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_retrieval"] == 1350

    def test_bmr_dp(self, graph_file, capsys):
        rc = main(["solve", "bmr", graph_file, "--budget", "600", "--solver", "dp-bmr"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_retrieval"] <= 600

    def test_unknown_solver(self, graph_file, capsys):
        rc = main(["solve", "msr", graph_file, "--budget", "21000", "--solver", "nope"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown MSR solver 'nope'; options:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_wrong_family_solver_exits_2(self, graph_file, capsys):
        # 'mp' is a BMR solver: a usage error (2), not infeasible (1)
        rc = main(["solve", "msr", graph_file, "--budget", "1e12", "--solver", "mp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown MSR solver 'mp'; ")
        assert err.rstrip().endswith("use get_solver('bmr', 'mp'))")


class TestDataset:
    def test_stats_output(self, capsys):
        rc = main(["dataset", "datasharing", "--scale", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 29

    def test_write_graph(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        rc = main(["dataset", "datasharing", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        from repro.core import VersionGraph

        g = VersionGraph.from_json(out.read_text())
        assert g.num_versions == 29


class TestIngest:
    def test_json_panel_strict(self, capsys):
        rc = main(["ingest", "--commits", "40", "--seed", "3", "--every", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "msr"
        assert payload["mode"] == "online"
        assert payload["budget_kind"] == "storage"
        assert payload["solver"] == "lmg"
        assert payload["summary"]["versions"] == 40
        assert payload["summary"]["resolves"] >= 1
        for entry in payload["entries"]:
            assert entry["storage"] <= entry["budget"] * (1 + 1e-9) + 1e-6
            assert entry["staleness"] >= 0.0
        # strict JSON: re-serializable with allow_nan=False
        json.dumps(payload, allow_nan=False)

    def test_bmr_json_panel(self, capsys):
        rc = main(
            ["ingest", "--problem", "bmr", "--commits", "30", "--seed", "2",
             "--budget", "1500", "--every", "5"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "bmr"
        assert payload["budget_kind"] == "retrieval"
        assert payload["solver"] == "mp-local"  # the BMR default
        # every emitted arrival respects the max-retrieval budget
        for entry in payload["entries"]:
            assert entry["max_retrieval"] <= 1500 * (1 + 1e-9) + 1e-6
        assert payload["summary"]["final_max_retrieval"] <= 1500 * (1 + 1e-9) + 1e-6
        json.dumps(payload, allow_nan=False)

    def test_bmr_budget_factor_dynamic_budget(self, capsys):
        # BMR now has its own online lower bound: --budget-factor works
        # and the emitted budgets stay non-negative multiples of it
        rc = main(
            ["ingest", "--problem", "bmr", "--commits", "25", "--seed", "2",
             "--budget-factor", "3", "--every", "5"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "bmr"
        assert payload["budget_kind"] == "retrieval"
        assert payload["budget"] is None
        assert payload["budget_factor"] == 3.0
        assert payload["summary"]["final_budget"] >= 0.0
        for entry in payload["entries"]:
            assert entry["max_retrieval"] <= entry["budget"] * (1 + 1e-9) + 1e-6

    def test_bmr_defaults_to_budget_factor(self, capsys):
        # neither --budget nor --budget-factor: both families fall back
        # to factor 4.0 over their online lower bound
        rc = main(["ingest", "--problem", "bmr", "--commits", "15", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget_factor"] == 4.0
        assert payload["budget"] is None

    def test_fixed_budget_and_solver(self, capsys):
        rc = main(
            [
                "ingest",
                "--commits", "30",
                "--seed", "1",
                "--budget", "1000000",
                "--solver", "lmg-all",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == 1000000
        assert payload["budget_factor"] is None

    def test_markdown_panel(self, capsys):
        rc = main(
            ["ingest", "--commits", "25", "--seed", "2", "--every", "5",
             "--format", "markdown"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "MSR online ingest" in out
        assert "| index |" in out
        assert "re-solves" in out

    def test_infeasible_budget_exits_1(self, capsys):
        rc = main(["ingest", "--commits", "10", "--seed", "0", "--budget", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "infeasible" in captured.err
        assert captured.out == ""

    def test_conflicting_budget_flags_exit_2(self, capsys):
        rc = main(
            ["ingest", "--commits", "10", "--budget", "5", "--budget-factor", "2"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_solver_exits_2(self, capsys):
        rc = main(["ingest", "--commits", "10", "--solver", "nope"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "panel.json"
        rc = main(
            ["ingest", "--commits", "20", "--seed", "4", "--out", str(out),
             "--format", "markdown", "--background"]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["background"] is True
        assert payload["summary"]["versions"] == 20


class TestSpecDerivedPanels:
    """Panel ``problem``/``budget_kind`` pairs come from the spec, not
    hand-maintained literals — checked for every registered family."""

    @pytest.mark.parametrize("problem", sorted(SPECS))
    def test_sweep_panel_matches_spec(self, problem, graph_file, capsys):
        spec = SPECS[problem]
        solver = spec.default_panel_solvers[0]
        rc = main(
            ["sweep", problem, graph_file, "--solvers", solver, "--points", "3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == spec.name
        assert payload["budget_kind"] == spec.budget_kind

    @pytest.mark.parametrize("problem", sorted(SPECS))
    def test_ingest_panel_matches_spec(self, problem, capsys):
        spec = SPECS[problem]
        rc = main(
            ["ingest", "--problem", problem, "--commits", "12", "--seed", "5",
             "--budget-factor", "4", "--every", "4"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == spec.name
        assert payload["budget_kind"] == spec.budget_kind
        assert payload["solver"] == spec.default_engine_solver


class TestFigure:
    def test_unknown_figure(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2

    def test_theorem1(self, capsys):
        rc = main(["figure", "theorem1"])
        assert rc == 0
        assert "gap" in capsys.readouterr().out


class TestStore:
    def materialize(self, tmp_path, capsys, extra=()):
        rc = main([
            "store", "materialize", "--dir", str(tmp_path / "s"),
            "--commits", "30", "--seed", "5", "--budget-factor", "4",
            *extra,
        ])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_materialize_fsck_checkout_cycle(self, tmp_path, capsys):
        payload = self.materialize(tmp_path, capsys)
        assert payload["versions"] >= 30
        assert payload["stored_bytes"] <= payload["raw_bytes"]
        assert payload["source"]["seed"] == 5

        rc = main(["store", "fsck", "--dir", str(tmp_path / "s")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

        out = tmp_path / "wc"
        rc = main([
            "store", "checkout", "--dir", str(tmp_path / "s"),
            "--version", "7", "--out", str(out),
        ])
        assert rc == 0
        co = json.loads(capsys.readouterr().out)
        assert co["version"] == 7
        assert co["files"] == len([p for p in out.rglob("*") if p.is_file()])

    def test_materialize_twice_exits_2(self, tmp_path, capsys):
        self.materialize(tmp_path, capsys)
        rc = main([
            "store", "materialize", "--dir", str(tmp_path / "s"),
            "--commits", "30", "--seed", "5", "--budget-factor", "4",
        ])
        assert rc == 2
        assert "already holds a plan" in capsys.readouterr().err

    def test_materialize_infeasible_budget_exits_1(self, tmp_path, capsys):
        rc = main([
            "store", "materialize", "--dir", str(tmp_path / "s"),
            "--commits", "30", "--seed", "5", "--budget", "1",
        ])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    def test_materialize_wrong_family_solver_exits_2(self, tmp_path, capsys):
        rc = main([
            "store", "materialize", "--dir", str(tmp_path / "s"),
            "--commits", "20", "--budget-factor", "4", "--solver", "mp",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        # the registry message itself, not its quoted KeyError str()
        assert err.startswith("error: unknown MSR solver 'mp'; ")
        assert not err.startswith('error: "')

    def test_both_budget_flags_exit_2(self, tmp_path, capsys):
        # passing both flags is a usage error (exit 2, "error:"), not an
        # infeasible-budget outcome (exit 1, "infeasible:")
        rc = main([
            "store", "materialize", "--dir", str(tmp_path / "s"),
            "--commits", "30", "--budget", "1e9", "--budget-factor", "4",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "exactly one" in captured.err
        assert "infeasible" not in captured.err

    @pytest.mark.parametrize("evil", ["../escape.txt", "/tmp/escape.txt"])
    def test_checkout_out_refuses_path_escape(
        self, tmp_path, capsys, monkeypatch, evil
    ):
        # a tampered store whose manifest holds absolute or ..-relative
        # paths must not write outside --out
        self.materialize(tmp_path, capsys)
        from repro.store import MaterializationStore

        monkeypatch.setattr(
            MaterializationStore, "checkout", lambda self, v: {evil: ("pwned",)}
        )
        out = tmp_path / "wc"
        rc = main([
            "store", "checkout", "--dir", str(tmp_path / "s"),
            "--version", "7", "--out", str(out),
        ])
        assert rc == 2
        assert "refusing to write outside" in capsys.readouterr().err
        assert not (tmp_path / "escape.txt").exists()
        assert not Path("/tmp/escape.txt").exists()

    def test_migrate_rewrites_only_diff(self, tmp_path, capsys):
        self.materialize(tmp_path, capsys)
        rc = main([
            "store", "migrate", "--dir", str(tmp_path / "s"),
            "--budget-factor", "8",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges_rewritten"] == (
            payload["edges_written"] + payload["edges_deleted"]
        )
        assert payload["edges_rewritten"] < 2 * payload["versions"]
        assert payload["source"]["budget_kind"] == "storage"

        rc = main(["store", "fsck", "--dir", str(tmp_path / "s")])
        assert rc == 0
        capsys.readouterr()

    def test_fsck_detects_on_disk_corruption(self, tmp_path, capsys):
        self.materialize(tmp_path, capsys)
        objects = sorted((tmp_path / "s" / "objects").rglob("*"))
        victim = next(p for p in objects if p.is_file())
        data = victim.read_bytes()
        victim.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])

        rc = main(["store", "fsck", "--dir", str(tmp_path / "s")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert any(f["code"] == "object-corrupt" for f in payload["findings"])

    def test_checkout_unknown_version_exits_2(self, tmp_path, capsys):
        self.materialize(tmp_path, capsys)
        rc = main([
            "store", "checkout", "--dir", str(tmp_path / "s"),
            "--version", "999999",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBudgetValues:
    """Every budget flag shares one parser: NaN is a usage error (2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "bmr", "{g}", "--budget", "nan", "--solver", "mp"],
            ["solve", "bmr", "{g}", "--budget", "nan", "--solver", "bmr-lmg"],
            ["solve", "msr", "{g}", "--budget", "NaN", "--solver", "lmg"],
            ["sweep", "msr", "{g}", "--budgets", "nan,1e12"],
            ["ingest", "--commits", "10", "--budget", "nan"],
            ["ingest", "--commits", "10", "--budget-factor", "nan"],
            ["store", "materialize", "--dir", "{d}", "--budget-factor", "nan"],
            ["store", "migrate", "--dir", "{d}", "--budget", "nan"],
        ],
    )
    def test_nan_budget_exits_2(self, argv, graph_file, tmp_path, capsys):
        argv = [a.format(g=graph_file, d=tmp_path / "s") for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "invalid budget" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "s").exists()

    def test_inf_budget_is_an_unbounded_solve(self, graph_file, capsys):
        rc = main(["solve", "msr", graph_file, "--budget", "inf", "--solver", "lmg"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == float("inf")
        assert payload["stored_deltas"] == []  # unbounded: all materialized
