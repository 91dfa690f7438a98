"""Exit codes and diff output of the bench-regression comparator.

``repro-versioning bench-check`` (:mod:`repro.bench.check`) is the CI
perf-regression gate: it compares fresh ``BENCH_*.json`` payloads
against committed baselines and fails the build on regressions beyond
the noise margin.  CI relies on the exit-code contract (0 clean /
1 regression / 2 missing-or-bad-input), so these tests pin it against
synthetic payload pairs, along with the structural metric-tracking
rules and the human-readable report.
"""

import json

import pytest

from repro.bench.check import (
    DEFAULT_MARGIN,
    compare_payloads,
    format_report,
    main,
    tracked_metrics,
)

BASE = {
    "preset": "996.ICU",  # untracked: not a speedup, not a True bool
    "lmg_speedup": 8.0,
    "bmr_lmg_speedup": 6.0,
    "min_speedup": 5.0,
    "all_plans_identical": True,
    "sweep_never_slower": False,  # False baselines gate nothing
    "lmg_seconds": 12.5,  # absolute timings are deliberately untracked
    "null_speedup": None,  # null ratios are untracked too
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestTracking:
    def test_tracked_metrics_structural_rules(self):
        tracked = tracked_metrics(BASE)
        assert tracked == {
            "lmg_speedup": 8.0,
            "bmr_lmg_speedup": 6.0,
            "min_speedup": 5.0,
            "all_plans_identical": True,
        }

    def test_statuses(self):
        cand = dict(BASE)
        cand["lmg_speedup"] = 9.5  # improved
        cand["bmr_lmg_speedup"] = 5.0  # within the 0.5 margin (floor 3.0)
        cand["min_speedup"] = 2.0  # regression (floor 2.5)
        diffs = {d.key: d.status for d in compare_payloads(BASE, cand)}
        assert diffs == {
            "lmg_speedup": "improved",
            "bmr_lmg_speedup": "ok",
            "min_speedup": "regression",
            "all_plans_identical": "ok",
        }

    def test_margin_is_relative(self):
        cand = dict(BASE)
        cand["lmg_speedup"] = 7.3  # floor at margin 0.1 is 7.2
        statuses = {
            d.key: d.status for d in compare_payloads(BASE, cand, margin=0.1)
        }
        assert statuses["lmg_speedup"] == "ok"
        cand["lmg_speedup"] = 7.1
        statuses = {
            d.key: d.status for d in compare_payloads(BASE, cand, margin=0.1)
        }
        assert statuses["lmg_speedup"] == "regression"

    def test_boolean_gate_is_exact(self):
        cand = dict(BASE)
        cand["all_plans_identical"] = False
        diffs = {d.key: d.status for d in compare_payloads(BASE, cand)}
        assert diffs["all_plans_identical"] == "regression"

    def test_missing_metric_is_structural(self):
        cand = dict(BASE)
        del cand["min_speedup"]
        cand["all_plans_identical"] = None
        diffs = {d.key: d.status for d in compare_payloads(BASE, cand)}
        assert diffs["min_speedup"] == "missing"
        assert diffs["all_plans_identical"] == "missing"
        # a bool where a ratio belongs is also structural, not a value
        cand = dict(BASE)
        cand["min_speedup"] = True
        diffs = {d.key: d.status for d in compare_payloads(BASE, cand)}
        assert diffs["min_speedup"] == "missing"

    @pytest.mark.parametrize(
        "value,status",
        [(float("nan"), "missing"), (-float("inf"), "missing"),
         (float("inf"), "improved")],
    )
    def test_non_finite_candidate_ratio(self, value, status):
        # NaN compares false against both floor and baseline: without
        # the guard it would pass as "ok"
        diffs = compare_payloads({"a_speedup": 2.0}, {"a_speedup": value})
        assert [d.status for d in diffs] == [status]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_baseline_ratio_is_rejected(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            tracked_metrics({"a_speedup": value})


class TestWorkCounters:
    """Integer ``*_rounds`` keys are gated exactly: counts do not jitter."""

    BASE = {
        "edmonds_rounds": 155,
        "float_rounds": 3.5,  # not an integer count: untracked
        "flag_rounds": True,  # a bool is a gate boolean, not a count
        "nodes": 500,  # integers without the suffix stay untracked
    }

    def test_tracking(self):
        assert tracked_metrics(self.BASE) == {
            "edmonds_rounds": 155,
            "flag_rounds": True,
        }

    @pytest.mark.parametrize(
        "cand,status",
        [(155, "ok"), (120, "improved"), (156, "regression"), (155.0, "missing"),
         (None, "missing"), (True, "missing")],
    )
    def test_statuses(self, cand, status):
        diffs = {
            d.key: d.status
            for d in compare_payloads(self.BASE, {**self.BASE, "edmonds_rounds": cand})
        }
        assert diffs["edmonds_rounds"] == status

    def test_no_margin_applies(self):
        cand = {**self.BASE, "edmonds_rounds": 156}
        (diff,) = [
            d for d in compare_payloads(self.BASE, cand, margin=10.0)
            if d.key == "edmonds_rounds"
        ]
        assert diff.status == "regression"

    def test_report_shows_ceiling(self):
        cand = {**self.BASE, "edmonds_rounds": 156}
        report = format_report("BENCH_x.json", compare_payloads(self.BASE, cand))
        assert "REGRESSION  edmonds_rounds: 155 -> 156 (ceiling 155)" in report

    def test_exit_codes(self, tmp_path):
        base = write(tmp_path, "BENCH_a.json", self.BASE)
        for rounds, code in ((155, 0), (154, 0), (156, 1)):
            candp = write(tmp_path, "cand.json", {**self.BASE, "edmonds_rounds": rounds})
            assert main([str(candp), "--baseline", str(base), "--margin", "0.9"]) == code
        missing = {k: v for k, v in self.BASE.items() if k != "edmonds_rounds"}
        candp = write(tmp_path, "cand.json", missing)
        assert main([str(candp), "--baseline", str(base)]) == 2


class TestReport:
    def test_report_shows_floor_and_tags(self):
        cand = dict(BASE)
        cand["min_speedup"] = 2.0
        report = format_report("BENCH_x.json", compare_payloads(BASE, cand))
        assert "BENCH_x.json: 4 tracked metric(s), margin 0.5" in report
        assert "REGRESSION" in report
        assert "min_speedup: 5 -> 2 (floor 2.5)" in report

    def test_report_with_nothing_tracked(self):
        report = format_report("BENCH_y.json", compare_payloads({"a": 1}, {}))
        assert "nothing tracked" in report


class TestMainExitCodes:
    def test_clean_and_improved_exit_zero(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_a.json", BASE)
        cand = dict(BASE)
        cand["lmg_speedup"] = 100.0
        candp = write(tmp_path, "cand.json", cand)
        assert main([str(candp), "--baseline", str(base)]) == 0
        assert "improved" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path):
        base = write(tmp_path, "BENCH_a.json", BASE)
        cand = dict(BASE)
        cand["min_speedup"] = 0.5
        candp = write(tmp_path, "cand.json", cand)
        assert main([str(candp), "--baseline", str(base)]) == 1

    def test_missing_metric_exits_two(self, tmp_path):
        base = write(tmp_path, "BENCH_a.json", BASE)
        cand = {k: v for k, v in BASE.items() if k != "lmg_speedup"}
        candp = write(tmp_path, "cand.json", cand)
        assert main([str(candp), "--baseline", str(base)]) == 2

    def test_bad_json_exits_two(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_a.json", BASE)
        candp = tmp_path / "cand.json"
        candp.write_text("not json{")
        assert main([str(candp), "--baseline", str(base)]) == 2
        candp.write_text("[1, 2]")  # legal JSON, wrong shape
        assert main([str(candp), "--baseline", str(base)]) == 2
        assert "must be a JSON object" in capsys.readouterr().out

    def test_non_finite_ratios_exit_two(self, tmp_path, capsys):
        # json.dumps writes NaN / Infinity literals; json.loads reads them
        base = write(tmp_path, "BENCH_a.json", {"a_speedup": 2.0})
        nan = write(tmp_path, "nan.json", {"a_speedup": float("nan")})
        assert main([str(nan), "--baseline", str(base)]) == 2
        assert "MISSING" in capsys.readouterr().out
        inf = write(tmp_path, "inf.json", {"a_speedup": float("inf")})
        assert main([str(inf), "--baseline", str(base)]) == 0
        assert main([str(base), "--baseline", str(nan)]) == 2
        assert "must be finite" in capsys.readouterr().out

    def test_baseline_dir_matching_by_name(self, tmp_path, capsys):
        bdir = tmp_path / "baselines"
        bdir.mkdir()
        write(bdir, "BENCH_a.json", BASE)
        cand = write(tmp_path, "BENCH_a.json", BASE)
        assert main([str(cand), "--baseline-dir", str(bdir)]) == 0
        orphan = write(tmp_path, "BENCH_orphan.json", BASE)
        assert main([str(orphan), "--baseline-dir", str(bdir)]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_worst_code_wins_across_candidates(self, tmp_path):
        bdir = tmp_path / "baselines"
        bdir.mkdir()
        write(bdir, "BENCH_ok.json", BASE)
        write(bdir, "BENCH_bad.json", BASE)
        ok = write(tmp_path, "BENCH_ok.json", BASE)
        bad_payload = dict(BASE)
        bad_payload["min_speedup"] = 0.1
        bad = write(tmp_path, "BENCH_bad.json", bad_payload)
        code = main([str(ok), str(bad), "--baseline-dir", str(bdir)])
        assert code == 1

    def test_explicit_baseline_requires_single_candidate(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_a.json", BASE)
        c1 = write(tmp_path, "c1.json", BASE)
        c2 = write(tmp_path, "c2.json", BASE)
        assert main([str(c1), str(c2), "--baseline", str(base)]) == 2
        assert "exactly one candidate" in capsys.readouterr().err

    def test_margin_flag_threads_through(self, tmp_path):
        base = write(tmp_path, "BENCH_a.json", BASE)
        cand = dict(BASE)
        cand["min_speedup"] = 4.0  # floor 4.5 at margin 0.1, 2.5 at default
        candp = write(tmp_path, "cand.json", cand)
        assert main([str(candp), "--baseline", str(base)]) == 0
        assert main([str(candp), "--baseline", str(base), "--margin", "0.1"]) == 1


class TestCliWiring:
    def test_bench_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = write(tmp_path, "BENCH_a.json", BASE)
        cand = write(tmp_path, "cand.json", BASE)
        code = cli_main(
            ["bench-check", str(cand), "--baseline", str(base)]
        )
        assert code == 0
        assert "tracked metric(s)" in capsys.readouterr().out

    def test_default_margin_documented_value(self):
        assert DEFAULT_MARGIN == pytest.approx(0.5)
