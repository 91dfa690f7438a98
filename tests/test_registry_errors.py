"""Error-path tests for the solver registry (messages pinned).

Every entry point that resolves solvers by name must fail with a
message that names the family, echoes the bad input, and lists the
valid options — these strings are part of the CLI's user experience
(they surface verbatim behind ``error:`` lines), so the exact wording
is pinned here.  The registered solver-name sets are pinned too.
"""

import pytest

from repro.algorithms.registry import (
    BACKENDS,
    ENGINE_KERNELS,
    SOLVERS,
    SWEEPS,
    get_engine_solver,
    get_solver,
    get_sweep,
)
from repro.core.problemspec import SPECS
from repro.fastgraph.trajectory import TRAJECTORY_SOLVERS

#: The frozen solver-name sets: the registry must expose exactly these
#: (no silent drops), mirrored by the CI smoke assertion in
#: .github/workflows/ci.yml.
EXPECTED_NAMES = [
    (SOLVERS, "msr", ["dp-msr", "ilp", "lmg", "lmg-all"]),
    (SOLVERS, "bmr", ["bmr-lmg", "dp-bmr", "ilp", "mp", "mp-local"]),
    (SWEEPS, "msr", ["lmg", "lmg-all"]),
    (SWEEPS, "bmr", ["bmr-lmg"]),
    (ENGINE_KERNELS, "msr", ["lmg", "lmg-all"]),
    (ENGINE_KERNELS, "bmr", ["bmr-lmg", "mp", "mp-local"]),
]


def names(table, problem):
    return sorted(n for p, n in table if p == problem)


class TestUnknownSolverNames:
    def test_unknown_msr_solver(self):
        with pytest.raises(KeyError) as exc:
            get_solver("msr", "nope")
        assert (
            "unknown MSR solver 'nope'; options: "
            "['dp-msr', 'ilp', 'lmg', 'lmg-all']" in str(exc.value)
        )

    def test_unknown_bmr_solver(self):
        with pytest.raises(KeyError) as exc:
            get_solver("bmr", "nope")
        assert (
            "unknown BMR solver 'nope'; options: "
            "['bmr-lmg', 'dp-bmr', 'ilp', 'mp', 'mp-local']" in str(exc.value)
        )


class TestCrossFamilyNames:
    """A name from the *other* family gets a redirecting hint."""

    @pytest.mark.parametrize("name", ["mp", "mp-local", "bmr-lmg", "dp-bmr"])
    def test_bmr_name_passed_to_msr_getter(self, name):
        with pytest.raises(KeyError) as exc:
            get_solver("msr", name)
        msg = str(exc.value)
        assert f"unknown MSR solver {name!r}" in msg
        assert f"({name!r} is a BMR solver; use get_solver('bmr', {name!r}))" in msg

    @pytest.mark.parametrize("name", ["lmg", "lmg-all", "dp-msr"])
    def test_msr_name_passed_to_bmr_getter(self, name):
        with pytest.raises(KeyError) as exc:
            get_solver("bmr", name)
        msg = str(exc.value)
        assert f"unknown BMR solver {name!r}" in msg
        assert f"({name!r} is a MSR solver; use get_solver('msr', {name!r}))" in msg

    def test_ilp_resolves_in_both_families(self):
        # "ilp" legitimately exists on both sides: no error, no hint
        assert get_solver("msr", "ilp") is SOLVERS[("msr", "ilp")]
        assert get_solver("bmr", "ilp") is SOLVERS[("bmr", "ilp")]


class TestInvalidBackends:
    @pytest.mark.parametrize("problem,name", [("msr", "lmg"), ("bmr", "mp")])
    def test_unknown_backend(self, problem, name):
        with pytest.raises(KeyError) as exc:
            get_solver(problem, name, backend="gpu")
        assert "unknown backend 'gpu'; options: ['array', 'dict']" in str(exc.value)

    def test_backend_error_beats_silent_fallback(self):
        # even for solvers without an array variant, a bogus backend
        # name is a caller bug and must raise, not silently resolve
        with pytest.raises(KeyError, match="unknown backend"):
            get_solver("msr", "dp-msr", backend="gpu")


class TestEngineSolverResolution:
    def test_unknown_engine_solver(self):
        with pytest.raises(KeyError) as exc:
            get_engine_solver("msr", "nope")
        assert (
            "unknown MSR engine solver 'nope'; options: ['lmg', 'lmg-all']"
            in str(exc.value)
        )

    def test_bmr_engine_solver_table(self):
        with pytest.raises(KeyError) as exc:
            get_engine_solver("bmr", "nope")
        assert (
            "unknown BMR engine solver 'nope'; options: "
            "['bmr-lmg', 'mp', 'mp-local']" in str(exc.value)
        )

    def test_cross_family_engine_hint(self):
        with pytest.raises(KeyError) as exc:
            get_engine_solver("msr", "mp")
        assert "('mp' is a BMR engine solver)" in str(exc.value)
        with pytest.raises(KeyError) as exc:
            get_engine_solver("bmr", "lmg")
        assert "('lmg' is a MSR engine solver)" in str(exc.value)

    def test_unknown_problem(self):
        with pytest.raises(ValueError) as exc:
            get_engine_solver("mmr", "lmg")
        assert "unknown engine problem 'mmr'; options: ['bmr', 'msr']" in str(
            exc.value
        )

    def test_old_argument_order_is_rejected(self):
        # (name, problem) is not a second accepted shape: the solver
        # name is read as a problem and rejected
        with pytest.raises(ValueError) as exc:
            get_engine_solver("lmg", "msr")
        assert str(exc.value).startswith("unknown engine problem 'lmg'")

    def test_tables_resolve_their_own_names(self):
        for (problem, name), kernel in ENGINE_KERNELS.items():
            assert get_engine_solver(problem, name) is kernel


class TestSweepResolution:
    def test_non_sweep_solvers_return_none(self):
        assert get_sweep("msr", "dp-msr") is None
        assert get_sweep("msr", "nope") is None
        assert get_sweep("bmr", "mp") is None
        assert get_sweep("bmr", "mp-local") is None
        assert get_sweep("bmr", "nope") is None

    def test_sweep_capable_names(self):
        assert get_sweep("msr", "lmg") is not None
        assert get_sweep("msr", "lmg-all") is not None
        assert get_sweep("bmr", "bmr-lmg") is not None


class TestUnifiedTables:
    def test_no_silent_solver_drops(self):
        for table, problem, expected in EXPECTED_NAMES:
            assert names(table, problem) == expected

    def test_derived_tables_agree(self):
        # the sweep table is derived from the replay engine's, and the
        # engine/backend tables from one greedy table
        assert set(SWEEPS) == set(TRAJECTORY_SOLVERS)
        assert set(ENGINE_KERNELS) == set(BACKENDS)
        for key, backends in BACKENDS.items():
            assert sorted(backends) == ["array", "dict"]
            assert SOLVERS[key] is backends["array"]

    def test_every_key_problem_is_registered(self):
        for table in (SOLVERS, SWEEPS, ENGINE_KERNELS, BACKENDS):
            for problem, _name in table:
                assert problem in SPECS

    def test_new_getters_resolve_every_entry(self):
        for (problem, name), fn in SOLVERS.items():
            assert get_solver(problem, name) is fn
        for (problem, name), fn in SWEEPS.items():
            assert get_sweep(problem, name) is fn
        for (problem, name), fn in ENGINE_KERNELS.items():
            assert get_engine_solver(problem, name) is fn

    def test_unknown_problem_everywhere(self):
        with pytest.raises(ValueError, match="unknown problem 'mmr'"):
            get_solver("mmr", "lmg")
        with pytest.raises(ValueError, match="unknown problem 'mmr'"):
            get_sweep("mmr", "lmg")
        with pytest.raises(ValueError, match="unknown engine problem 'mmr'"):
            get_engine_solver("mmr", "lmg")

    def test_new_engine_getter_requires_name(self):
        with pytest.raises(TypeError, match="name"):
            get_engine_solver("msr")


class TestPinnedHintsSurviveVerbatim:
    """The cross-family redirect hints are CLI-facing pinned strings."""

    def test_solver_hints(self):
        with pytest.raises(KeyError) as exc:
            get_solver("msr", "mp")
        assert "('mp' is a BMR solver; use get_solver('bmr', 'mp'))" in str(exc.value)
        with pytest.raises(KeyError) as exc:
            get_solver("bmr", "lmg-all")
        assert "('lmg-all' is a MSR solver; use get_solver('msr', 'lmg-all'))" in str(
            exc.value
        )

    def test_engine_hints(self):
        with pytest.raises(KeyError) as exc:
            get_engine_solver("msr", "mp")
        assert "('mp' is a BMR engine solver)" in str(exc.value)
        with pytest.raises(KeyError) as exc:
            get_engine_solver("bmr", "lmg")
        assert "('lmg' is a MSR engine solver)" in str(exc.value)
