"""Unit tests for the batch exploration engine (repro.engine)."""

import json

import pytest

from repro import ConstraintGraph, SchedulerOptions, SchedulingProblem
from repro.analysis import monte_carlo_robustness, sweep_grid, sweep_p_max
from repro.engine import (BatchRunner, ResultCache, RunnerConfig,
                          SolveJob, derive_seed, problem_key,
                          register_kind, run_job, solve_problems)


def tiny_problem(p_max: float = 14.0, p_min: float = 10.0) \
        -> SchedulingProblem:
    g = ConstraintGraph("tiny")
    g.new_task("a", duration=5, power=8.0, resource="A")
    g.new_task("b", duration=10, power=6.0, resource="B")
    g.new_task("c", duration=5, power=7.0, resource="A")
    g.add_precedence("a", "b")
    g.add_min_separation("a", "c", 2)
    return SchedulingProblem(g, p_max=p_max, p_min=p_min, baseline=1.0)


# ----------------------------------------------------------------------
# canonical hashing
# ----------------------------------------------------------------------

class TestProblemKey:
    def test_stable_across_equivalent_graphs(self):
        """Edge insertion order must not affect the key."""
        def build(order_flipped: bool) -> SchedulingProblem:
            g = ConstraintGraph("same")
            g.new_task("a", duration=5, power=2.0)
            g.new_task("b", duration=5, power=2.0)
            edges = [("a", "b", 5), ("b", "a", -20)]
            if order_flipped:
                edges.reverse()
            for src, dst, w in edges:
                g.add_edge(src, dst, w)
            return SchedulingProblem(g, p_max=10.0)

        assert problem_key(build(False)) == problem_key(build(True))

    def test_sensitive_to_constraints_and_options(self):
        base = tiny_problem()
        assert problem_key(base) != \
            problem_key(base.with_power_constraints(15.0, 10.0))
        assert problem_key(base, SchedulerOptions(seed=1)) != \
            problem_key(base, SchedulerOptions(seed=2))
        assert problem_key(base, kind="sweep_point") != \
            problem_key(base, kind="other")

    def test_derive_seed_is_stable_and_spread(self):
        seeds = [derive_seed(2001, i) for i in range(50)]
        assert seeds == [derive_seed(2001, i) for i in range(50)]
        assert len(set(seeds)) == 50


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache()
        hit, _ = cache.lookup("k")
        assert not hit
        cache.put("k", 42)
        hit, value = cache.lookup("k")
        assert hit and value == 42
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "evictions": 0}

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.lookup("a")          # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.contains("a") and cache.contains("c")
        assert not cache.contains("b")

    def test_eviction_counter_past_capacity(self):
        cache = ResultCache(max_entries=3)
        for i in range(10):
            cache.put(f"k{i}", i)
        stats = cache.stats()
        assert stats["evictions"] == 7
        assert stats["entries"] == 3
        # only the three newest keys survive
        assert all(cache.contains(f"k{i}") for i in (7, 8, 9))
        assert not any(cache.contains(f"k{i}") for i in range(7))

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_peek_does_not_perturb_accounting(self):
        """Regression: classification probes must not count as misses.

        ``lookup`` charges a miss the moment it is called, but the
        runner probes the cache *before* deciding whether a job will be
        solved at all (it may be served by the schedule store instead).
        ``peek`` answers that question without moving any counter or
        the LRU order."""
        cache = ResultCache(max_entries=2)
        hit, value = cache.peek("absent")
        assert not hit and value is None
        cache.put("a", 1)
        cache.put("b", 2)
        hit, value = cache.peek("a")
        assert hit and value == 1
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 2,
                                 "evictions": 0}
        # peek("a") did NOT refresh recency: "a" is still the oldest
        cache.put("c", 3)
        assert not cache.contains("a")
        assert cache.contains("b") and cache.contains("c")
        # lookup still counts, as before
        cache.lookup("b")
        cache.lookup("absent")
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 2,
                                 "evictions": 1}


# ----------------------------------------------------------------------
# batch runner
# ----------------------------------------------------------------------

class TestBatchRunnerSerial:
    def test_matches_plain_sweep_loop(self):
        problem = tiny_problem()
        budgets = [10.0, 12.0, 14.0]
        plain = sweep_p_max(problem, budgets)
        engine = sweep_p_max(problem, budgets, runner=BatchRunner())
        assert engine == plain

    def test_duplicates_solved_once(self):
        problem = tiny_problem()
        job = SolveJob(problem=problem)
        runner = BatchRunner()
        results = runner.run([job, job, job])
        assert [r.cached for r in results] == [False, True, True]
        assert runner.last_trace.run["unique_solved"] == 1
        assert runner.last_trace.cache["hits"] == 2
        assert results[0].value == results[1].value == results[2].value

    def test_cache_persists_across_runs(self):
        problem = tiny_problem()
        runner = BatchRunner()
        first = runner.run([SolveJob(problem=problem)])
        second = runner.run([SolveJob(problem=problem)])
        assert not first[0].cached and second[0].cached
        assert second[0].value == first[0].value

    def test_unknown_kind_reports_not_raises(self):
        runner = BatchRunner()
        [result] = runner.run([SolveJob(problem=tiny_problem(),
                                        kind="no-such-kind")])
        assert not result.ok
        assert "no-such-kind" in result.error

    def test_solve_problems_batch(self):
        problems = [tiny_problem(p_max=p, p_min=8.0)
                    for p in (12.0, 14.0, 16.0)]
        points = solve_problems(problems)
        assert len(points) == 3
        assert all(point.feasible for point in points)


_FLAKY_CALLS = {"n": 0}


def _flaky_kind(job, store):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] < 3:
        raise RuntimeError("transient failure")
    return "recovered", {}


register_kind("flaky_test", _flaky_kind)


def _sleepy_kind(job, store):
    import time
    time.sleep(1.5)
    return "slept", {}


register_kind("sleepy_test", _sleepy_kind)


class TestRetryAndTimeout:
    def test_capped_retry_recovers(self):
        _FLAKY_CALLS["n"] = 0
        result = run_job(SolveJob(problem=tiny_problem(),
                                  kind="flaky_test"), retries=2)
        assert result.ok and result.value == "recovered"
        assert result.attempts == 3

    def test_retry_budget_exhausted_reports_error(self):
        _FLAKY_CALLS["n"] = -10  # needs 13 calls to succeed
        result = run_job(SolveJob(problem=tiny_problem(),
                                  kind="flaky_test"), retries=1)
        assert not result.ok
        assert "transient failure" in result.error

    def test_process_timeout_reports_per_job(self):
        runner = BatchRunner(RunnerConfig(workers=2, timeout_s=0.3,
                                          retries=0))
        [result] = runner.run([SolveJob(problem=tiny_problem(),
                                        kind="sleepy_test")])
        if runner.last_mode == "process":
            assert not result.ok
            assert "timed out" in result.error
        else:  # environment without worker processes: job just runs
            assert result.ok


class TestBatchRunnerParallel:
    def test_parallel_identical_to_serial_same_seed(self):
        """The determinism contract: workers change nothing."""
        problem = tiny_problem()
        budgets = [10.0, 11.0, 12.0, 14.0]
        levels = [9.0, 11.0, 13.0]
        options = SchedulerOptions(seed=77)
        serial = sweep_grid(problem, budgets, levels, options=options)
        runner = BatchRunner(RunnerConfig(workers=2))
        parallel = sweep_grid(problem, budgets, levels, options=options,
                              runner=runner)
        assert parallel == serial

    def test_degrades_to_serial_when_pool_unavailable(self, monkeypatch):
        import concurrent.futures as futures

        def broken(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", broken)
        runner = BatchRunner(RunnerConfig(workers=4))
        points = sweep_p_max(tiny_problem(), [12.0, 14.0],
                             runner=runner)
        assert runner.last_mode == "serial-fallback"
        assert all(point.feasible for point in points)
        assert points == sweep_p_max(tiny_problem(), [12.0, 14.0])


class TestRunnerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunnerConfig(workers=-1)
        with pytest.raises(ValueError):
            RunnerConfig(retries=-1)
        with pytest.raises(ValueError):
            RunnerConfig(timeout_s=0.0)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

class TestRunTrace:
    def test_trace_document_schema(self, tmp_path):
        path = str(tmp_path / "trace.json")
        runner = BatchRunner(RunnerConfig())
        problem = tiny_problem()
        sweep_grid(problem, [10.0, 12.0], [11.0, 13.0], runner=runner)
        runner.last_trace.write(path)

        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["format"] == "repro-trace" and doc["version"] == 2
        assert doc["run"]["jobs"] == 4
        assert doc["run"]["mode"] == "serial"
        assert doc["run"]["instrumented"] is False
        assert doc["cache"]["misses"] == doc["run"]["unique_solved"]
        assert doc["cache"]["evictions"] == 0
        assert {"timing", "max_power", "min_power"} <= \
            set(doc["stage_seconds"])
        assert doc["counters"]["longest_path_runs"] > 0
        assert len(doc["jobs"]) == 4
        for job in doc["jobs"]:
            assert {"position", "key", "cached", "ok", "attempts",
                    "elapsed_s", "stage_seconds",
                    "counters"} <= set(job)

    def test_stats_ride_along_per_job(self):
        runner = BatchRunner()
        [result] = runner.run([SolveJob(problem=tiny_problem())])
        counters = result.stats["counters"]
        # Stage copies inherit solved fixpoints, so cold full runs
        # inside the stages are not guaranteed — but the solver must
        # have answered *something* through one of its steps.
        assert counters["lp_full_runs"] + counters["lp_cache_hits"] \
            + counters["lp_incremental_runs"] > 0
        assert result.stats["stage_seconds"]["min_power"] >= 0.0


# ----------------------------------------------------------------------
# Monte Carlo robustness through the engine
# ----------------------------------------------------------------------

class TestMonteCarlo:
    def test_reproducible_and_bounded(self):
        problem = tiny_problem(p_max=18.0, p_min=10.0)
        first = monte_carlo_robustness(problem, trials=6,
                                       rel_sigma=0.2, base_seed=5)
        again = monte_carlo_robustness(problem, trials=6,
                                       rel_sigma=0.2, base_seed=5)
        assert first.finish_times == again.finish_times
        assert first.energy_costs == again.energy_costs
        assert 0.0 <= first.feasible_fraction <= 1.0
        assert first.feasible == len(first.finish_times)

    def test_rejects_zero_trials(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            monte_carlo_robustness(tiny_problem(), trials=0)
