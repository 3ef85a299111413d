"""Unit tests for JSON serialization and the problem DSL."""

import pytest

from repro import SerializationError, schedule
from repro.examples_data import fig1_problem
from repro.io import (load_problem, load_problem_dsl, load_schedule,
                      parse_problem, problem_from_dict, problem_to_dict,
                      save_problem, save_schedule, schedule_from_dict,
                      schedule_to_dict)


class TestJsonProblems:
    def test_round_trip_preserves_everything(self):
        problem = fig1_problem()
        data = problem_to_dict(problem)
        rebuilt = problem_from_dict(data)
        assert rebuilt.name == problem.name
        assert rebuilt.p_max == problem.p_max
        assert rebuilt.p_min == problem.p_min
        assert rebuilt.graph.task_names() == problem.graph.task_names()
        assert sorted((e.src, e.dst, e.weight)
                      for e in rebuilt.graph.edges()) \
            == sorted((e.src, e.dst, e.weight)
                      for e in problem.graph.edges())

    def test_round_trip_solves_identically(self):
        problem = fig1_problem()
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert schedule(problem).schedule.as_dict() \
            == schedule(rebuilt).schedule.as_dict()

    def test_derived_edges_excluded_by_default(self):
        problem = fig1_problem()
        graph = problem.fresh_graph()
        graph.add_edge("a", "b", 1, tag="delay")
        from repro import SchedulingProblem
        decorated = SchedulingProblem(graph, p_max=16.0)
        data = problem_to_dict(decorated)
        tags = {e["tag"] for e in data["edges"]}
        assert tags == {"user"}

    def test_file_round_trip(self, tmp_path):
        problem = fig1_problem()
        path = str(tmp_path / "p.json")
        save_problem(problem, path)
        assert load_problem(path).name == problem.name

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            problem_from_dict({"format": "other", "tasks": []})

    def test_newer_version_rejected(self):
        data = problem_to_dict(fig1_problem())
        data["version"] = 99
        with pytest.raises(SerializationError):
            problem_from_dict(data)

    def test_missing_field_reported(self):
        with pytest.raises(SerializationError, match="missing"):
            problem_from_dict({"format": "repro-problem", "version": 1,
                               "tasks": [{"name": "a", "duration": 1}]})

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_problem(str(path))

    @pytest.mark.parametrize("where, key", [
        ("problem", "p_mni"), ("task", "powr"), ("resource", "idle"),
        ("edge", "wieght"), ("operating point", "core")])
    def test_unknown_key_is_refused_by_name(self, where, key):
        """A key the writer never writes used to be dropped: a task
        ``{"powr": 7.0}`` became a 0 W task, ``"p_mni"`` gave
        ``p_min = 0``."""
        data = problem_to_dict(fig1_problem())
        data["resources"] = [{"name": "R", "idle_power": 0.0,
                              "kind": "generic"}]
        data["tasks"][0]["operating_points"] = [{"freq": 1.0,
                                                 "cores": 1}]
        target = {"problem": data, "task": data["tasks"][0],
                  "resource": data["resources"][0],
                  "edge": data["edges"][0],
                  "operating point":
                      data["tasks"][0]["operating_points"][0]}[where]
        problem_from_dict(data)  # valid before the typo
        target[key] = 7.0
        with pytest.raises(SerializationError, match=key):
            problem_from_dict(data)


class TestJsonSchedules:
    def test_schedule_round_trip(self, tmp_path):
        problem = fig1_problem()
        result = schedule(problem)
        path = str(tmp_path / "s.json")
        save_schedule(result.schedule, path, problem_name=problem.name)
        loaded = load_schedule(path, problem.graph)
        assert loaded == result.schedule

    def test_dict_round_trip(self):
        problem = fig1_problem()
        result = schedule(problem)
        data = schedule_to_dict(result.schedule)
        assert data["makespan"] == result.finish_time
        rebuilt = schedule_from_dict(data, problem.graph)
        assert rebuilt == result.schedule


class TestChartJson:
    def test_chart_round_trips_through_json(self, tmp_path):
        import json

        from repro.gantt import chart_result
        from repro.io import chart_to_dict, save_chart
        from repro.examples_data import fig1_options
        from repro.scheduling import PowerAwareScheduler

        result = PowerAwareScheduler(fig1_options()).solve(
            fig1_problem())
        chart = chart_result(result)
        data = chart_to_dict(chart)
        assert data["format"] == "repro-chart"
        assert data["p_max"] == 16.0
        assert data["horizon"] == 20
        resources = {row["resource"] for row in data["rows"]}
        assert resources == {"A", "B", "C"}
        tasks = {b["task"] for row in data["rows"]
                 for b in row["bins"]}
        assert tasks == set("abcdefghi")
        # the final fig7 profile is flat 14 W
        assert data["profile"] == [[0, 20, 14.0]]
        assert data["spikes"] == [] and data["gaps"] == []

        path = save_chart(chart, str(tmp_path / "chart.json"))
        loaded = json.loads(open(path).read())
        assert loaded == json.loads(json.dumps(data))

    def test_bins_carry_slack(self):
        from repro.gantt import chart_result
        from repro.io import chart_to_dict

        result = schedule(fig1_problem())
        data = chart_to_dict(chart_result(result))
        slacks = [b["slack"] for row in data["rows"]
                  for b in row["bins"]]
        assert all(isinstance(s, int) and s >= 0 for s in slacks)


class TestDsl:
    GOOD = """
    # comment line
    problem demo pmax 16 pmin 14 baseline 1.5

    resource motor idle 0.5 kind mechanical
    task a motor 5 7.0
    task b laser 10 6.0

    precedence a b 2
    window a b 7 30
    release a 3
    deadline b 40
    """

    def test_parse_complete_problem(self):
        problem = parse_problem(self.GOOD)
        assert problem.name == "demo"
        assert problem.p_max == 16.0
        assert problem.p_min == 14.0
        assert problem.baseline == 1.5
        g = problem.graph
        assert g.task("a").power == 7.0
        assert g.resources["motor"].idle_power == 0.5
        assert g.separation("a", "b") == 7
        assert g.separation("b", "a") == -30

    def test_parse_solves(self):
        result = schedule(parse_problem(self.GOOD))
        assert result.metrics.spikes == 0

    def test_file_loading(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text(self.GOOD)
        assert load_problem_dsl(str(path)).name == "demo"

    def test_missing_header_rejected(self):
        with pytest.raises(SerializationError, match="problem"):
            parse_problem("task a R 5 1.0")

    def test_missing_pmax_rejected(self):
        with pytest.raises(SerializationError, match="pmax"):
            parse_problem("problem p\ntask a R 5 1.0")

    def test_unknown_statement_reports_line(self):
        text = "problem p pmax 10\nfrobnicate a b"
        with pytest.raises(SerializationError, match="line 2"):
            parse_problem(text)

    def test_malformed_task_reports_line(self):
        text = "problem p pmax 10\ntask a R five 1.0"
        with pytest.raises(SerializationError, match="line 2"):
            parse_problem(text)

    def test_empty_text_rejected(self):
        with pytest.raises(SerializationError):
            parse_problem("   \n# only comments\n")
