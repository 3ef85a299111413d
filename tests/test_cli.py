"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.examples_data import fig1_problem
from repro.io import problem_to_dict


@pytest.fixture
def problem_json(tmp_path) -> str:
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(problem_to_dict(fig1_problem())))
    return str(path)


@pytest.fixture
def problem_dsl(tmp_path) -> str:
    path = tmp_path / "tiny.txt"
    path.write_text(
        "problem tiny pmax 10 pmin 4\n"
        "task a R 5 4.0\n"
        "task b S 5 4.0\n"
        "precedence a b\n")
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_args(self):
        args = build_parser().parse_args(["solve", "x.json",
                                          "--seed", "7"])
        assert args.command == "solve"
        assert args.seed == 7


class TestSolve:
    def test_solve_json(self, problem_json, capsys):
        assert main(["solve", problem_json, "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "fig1-example" in out
        assert "time-valid" in out

    def test_solve_dsl_with_chart(self, problem_dsl, capsys):
        assert main(["solve", problem_dsl]) == 0
        out = capsys.readouterr().out
        assert "power view" in out

    def test_solve_writes_artifacts(self, problem_dsl, tmp_path,
                                    capsys):
        svg = str(tmp_path / "out.svg")
        sched = str(tmp_path / "out.json")
        assert main(["solve", problem_dsl, "--no-chart",
                     "--svg", svg, "--out", sched]) == 0
        assert open(svg).read().startswith("<svg")
        data = json.loads(open(sched).read())
        assert data["format"] == "repro-schedule"

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["solve", "/nonexistent/file.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "/nonexistent/file.json" in err

    def test_artifacts_go_into_new_directories(self, problem_dsl,
                                               tmp_path):
        svg = tmp_path / "charts" / "out.svg"
        sched = tmp_path / "schedules" / "out.json"
        assert main(["solve", problem_dsl, "--no-chart", "--svg",
                     str(svg), "--out", str(sched)]) == 0
        assert svg.exists() and sched.exists()


#: Each verb, the document format it reads, and its arguments around
#: that file (``problem`` is a valid problem file).
READERS = {
    "solve": ("repro-problem", lambda path, problem: ["solve", path]),
    "diagnose": ("repro-problem",
                 lambda path, problem: ["diagnose", path]),
    "sweep --store": ("repro-schedule-store",
                      lambda path, problem: ["sweep", problem,
                                             "--budgets", "8",
                                             "--store", path]),
    "table show": ("repro-schedule-store",
                   lambda path, problem: ["table", "show", path]),
    "trace summarize": ("repro-trace",
                        lambda path, problem: ["trace", "summarize",
                                               path]),
    "session": ("repro-session-script",
                lambda path, problem: ["session", path]),
    "shard run": ("repro-shard-manifest",
                  lambda path, problem: ["shard", "run", path,
                                         "--artifact", path + ".out"]),
    "shard merge": ("repro-shard-artifact",
                    lambda path, problem: ["shard", "merge", path]),
}


class TestMalformedInput:
    """A bad input file is an ``error:`` line and exit 1, never a
    traceback."""

    @pytest.mark.parametrize("verb, content", [
        (verb, content) for verb in sorted(READERS)
        for content in ("missing", "{not json", "[1, 2]",
                        "string-version")
        # A missing --store path is where sweep starts a new store.
        if (verb, content) != ("sweep --store", "missing")])
    def test_bad_file_is_an_error_line(self, verb, content,
                                       problem_json, tmp_path, capsys):
        fmt, argv = READERS[verb]
        path = tmp_path / "input.json"
        if content == "string-version":
            content = json.dumps({"format": fmt, "version": "1"})
        if content != "missing":
            path.write_text(content)
        assert main(argv(str(path), problem_json)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("section", [
        {"run": {"elapsed_s": "x"}},
        {"jobs": [{"position": "x", "key": "k", "elapsed_s": "z"}]},
        {"metrics": {"a": 1}}, {"spans": [1]}],
        ids=["run", "job", "metric", "span"])
    def test_mistyped_trace_field_is_an_error_line(self, section,
                                                   tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"format": "repro-trace",
                                    "version": 2, **section}))
        for verb in (["summarize"], ["export", "--format", "chrome"],
                     ["export", "--format", "prom"],
                     ["export", "--format", "jsonl"]):
            assert main(["trace", verb[0], str(path), *verb[1:]]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(path) in err, verb

    def test_bad_number_flag_is_an_error_line(self, problem_json,
                                              tmp_path, capsys):
        assert main(["sweep", problem_json, "--budgets", "8,x"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --budgets must be comma-separated numbers")
        assert main(["shard", "plan", problem_json, "--budgets", "",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --budgets needs at least one number")

    @pytest.mark.parametrize("flag, name", [
        ("--max-batch", "max_batch"), ("--queue-limit", "queue_limit")])
    def test_out_of_range_serve_flag_is_an_error_line(self, flag, name,
                                                      capsys):
        # Refused before a socket is bound, so this cannot start a
        # server.
        assert main(["serve", "--port", "0", flag, "0"]) == 1
        assert capsys.readouterr().err == \
            f"error: {name} must be >= 1, got 0\n"


class TestExample:
    def test_example_walks_three_figures(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        for fig in ("Fig. 2", "Fig. 5", "Fig. 7"):
            assert fig in out


class TestRover:
    def test_single_case_table(self, capsys):
        assert main(["rover", "--case", "typical"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "typical" in out
        assert "power-aware" in out


class TestDiagnose:
    @pytest.fixture
    def bad_problem(self, tmp_path) -> str:
        path = tmp_path / "bad.txt"
        path.write_text(
            "problem bad pmax 10\n"
            "task a R 5 4.0\n"
            "task b S 5 4.0\n"
            "min a b 10\n"
            "max a b 6\n")
        return str(path)

    def test_contradiction_explained(self, bad_problem, capsys):
        assert main(["diagnose", bad_problem]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "sigma(b) >= sigma(a) + 10" in out

    def test_consistent_problem_reports_ok(self, problem_dsl, capsys):
        assert main(["diagnose", problem_dsl]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_power_warning_surfaces(self, tmp_path, capsys):
        path = tmp_path / "hot.txt"
        path.write_text("problem hot pmax 5\ntask a R 5 9.0\n")
        assert main(["diagnose", str(path)]) == 1
        assert "power warning" in capsys.readouterr().out


class TestSweep:
    def test_default_budget_grid(self, problem_dsl, capsys):
        assert main(["sweep", problem_dsl]) == 0
        out = capsys.readouterr().out
        assert "P_max sweep" in out
        assert "knee" in out

    def test_explicit_budgets(self, problem_dsl, capsys):
        assert main(["sweep", problem_dsl, "--budgets", "5,9,20"]) == 0
        out = capsys.readouterr().out
        assert "20" in out

    def test_levels_run_the_full_grid(self, problem_dsl, capsys):
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--levels", "4,6"]) == 0
        out = capsys.readouterr().out
        assert "(P_max, P_min) grid sweep" in out
        assert "engine: 4 points" in out

    def test_trace_written_with_schema(self, problem_dsl, tmp_path,
                                       capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--levels", "4,6", "--trace", trace]) == 0
        assert trace in capsys.readouterr().out
        doc = json.loads(open(trace).read())
        assert doc["format"] == "repro-trace"
        assert doc["run"]["jobs"] == 4
        assert {"hits", "misses"} <= set(doc["cache"])
        assert {"timing", "max_power", "min_power"} <= \
            set(doc["stage_seconds"])

    def test_parallel_flag_matches_serial_output(self, problem_dsl,
                                                 capsys):
        assert main(["sweep", problem_dsl, "--budgets", "8,10"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--parallel", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical sweep tables; only the engine summary line differs
        strip = lambda s: [ln for ln in s.splitlines()
                           if not ln.startswith("engine:")]
        assert strip(parallel) == strip(serial)

    def test_trace_creates_parent_dirs(self, problem_dsl, tmp_path):
        trace = str(tmp_path / "deep" / "nested" / "trace.json")
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--trace", trace]) == 0
        assert json.loads(open(trace).read())["format"] == "repro-trace"

    def test_trace_refuses_overwrite_without_force(self, problem_dsl,
                                                   tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--trace", trace]) == 1
        err = capsys.readouterr().err
        assert "already exists" in err and "--force" in err

    def test_trace_force_overwrites(self, problem_dsl, tmp_path,
                                    capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--trace", trace]) == 0
        assert main(["sweep", problem_dsl, "--budgets", "8",
                     "--trace", trace, "--force"]) == 0
        doc = json.loads(open(trace).read())
        assert doc["run"]["jobs"] == 1

    def test_instrument_flag_embeds_spans(self, problem_dsl, tmp_path):
        trace = str(tmp_path / "trace.json")
        assert main(["sweep", problem_dsl, "--budgets", "8,10",
                     "--instrument", "--trace", trace]) == 0
        doc = json.loads(open(trace).read())
        assert doc["version"] == 2
        assert doc["run"]["instrumented"] is True
        [root] = doc["spans"]
        assert root["name"] == "engine.run"
        assert doc["metrics"]["engine.run.jobs"]["value"] == 2


@pytest.fixture
def instrumented_trace(problem_dsl, tmp_path) -> str:
    path = str(tmp_path / "run_trace.json")
    assert main(["sweep", problem_dsl, "--budgets", "8,10",
                 "--levels", "4,6", "--instrument",
                 "--trace", path]) == 0
    return path


class TestTraceVerbs:
    def test_summarize(self, instrumented_trace, capsys):
        capsys.readouterr()
        assert main(["trace", "summarize", instrumented_trace]) == 0
        out = capsys.readouterr().out
        assert "repro-trace v2" in out
        assert "slowest jobs" in out
        assert "hit rate" in out
        assert "histograms" in out

    def test_summarize_missing_file_is_clean_error(self, tmp_path,
                                                   capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["trace", "summarize", missing]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_chrome(self, instrumented_trace, tmp_path, capsys):
        out_path = str(tmp_path / "sub" / "chrome.json")
        assert main(["trace", "export", instrumented_trace,
                     "--format", "chrome", "--out", out_path]) == 0
        doc = json.loads(open(out_path).read())
        events = doc["traceEvents"]
        assert events and all(e["ph"] in ("X", "i") for e in events)
        assert any(e["name"] == "engine.run" for e in events)

    def test_export_prom_to_stdout(self, instrumented_trace, capsys):
        capsys.readouterr()
        assert main(["trace", "export", instrumented_trace,
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_run_jobs counter" in out
        assert "repro_engine_run_jobs 4" in out

    def test_export_jsonl(self, instrumented_trace, capsys):
        capsys.readouterr()
        assert main(["trace", "export", instrumented_trace,
                     "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert {"span", "counter", "histogram"} <= \
            {r["type"] for r in records}
