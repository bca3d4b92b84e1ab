"""Tests of the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, _parse_capacity_range, main
from repro.taskgraph import serialization
from repro.taskgraph.generators import producer_consumer_configuration


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    serialization.save_configuration(producer_consumer_configuration(max_capacity=5), path)
    return str(path)


@pytest.fixture
def infeasible_config_path(tmp_path):
    path = tmp_path / "infeasible.json"
    serialization.save_configuration(
        producer_consumer_configuration(period=2.0, max_capacity=1), path
    )
    return str(path)


class TestAllocateCommand:
    def test_prints_mapping(self, config_path, capsys):
        assert main(["allocate", config_path]) == EXIT_OK
        output = capsys.readouterr().out
        assert "wa" in output and "bab" in output

    def test_writes_output_file(self, config_path, tmp_path, capsys):
        out_file = tmp_path / "mapped.json"
        assert main(["allocate", config_path, "--output", str(out_file)]) == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["budgets"]["wa"] == pytest.approx(18.0, abs=1.0)
        assert payload["buffer_capacities"]["bab"] <= 5
        assert payload["configuration"]["name"] == "producer-consumer"

    def test_infeasible_configuration_exit_code(self, infeasible_config_path, capsys):
        assert main(["allocate", infeasible_config_path]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["allocate", "/nonexistent/config.json"]) == EXIT_USAGE

    def test_backend_and_weights_flags(self, config_path, capsys):
        assert (
            main(
                [
                    "allocate",
                    config_path,
                    "--backend",
                    "barrier",
                    "--weights",
                    "prefer-buffers",
                ]
            )
            == EXIT_OK
        )


_ALLOCATE_IMPORTS = """
import sys
from repro.cli import main

assert main(["allocate", sys.argv[1], "--stats"]) == 0
loaded = sorted(
    name for name in sys.modules
    if name.startswith(("repro.batch", "repro.experiments"))
    or name == "repro.core.admission"
)
print("loaded:", ",".join(loaded))
"""


def test_allocate_loads_no_batch_admission_or_experiment_module(config_path):
    """A single allocation imports the leaf modules it needs only: the batch
    engine, admission control and the experiment drivers stay unloaded."""
    environment = dict(os.environ)
    source = str(Path(__file__).resolve().parents[1] / "src")
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _ALLOCATE_IMPORTS, config_path],
        capture_output=True,
        text=True,
        env=environment,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "loaded: "


class TestAllocateStatsFlag:
    def test_stats_block_is_printed(self, config_path, capsys):
        assert main(["allocate", config_path, "--stats"]) == EXIT_OK
        output = capsys.readouterr().out
        assert "solver statistics:" in output
        assert "Newton iterations:" in output
        assert re.search(r"solves:\s+1", output)

    def test_stats_off_by_default(self, config_path, capsys):
        assert main(["allocate", config_path]) == EXIT_OK
        assert "solver statistics:" not in capsys.readouterr().out


@pytest.fixture
def workload_path(tmp_path):
    from repro.taskgraph.generators import chain_configuration
    from repro.taskgraph.workload import Workload, save_workload

    video = chain_configuration(stages=2)
    workload = Workload(video.platform, name="duo")
    workload.add_application("video", video)
    workload.add_application("audio", chain_configuration(stages=2, period=20.0))
    path = tmp_path / "workload.json"
    save_workload(workload, path)
    return str(path)


class TestAllocateWorkloadCommand:
    def test_prints_per_application_mapping_and_split(self, workload_path, capsys):
        assert main(["allocate-workload", workload_path]) == EXIT_OK
        output = capsys.readouterr().out
        assert "video" in output and "audio" in output
        assert "budget split per shared processor:" in output
        assert "utilisation" in output

    def test_writes_output_file(self, workload_path, tmp_path, capsys):
        out_file = tmp_path / "mapped.json"
        assert (
            main(["allocate-workload", workload_path, "--output", str(out_file)])
            == EXIT_OK
        )
        payload = json.loads(out_file.read_text())
        assert set(payload["applications"]) == {"video", "audio"}
        assert payload["workload"]["name"] == "duo"
        assert "budget_split" in payload

    def test_stats_flag(self, workload_path, capsys):
        assert main(["allocate-workload", workload_path, "--stats"]) == EXIT_OK
        assert "solver statistics:" in capsys.readouterr().out

    def test_stats_time_split_names_the_assembly(self, workload_path, capsys):
        assert main(["allocate-workload", workload_path, "--stats"]) == EXIT_OK
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "sparse time split:" in line
        ]
        assert "s assembly, " in line and "s factorization, " in line
        assert "s Schur" in line

    @pytest.mark.parametrize("flag", [["--mode", "joint"], ["--workers", "2"]])
    def test_solve_mode_flags_are_gone(self, workload_path, flag, capsys):
        # One solve path: the joint block-structured barrier.
        assert main(["allocate-workload", workload_path, *flag]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_infeasible_workload_exit_code(self, tmp_path, capsys):
        from repro.taskgraph.generators import chain_configuration
        from repro.taskgraph.workload import Workload, save_workload

        base = chain_configuration(stages=2, period=3.0)
        workload = Workload(base.platform, name="crowded")
        workload.add_application("a", base)
        workload.add_application("b", chain_configuration(stages=2, period=3.0))
        workload.add_application("c", chain_configuration(stages=2, period=3.0))
        path = tmp_path / "crowded.json"
        save_workload(workload, path)
        assert main(["allocate-workload", str(path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["allocate-workload", "/nonexistent/workload.json"]) == EXIT_USAGE


class TestValidateCommand:
    def test_valid_configuration(self, config_path, capsys):
        assert main(["validate", config_path]) == EXIT_OK
        assert "feasibility screen" in capsys.readouterr().out

    def test_screen_rejects_overload(self, tmp_path, capsys):
        config = producer_consumer_configuration(memory_capacity=1.5)
        path = tmp_path / "tight.json"
        serialization.save_configuration(config, path)
        assert main(["validate", str(path)]) == EXIT_INFEASIBLE
        assert "violation" in capsys.readouterr().err


class TestMalformedDocuments:
    """A malformed input document is one ``error:`` line and a non-zero exit,
    never an exception escaping ``main`` (a traceback on the command line)."""

    @staticmethod
    def run_on(tmp_path, capsys, text, command=("allocate",), extra=()):
        path = tmp_path / "document.json"
        path.write_text(text, encoding="utf-8")
        code = main([*command, str(path), *extra])
        err = capsys.readouterr().err
        assert code != EXIT_OK
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    def test_truncated_configuration(self, tmp_path, capsys):
        line = self.run_on(tmp_path, capsys, '{"platform": ')
        assert "configuration is not valid JSON" in line

    def test_truncated_workload(self, tmp_path, capsys, config_path):
        line = self.run_on(tmp_path, capsys, '{"platform": ', ("admit",), (config_path,))
        assert "workload is not valid JSON" in line

    def test_truncated_trace(self, tmp_path, capsys):
        line = self.run_on(tmp_path, capsys, '{"events": [', ("admit", "--trace"))
        assert "trace is not valid JSON" in line

    def test_number_at_top_level(self, tmp_path, capsys):
        assert "configuration must be an object" in self.run_on(tmp_path, capsys, "42")

    def test_list_at_top_level(self, tmp_path, capsys):
        assert "configuration must be an object" in self.run_on(tmp_path, capsys, "[1, 2]")

    def test_empty_object(self, tmp_path, capsys):
        assert "'platform'" in self.run_on(tmp_path, capsys, "{}")

    def test_platform_not_an_object(self, tmp_path, capsys):
        line = self.run_on(tmp_path, capsys, '{"platform": 5}')
        assert "platform must be an object" in line

    def test_task_graphs_not_a_list(self, tmp_path, capsys):
        line = self.run_on(tmp_path, capsys, '{"platform": {}, "task_graphs": 3}')
        assert "task_graphs must be a list" in line


class TestSweepCommand:
    def test_range_syntax(self, config_path, capsys):
        assert main(["sweep", config_path, "--capacities", "2:4"]) == EXIT_OK
        output = capsys.readouterr().out
        assert "capacity_limit" in output
        assert output.count("\n") >= 5

    def test_list_syntax(self, config_path, capsys):
        assert main(["sweep", config_path, "--capacities", "3,5"]) == EXIT_OK

    def test_single_value(self, config_path, capsys):
        assert main(["sweep", config_path, "--capacities", "4"]) == EXIT_OK

    def test_empty_range_is_usage_error(self, config_path):
        assert main(["sweep", config_path, "--capacities", ""]) == EXIT_USAGE

    def test_all_points_infeasible(self, infeasible_config_path):
        assert (
            main(["sweep", infeasible_config_path, "--capacities", "1,1"])
            == EXIT_INFEASIBLE
        )


class TestCapacityRangeHardening:
    """Malformed --capacities input must be a clean usage error, not a traceback."""

    @pytest.mark.parametrize(
        "text",
        [
            "10:1",      # reversed range
            "1,,3",      # empty segment
            ",2",        # leading empty segment
            "a:b",       # non-integer bounds
            "1:ten",     # non-integer high bound
            "1,two,3",   # non-integer list entry
            "0:3",       # non-positive capacity
            "-2,4",      # negative capacity
            ":",         # empty bounds
        ],
    )
    def test_malformed_input_is_usage_error(self, config_path, text, capsys):
        # --capacities=... keeps values starting with '-' out of argparse's
        # flag detection, so every case exercises the range parser itself
        assert main(["sweep", config_path, f"--capacities={text}"]) == EXIT_USAGE
        assert "malformed capacity range" in capsys.readouterr().err

    def test_parse_accepts_whitespace(self):
        assert _parse_capacity_range(" 2:4 ") == [2, 3, 4]
        assert _parse_capacity_range("2 : 4") == [2, 3, 4]
        assert _parse_capacity_range("2, 4 ,8") == [2, 4, 8]


@pytest.fixture
def campaign_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-test",
                "seed": 3,
                "entries": [
                    {"generator": "chain", "sweep": {"stages": [2, 3]}},
                    {"generator": "producer_consumer", "capacity_sweep": "2:3"},
                ],
            }
        )
    )
    return str(path)


class TestBatchCommand:
    def test_runs_campaign_and_prints_summary(self, campaign_path, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", campaign_path, "--cache-dir", cache_dir]) == EXIT_OK
        output = capsys.readouterr().out
        assert "campaign 'cli-test': 4 instances" in output
        assert "feasibility_rate" in output
        assert "allocations_per_second" in output

    def test_warm_cache_solves_nothing(self, campaign_path, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", campaign_path, "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        assert main(["batch", campaign_path, "--cache-dir", cache_dir]) == EXIT_OK
        output = capsys.readouterr().out
        assert re.search(r"cache_hits\s+4\b", output)
        assert re.search(r"solved\s+0\b", output)

    def test_no_cache_flag(self, campaign_path, capsys):
        assert main(["batch", campaign_path, "--no-cache"]) == EXIT_OK
        output = capsys.readouterr().out
        assert "cache disabled" in output
        assert re.search(r"cache_hits\s+0\b", output)

    def test_per_item_table(self, campaign_path, capsys):
        assert main(["batch", campaign_path, "--no-cache", "--per-item"]) == EXIT_OK
        output = capsys.readouterr().out
        assert "0:chain[stages=2]" in output
        assert "1:producer_consumer@cap2" in output

    def test_output_file(self, campaign_path, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert (
            main(["batch", campaign_path, "--no-cache", "--output", str(out_file)])
            == EXIT_OK
        )
        payload = json.loads(out_file.read_text())
        assert payload["campaign"]["name"] == "cli-test"
        assert payload["summary"]["total"] == 4
        assert len(payload["results"]) == 4
        assert all(result["status"] == "ok" for result in payload["results"])

    def test_all_infeasible_campaign_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "entries": [
                        {
                            "generator": "producer_consumer",
                            "params": {"period": 2.0, "max_capacity": 1},
                        }
                    ],
                }
            )
        )
        assert main(["batch", str(path), "--no-cache"]) == EXIT_INFEASIBLE

    def test_missing_campaign_file(self, capsys):
        assert main(["batch", "/nonexistent/campaign.json"]) == EXIT_USAGE

    def test_malformed_campaign_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", str(path)]) == EXIT_INFEASIBLE
        assert "error" in capsys.readouterr().err

    def test_parallel_workers_match_serial(self, campaign_path, tmp_path, capsys):
        out_serial = tmp_path / "serial.json"
        out_parallel = tmp_path / "parallel.json"
        assert (
            main(["batch", campaign_path, "--no-cache", "--output", str(out_serial)])
            == EXIT_OK
        )
        assert (
            main(
                [
                    "batch",
                    campaign_path,
                    "--no-cache",
                    "--workers",
                    "2",
                    "--output",
                    str(out_parallel),
                ]
            )
            == EXIT_OK
        )
        serial = json.loads(out_serial.read_text())
        parallel = json.loads(out_parallel.read_text())

        def deterministic(payload):
            for result in payload["results"]:
                result.pop("solve_seconds")
                result["stats"] = {
                    key: value
                    for key, value in result.get("stats", {}).items()
                    if key != "solve_time" and not key.endswith("_time")
                }
            for key in ("cache_hits", "solved", "elapsed_seconds", "throughput"):
                payload["summary"].pop(key)
            return payload["results"], payload["summary"]

        assert deterministic(serial) == deterministic(parallel)


class TestParser:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE
