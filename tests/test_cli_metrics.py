"""The `repro metrics` subcommand: sources, formats, error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.exec.journal import Journal
from repro.obs import MetricsRegistry, write_jsonl


@pytest.fixture
def metrics_file(tmp_path):
    registry = MetricsRegistry()
    registry.counter("service_requests_total", outcome="hit").inc(9)
    registry.counter("service_requests_total", outcome="miss").inc(4)
    registry.histogram("latency_seconds", "", (0.1, 1.0)).observe(0.05)
    return write_jsonl(registry, tmp_path / "metrics.jsonl")


@pytest.fixture
def journalled_run(tmp_path):
    registry = MetricsRegistry()
    registry.counter("sweep_cells_total", path="fast").inc(2)
    with Journal.create(run_id="r-obs", root=tmp_path) as journal:
        journal.record_metrics(registry.snapshot())
    return "r-obs", tmp_path


class TestSources:
    def test_table_from_file(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "service_requests_total" in out
        assert "outcome=hit" in out
        assert "latency_seconds" in out

    def test_table_from_run_journal(self, journalled_run, capsys):
        run_id, root = journalled_run
        code = main(["metrics", "--run", run_id, "--runs-dir", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep_cells_total" in out
        assert run_id in out


class TestFormats:
    def test_prometheus_output(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file),
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert '# TYPE service_requests_total counter' in out
        assert 'service_requests_total{outcome="hit"} 9' in out
        assert 'latency_seconds_bucket{le="+Inf"} 1' in out

    def test_jsonl_output_round_trips(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file),
                     "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines() if line]
        hits = next(r for r in rows
                    if r["type"] == "counter"
                    and r["labels"] == {"outcome": "hit"})
        assert hits["value"] == 9


class TestErrorPaths:
    def test_neither_source_nor_run_is_usage_error(self, capsys):
        assert main(["metrics"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_both_source_and_run_is_usage_error(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file), "--run", "r1"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_run_is_usage_error(self, tmp_path, capsys):
        code = main(["metrics", "--run", "ghost",
                     "--runs-dir", str(tmp_path)])
        assert code == 2

    def test_run_without_metrics_line_is_runtime_error(self, tmp_path,
                                                       capsys):
        with Journal.create(run_id="bare", root=tmp_path) as journal:
            journal.record_result(("t",), {"misses": 1})
        code = main(["metrics", "--run", "bare",
                     "--runs-dir", str(tmp_path)])
        assert code == 1
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_empty_file_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["metrics", str(empty)]) == 1
        assert "no metric rows" in capsys.readouterr().err


class TestFilters:
    def test_select_filters_by_name_glob(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file),
                     "--select", "service_*"]) == 0
        out = capsys.readouterr().out
        assert "service_requests_total" in out
        assert "latency_seconds" not in out

    def test_labels_filter_rows(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file), "--format", "jsonl",
                     "--labels", "outcome=hit"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines() if line]
        assert len(rows) == 1
        assert rows[0]["labels"] == {"outcome": "hit"}

    def test_filters_compose(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file), "--select", "latency_*",
                     "--labels", "outcome=hit"]) == 1
        assert "no metric rows" in capsys.readouterr().err

    def test_malformed_label_pair_is_usage_error(self, metrics_file, capsys):
        assert main(["metrics", str(metrics_file),
                     "--labels", "outcome"]) == 2
        assert "k=v" in capsys.readouterr().err

    def test_select_with_no_match_is_runtime_error(self, metrics_file,
                                                   capsys):
        assert main(["metrics", str(metrics_file),
                     "--select", "nope_*"]) == 1


class TestLabelGlobs:
    @pytest.fixture
    def sharded_file(self, tmp_path):
        registry = MetricsRegistry()
        for shard in ("s0", "s1", "s10"):
            registry.counter("service_requests_total", shard=shard,
                             outcome="hit").inc(1)
        registry.counter("cluster_requests_total", outcome="hit").inc(3)
        return write_jsonl(registry, tmp_path / "sharded.jsonl")

    def rows(self, capsys):
        return [json.loads(line)
                for line in capsys.readouterr().out.splitlines() if line]

    def test_star_glob_selects_all_shard_rows(self, sharded_file, capsys):
        assert main(["metrics", str(sharded_file), "--format", "jsonl",
                     "--labels", "shard=*"]) == 0
        rows = self.rows(capsys)
        assert {r["labels"]["shard"] for r in rows} == {"s0", "s1", "s10"}

    def test_glob_excludes_rows_without_the_label(self, sharded_file,
                                                  capsys):
        """`shard=*` must not match the unlabelled cluster row."""
        assert main(["metrics", str(sharded_file), "--format", "jsonl",
                     "--labels", "shard=*"]) == 0
        assert all("shard" in r["labels"] for r in self.rows(capsys))

    def test_partial_glob(self, sharded_file, capsys):
        assert main(["metrics", str(sharded_file), "--format", "jsonl",
                     "--labels", "shard=s1*"]) == 0
        rows = self.rows(capsys)
        assert {r["labels"]["shard"] for r in rows} == {"s1", "s10"}

    def test_exact_value_still_works(self, sharded_file, capsys):
        assert main(["metrics", str(sharded_file), "--format", "jsonl",
                     "--labels", "shard=s1"]) == 0
        rows = self.rows(capsys)
        assert len(rows) == 1
        assert rows[0]["labels"]["shard"] == "s1"


class TestLatestSnapshotWins:
    def test_journal_with_many_snapshots_renders_last(self, tmp_path,
                                                      capsys):
        """A resumed run journals one snapshot per session; the CLI
        must render the newest, deterministically."""
        with Journal.create(run_id="resumed", root=tmp_path) as journal:
            for value in (1, 5, 9):
                registry = MetricsRegistry()
                registry.counter("sweep_cells_total").inc(value)
                journal.record_metrics(registry.snapshot())
        assert main(["metrics", "--run", "resumed", "--format", "jsonl",
                     "--runs-dir", str(tmp_path)]) == 0
        [row] = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert row["value"] == 9


class TestClosedPipe:
    def test_reader_closing_the_pipe_exits_quietly(self, tmp_path):
        registry = MetricsRegistry()
        for index in range(5000):
            registry.counter("shard_requests_total",
                             shard=str(index)).inc(index)
        path = write_jsonl(registry, tmp_path / "big.jsonl")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "metrics", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()       # what `| head -1` does after one line
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""
