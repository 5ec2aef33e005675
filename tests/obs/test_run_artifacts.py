"""End-to-end artifact sets of the two recording CLIs.

``neurocube-experiments run <id> --trace --heartbeat N --registry DIR``
and ``ncprof record --heartbeat N`` write the same artifact family: a
native trace, a v2 manifest whose ``phases`` block bills the trace
export, a heartbeat JSONL, an OpenMetrics snapshot, and (runner only) a
cross-run registry record.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import main as runner_main
from repro.obs import RunRegistry

TOOL = Path(__file__).resolve().parents[2] / "tools" / "ncprof.py"


def assert_artifact_set(out: Path, label: str) -> dict:
    """The shared file set; returns the parsed manifest."""
    trace = json.loads((out / f"trace_{label}.json").read_text())
    assert trace["kind"] == "neurocube-trace"
    manifest = json.loads((out / f"manifest_{label}.json").read_text())
    assert manifest["kind"] == "neurocube-manifest"
    assert "trace_export" in manifest["phases"]
    heartbeats = (out / f"heartbeats_{label}.jsonl").read_text()
    records = [json.loads(line) for line in heartbeats.splitlines()]
    assert records
    assert all(r["kind"] == "neurocube-heartbeat" for r in records)
    metrics = (out / f"metrics_{label}.txt").read_text()
    assert metrics.endswith("# EOF\n")
    return manifest


@pytest.fixture(scope="module")
def runner_artifacts(tmp_path_factory):
    """One traced, live, registered 2-cube ext_shard run."""
    out = tmp_path_factory.mktemp("runner_out")
    registry = tmp_path_factory.mktemp("runner_registry")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = runner_main([
            "run", "ext_shard", "--cubes", "2", "--trace",
            "--trace-dir", str(out), "--heartbeat", "200",
            "--registry", str(registry)])
    assert code == 0
    return out, registry, stderr.getvalue().splitlines()


class TestRunnerArtifacts:
    def test_file_set(self, runner_artifacts):
        out, _, _ = runner_artifacts
        manifest = assert_artifact_set(out, "ext_shard")
        assert manifest["totals"]["cycles"] > 0

    def test_one_registry_record(self, runner_artifacts):
        _, registry, _ = runner_artifacts
        records = RunRegistry(registry).records()
        assert len(records) == 1
        assert records[0]["label"] == "ext_shard"

    def test_stderr_lines(self, runner_artifacts):
        out, registry, lines = runner_artifacts
        trace_line = [line for line in lines
                      if line.startswith(f"[trace] wrote "
                                         f"{out / 'trace_ext_shard.json'}")]
        assert len(trace_line) == 1
        assert "cycles" in trace_line[0] and "runs)" in trace_line[0]
        assert (f"[trace] wrote {out / 'manifest_ext_shard.json'}"
                in lines)
        live = [line for line in lines if line.startswith("[live] ")]
        assert len(live) == 1
        assert live[0].startswith("[live] ext_shard: ")
        assert "heartbeat(s)" in live[0] and "trace_export=" in live[0]
        registered = [line for line in lines
                      if line.startswith("[registry] recorded ")]
        assert len(registered) == 1
        assert str(registry) in registered[0]


@pytest.fixture(scope="module")
def ncprof():
    spec = importlib.util.spec_from_file_location("ncprof", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["ncprof"] = module
    spec.loader.exec_module(module)
    return module


class TestNcprofArtifacts:
    def test_record_with_heartbeat(self, ncprof, tmp_path, capsys):
        code = ncprof.main(["record", "--out", str(tmp_path),
                            "--label", "hb", "--size", "12",
                            "--heartbeat", "100"])
        assert code == 0
        assert_artifact_set(tmp_path, "hb")
        lines = capsys.readouterr().out.splitlines()
        assert f"ncprof: wrote {tmp_path / 'trace_hb.json'}" in lines
        assert f"ncprof: wrote {tmp_path / 'manifest_hb.json'}" in lines
        metrics = [line for line in lines if line.startswith(
            f"ncprof: wrote {tmp_path / 'metrics_hb.txt'} (")]
        assert len(metrics) == 1 and "heartbeat(s))" in metrics[0]
        assert lines[0].startswith("ncprof: recorded ")
