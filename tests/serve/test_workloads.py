"""What a served job computes, pinned against the simulator's own
whole-network entry points on the same frame and the same program."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import NeurocubeSimulator
from repro.core.compiler import compile_inference
from repro.errors import MappingError
from repro.serve import JobSpec
from repro.serve.workloads import (
    _digest,
    execute_job,
    job_frames,
    serve_config,
    serve_network,
)

SEED = 5


@pytest.fixture(scope="module")
def served():
    """(config, network, pickled program) exactly as the service ships."""
    config = serve_config()
    network = serve_network(config)
    program = compile_inference(network, config)
    return config, network, program


def test_inference_job_matches_run_network(served):
    config, network, program = served
    spec = JobSpec(workload="inference", seed=SEED)
    result = execute_job(spec, "pin", {},
                         program_bytes=pickle.dumps(program))
    output, report = NeurocubeSimulator(config).run_network(
        network, job_frames(SEED, 1)[0])
    assert result["output_digest"] == _digest(output)
    assert result["cycles"] == report.total_cycles


def test_streaming_job_matches_run_stream_cold_total(served):
    config, network, program = served
    spec = JobSpec(workload="streaming", seed=SEED, frames=2)
    result = execute_job(spec, "pin", {},
                         program_bytes=pickle.dumps(program))
    stream = NeurocubeSimulator(config).run_stream(
        network, job_frames(SEED, spec.frames))
    assert result["cycles"] == stream.cold.total_cycles
    assert result["output_digest"] == _digest(*stream.outputs)


def test_missing_descriptor_is_a_mapping_error(served):
    _, _, program = served
    truncated = dataclasses.replace(program,
                                    descriptors=program.descriptors[:1])
    with pytest.raises(MappingError, match="missing from program"):
        execute_job(JobSpec(workload="inference", seed=SEED), "pin", {},
                    program_bytes=pickle.dumps(truncated))
