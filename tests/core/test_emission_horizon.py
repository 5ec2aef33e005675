"""The maintained emission horizon equals its from-scratch definition.

``run_pass`` keeps the lock-step emission bound as a stored value and
refreshes it only when a PE is stepped, programmed or restored from a
checkpoint.  These tests wrap every PNG read of the bound and recompute
it from scratch — ``min(op_counter of not-done PEs) + emission_window``,
or infinity once every PE is done — on FC, conv and pool passes, an FC pass
resumed mid-run from a checkpoint, and a fault-injected FC pass whose PE
watchdogs force-fire, under both the lock-step and skip-ahead engines.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, compile_inference
from repro.core.config import SIM_WORKERS_ENV
from repro.core.simulator import _EmissionHorizon
from repro.faults import CheckpointSpec
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.nn.layers import MaxPool2D
from repro.nn.network import Network
from tests.faults.test_simulator_faults import LOSSY


@pytest.fixture(params=[True, False], ids=["skip_ahead", "lock_step"])
def engine_config(request, config, monkeypatch):
    monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
    return config.with_(sim_skip_ahead=request.param, sim_workers=1)


@pytest.fixture
def horizon_reads(monkeypatch):
    """Every horizon read, each checked against a from-scratch rebuild."""
    reads = []

    def checked_read(self):
        active = [pe.op_counter for pe in self.pes if not pe.done]
        expected = min(active) + self.window if active else math.inf
        assert self.value == expected, (
            f"stale horizon {self.value}, expected {expected}")
        reads.append(expected)
        return self.value

    monkeypatch.setattr(_EmissionHorizon, "__call__", checked_read)
    return reads


def run_layer(config, net, x, **kwargs):
    desc = compile_inference(net, config, False).descriptors[0]
    quantised = quantize_float(np.asarray(x, dtype=np.float64),
                               config.qformat)
    return NeurocubeSimulator(config, **kwargs).run_descriptor(
        desc, net.layers[0], quantised)


CASES = {
    "fc": lambda: (models.fully_connected_classifier(48, 24, seed=4),
                   np.random.default_rng(1).standard_normal(48)),
    "conv": lambda: (models.single_conv_layer(12, 12, 3, out_maps=3,
                                              seed=22),
                     np.random.default_rng(2).standard_normal((1, 12, 12))),
    "pool": lambda: (Network([MaxPool2D(2, name="pool")],
                             input_shape=(3, 8, 8), name="pool_only"),
                     np.random.default_rng(3).standard_normal((3, 8, 8))),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_horizon_exact_on_every_read(engine_config, horizon_reads, kind):
    net, x = CASES[kind]()
    run_layer(engine_config, net, x)
    assert horizon_reads


def test_horizon_exact_under_watchdog_force_fire(engine_config,
                                                 horizon_reads):
    """FC traffic without weight duplication crosses mesh links; with
    retry budget 0 lost operands make PE watchdogs force-fire while
    the PNGs are still emitting."""
    net, x = CASES["fc"]()
    run = run_layer(engine_config, net, x, faults=LOSSY)
    assert run.fault_stats.watchdog_fires > 0
    assert len(set(horizon_reads)) > 10


def test_horizon_exact_after_checkpoint_resume(engine_config,
                                               horizon_reads, tmp_path):
    """Resume at cycle 500, while the horizon is still moving: the
    restored PEs are past their first operations, so a horizon left
    at its freshly programmed value would be stale."""
    net, x = CASES["fc"]()
    uninterrupted = run_layer(engine_config, net, x, faults=LOSSY)
    run_layer(engine_config, net, x, faults=LOSSY,
              checkpoint=CheckpointSpec(directory=str(tmp_path),
                                        every=100))
    for path in pathlib.Path(tmp_path).glob("*.pkl"):
        if int(path.name.split("@")[1].split(".")[0]) > 500:
            path.unlink()
    horizon_reads.clear()
    resumed = run_layer(engine_config, net, x, faults=LOSSY,
                        checkpoint=CheckpointSpec(directory=str(tmp_path),
                                                  resume=True))
    assert resumed.cycles == uninterrupted.cycles
    assert len(set(horizon_reads)) > 10
