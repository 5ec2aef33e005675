"""The three cycle-simulator workloads: fc_infer, conv_stream, shard2.

Each workload object is driven by ``run.py`` as ``setup(seed, tracer)``
then ``measure(seconds)`` then ``close()``.  Activations are
``ActivationLUT``-wrapped, which is what the simulated PNG applies, so
``Network.forward`` on the quantized input is a bit-exact reference.  Spans are recorded only
around calls into the package's public functions, from here; nothing
under ``src/`` is changed.  Why each workload exists and which
end-to-end metric each per-layer metric should move is in README.md.
"""

from __future__ import annotations

import sys
import time
import traceback
from statistics import median

import numpy as np

from common import (Outcome, load_pins, maybe_span, nominal_scale,
                    percentile, ratio, reference_kernel)
from repro import nn
from repro.core.analytic import AnalyticModel
from repro.core.compiler import compile_inference
from repro.core.config import NeurocubeConfig
from repro.core.multicube import MultiCubeConfig
from repro.core.shard import ShardedSimulator, shard_network
from repro.core.simulator import NeurocubeSimulator
from repro.fixedpoint import quantize_float
from repro.nn.activations import ActivationLUT, Identity, Sigmoid, Tanh

#: Compute-layer kinds the simulator runs.
KINDS = ("fc", "conv", "pool")

#: Simulated counts reported per kind and per frame.
SIM_COUNTS = ("cycles", "packets", "macs_fired", "pe_idle_cycles",
              "inject_stall_cycles", "search_stall_cycles")

#: Simulated statistics every run must reproduce exactly (pins.json).
PINNED = ("cycles", "packets", "macs_fired", "pe_busy_cycles",
          "pe_idle_cycles", "inject_stall_cycles", "search_stall_cycles")

#: Frame workloads run at least this many frames, however slow.
MIN_FRAMES = 3


class RecordingSimulator(NeurocubeSimulator):
    """The stock simulator, with each ``run_descriptor`` call timed from
    outside and its simulated statistics kept as one row.

    With ``probe`` set, each call is bracketed by host-speed probes and
    its row carries the ``scale`` to the nominal host.
    """

    def __init__(self, config, tracer=None, probe: bool = False) -> None:
        super().__init__(config)
        self.tracer = tracer
        self.probe = probe
        self.rows: list[dict] = []

    def run_descriptor(self, desc, layer=None, input_tensor=None):
        before = reference_kernel() if self.probe else 0.0
        with maybe_span(self.tracer, f"simulator.{desc.kind}"):
            started = time.perf_counter()
            run = super().run_descriptor(desc, layer, input_tensor)
            host_s = time.perf_counter() - started
        row = {"name": desc.name, "kind": desc.kind,
               "passes": desc.passes, "host_s": host_s,
               "scale": (nominal_scale(before, reference_kernel())
                         if self.probe else 1.0)}
        row.update({key: getattr(run, key) for key in PINNED})
        self.rows.append(row)
        return run


def _pinned(rows) -> list[dict]:
    return [{"name": row["name"], **{key: row[key] for key in PINNED
                                     if key in row}}
            for row in rows]


def simulator_layer_metrics(frames: list[list[dict]]) -> dict:
    """Per-kind host time, speed and simulated counts, per frame.

    ``frames`` holds one row list per frame.  Host times are medians
    over frames; simulated counts are those of the first frame (every
    frame's are pinned equal).
    """
    metrics = {}
    for kind in KINDS:
        totals = [{key: sum(row[key] for row in rows if row["kind"] == kind)
                   for key in SIM_COUNTS + ("host_s", "passes")}
                  for rows in frames]
        host_s = median(total["host_s"] for total in totals)
        first = totals[0]
        metrics[f"simulator.{kind}.host_s"] = host_s
        metrics[f"simulator.{kind}.cycles_per_s"] = ratio(first["cycles"],
                                                          host_s)
        metrics[f"simulator.{kind}.host_us_per_packet"] = ratio(
            host_s * 1e6, first["packets"])
        for key in SIM_COUNTS:
            metrics[f"simulator.{kind}.{key}"] = first[key]
        if kind == "conv":
            metrics["simulator.conv.host_s_per_pass"] = ratio(
                host_s, first["passes"])
    return metrics


def analytic_ratios(simulated: dict, modelled: dict) -> dict:
    """Cycle-simulated / analytic cycles per kind (0 where absent)."""
    return {f"analytic.cycle_ratio.{kind}":
            ratio(simulated.get(kind, 0), modelled.get(kind, 0))
            for kind in KINDS}


def _by_kind(pairs) -> dict:
    totals: dict[str, float] = {}
    for kind, cycles in pairs:
        totals[kind] = totals.get(kind, 0) + cycles
    return totals


def _program_ratios(workload, rows) -> dict:
    """Analytic cycle ratios of one frame's rows against the workload's
    compiled program."""
    with maybe_span(workload.tracer, "analytic.evaluate_program"):
        model = AnalyticModel(workload.config).evaluate_program(
            workload.program)
    return analytic_ratios(
        _by_kind((row["kind"], row["cycles"]) for row in rows),
        _by_kind((layer.kind, layer.cycles) for layer in model.layers))


def _frame_metrics(frames: list[dict], wall_key: str) -> dict:
    """End-to-end metrics of timed frames, from their ``wall_key``
    times (nominal-host ``wall`` or measured ``raw_wall``)."""
    walls = [frame[wall_key] for frame in frames]
    return {
        "sim_cycles_per_s": median(frame["cycles"] / frame[wall_key]
                                   for frame in frames),
        "frames_per_s": 1.0 / median(walls),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p90_ms": percentile(walls, 0.90) * 1e3,
        "goodput_per_s": sum(frame["ok"] for frame in frames) / sum(walls),
    }


class _FrameWorkload:
    """A workload that runs whole seeded frames and checks each one.

    Subclasses set ``network``, ``config``, ``rng``, ``pins`` and
    ``tracer`` in ``setup`` and implement ``_simulate(x)``, returning
    ``(output, simulated_cycles, pinned_stats, extra)``.
    """

    def measure(self, seconds: float) -> Outcome:
        self._begin()
        self.stats, self.failed = [], 0
        # The first frame is a warm-up, checked but not timed: it pays
        # lazy imports and first pool starts, once per process.
        self._frame(0)
        attempted = 1
        frames = []
        deadline = time.perf_counter() + seconds
        while attempted <= MIN_FRAMES or time.perf_counter() < deadline:
            frame = self._frame(attempted)
            attempted += 1
            if frame is not None:
                frames.append(frame)
        return self._outcome(frames, attempted)

    def _frame(self, index: int) -> dict | None:
        """Simulate and check one seeded frame; None if it raised."""
        tracer, network = self.tracer, self.network
        x = self.rng.uniform(-1.0, 1.0, network.input_shape)
        try:
            with maybe_span(tracer, "bench.frame", index):
                before = reference_kernel()
                started = time.perf_counter()
                output, cycles, pinned, extra = self._simulate(x)
                wall = time.perf_counter() - started
                scale = nominal_scale(before, reference_kernel())
                started = time.perf_counter()
                with maybe_span(tracer, "nn.forward"):
                    reference = network.forward(quantize_float(
                        x, self.config.qformat)[np.newaxis])[0]
                forward_s = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - a failed frame is counted
            _report_failure(f"{self.name} frame {index}")
            self.failed += 1
            return None
        if pinned not in self.stats:
            self.stats.append(pinned)
        ok = np.array_equal(output, reference) and pinned == self.pins
        self.failed += not ok
        return dict(extra, wall=wall * scale, raw_wall=wall, cycles=cycles,
                    forward_s=forward_s, ok=ok)

    def _outcome(self, frames: list[dict], attempted: int) -> Outcome:
        metrics = _frame_metrics(frames, "wall")
        outcome = Outcome(
            attempted, self.failed, metrics, stats=self.stats,
            host_ms_per_request=metrics["latency_p50_ms"],
            notes={"timed_frames": len(frames),
                   "raw_metrics": _frame_metrics(frames, "raw_wall")})
        if self.tracer is not None:
            outcome.layers = self._layers(frames)
            outcome.layers["nn.forward_ms_per_frame"] = median(
                frame["forward_s"] for frame in frames) * 1e3
        return outcome

    def close(self) -> None:
        pass


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class FcInfer(_FrameWorkload):
    """Functional cycle simulation of an MNIST-MLP-shaped network.

    The input is MNIST downsampled to 14x14 (196 -> 16 -> 10) so one
    frame takes about half a second at this commit; with one pass per FC
    layer and functional mode there is no dedup, pool or memo, so host
    time is the run_pass hot loop.
    """

    name = "fc_infer"

    def setup(self, seed: int, tracer) -> None:
        self.tracer = tracer
        self.config = NeurocubeConfig.hmc_15nm(sim_workers=1,
                                               sim_memo_dir=None)
        q = self.config.qformat
        self.network = nn.Network(
            [nn.Flatten(name="flatten"),
             nn.Dense(16, activation=ActivationLUT(Sigmoid()), name="hidden",
                      qformat=q),
             nn.Dense(10, activation=ActivationLUT(Identity()), name="output",
                      qformat=q)],
            input_shape=(1, 14, 14), name="mnist_mlp_14x14", seed=0)
        with maybe_span(tracer, "compiler.compile_inference"):
            self.program = compile_inference(self.network, self.config,
                                             validate=False)
        self.rng = np.random.default_rng(seed)
        self.pins = load_pins(self.name)["layers"]

    def _begin(self) -> None:
        self.simulator = RecordingSimulator(self.config, self.tracer)

    def _simulate(self, x):
        first_row = len(self.simulator.rows)
        with maybe_span(self.tracer, "simulator.run_network"):
            output, report = self.simulator.run_network(
                self.network, x, validate=False)
        rows = self.simulator.rows[first_row:]
        return output, report.total_cycles, _pinned(rows), {"rows": rows}

    def _layers(self, frames) -> dict:
        layers = simulator_layer_metrics([frame["rows"] for frame in frames])
        layers.update(_program_ratios(self, frames[0]["rows"]))
        return layers


class _TimedForward:
    """Stands in for ``Network.forward`` during ``run_stream``'s warm
    phase and times each call."""

    def __init__(self, forward, tracer) -> None:
        self.forward, self.tracer = forward, tracer
        self.latencies: list[float] = []

    def __call__(self, x, training=False):
        with maybe_span(self.tracer, "nn.forward"):
            started = time.perf_counter()
            y = self.forward(x, training)
            self.latencies.append(time.perf_counter() - started)
        return y


class ConvStream:
    """``run_stream`` over a Fig-9-shaped network at 46x46 RGB input.

    46x46 is the smallest input that survives three 7x7 convolutions
    and two 2x2 poolings.  Memoization is in-process only, so every
    run's cold phase is cold.  Warm frames are drawn, in seeded order,
    from a seeded pool, so each streamed output can be checked against
    the pool frame's reference without holding thousands of inputs.
    """

    name = "conv_stream"

    #: Warm frames streamed per second of ``--seconds``: the frame count
    #: is fixed by the run length, not by how fast the host is, so every
    #: run of every commit streams the same work.
    WARM_FRAMES_PER_SECOND = 150

    #: Distinct seeded frames the warm stream is drawn from.
    POOL = 64

    def setup(self, seed: int, tracer) -> None:
        self.tracer = tracer
        self.config = NeurocubeConfig.hmc_15nm(
            sim_workers=1, sim_memoize=True, sim_memo_dir=None)
        q = self.config.qformat
        self.network = nn.Network(
            [nn.Conv2D(4, 7, activation=ActivationLUT(Tanh()), name="conv1",
                       qformat=q),
             nn.MaxPool2D(2, name="pool1"),
             nn.Conv2D(8, 7, activation=ActivationLUT(Tanh()), name="conv2",
                       qformat=q),
             nn.MaxPool2D(2, name="pool2"),
             nn.Conv2D(8, 7, activation=ActivationLUT(Tanh()), name="conv3",
                       qformat=q),
             nn.Flatten(name="flatten"),
             nn.Dense(16, activation=ActivationLUT(Tanh()), name="fc1",
                      qformat=q),
             nn.Dense(8, activation=ActivationLUT(Identity()), name="fc2",
                      qformat=q)],
            input_shape=(3, 46, 46), name="scene_labeling_46x46", seed=0)
        with maybe_span(tracer, "compiler.compile_inference"):
            self.program = compile_inference(self.network, self.config,
                                             validate=False)
        self.rng = np.random.default_rng(seed)
        self.pins = load_pins(self.name)

    def measure(self, seconds: float) -> Outcome:
        tracer, network, q = self.tracer, self.network, self.config.qformat
        pool = [self.rng.uniform(-1.0, 1.0, network.input_shape)
                for _ in range(self.POOL)]
        with maybe_span(tracer, "bench.reference"):
            references = [network.forward(quantize_float(frame, q)
                                          [np.newaxis])[0]
                          for frame in pool]
        count = max(MIN_FRAMES, int(self.WARM_FRAMES_PER_SECOND * seconds))
        order = self.rng.integers(self.POOL, size=count)
        simulator = RecordingSimulator(self.config, tracer, probe=True)
        # run_stream calls network.forward once per warm frame; the
        # instance attribute times each call and leaves the class alone.
        warm = network.forward = _TimedForward(network.forward, tracer)
        try:
            with maybe_span(tracer, "simulator.run_stream"):
                report = simulator.run_stream(
                    network, [pool[index] for index in order])
        finally:
            del network.forward
        pinned = _pinned(simulator.rows)
        good = sum(np.array_equal(output, references[index])
                   for output, index in zip(report.outputs, order))
        if pinned != self.pins["layers"] or len(report.outputs) != count:
            good = 0
        # The cold phase is the pure-Python engine, so it is scaled to
        # the nominal host like fc_infer's frames.  The warm phase is
        # numpy-bound, which the pure-Python kernel does not track (it
        # added 0.2 spread to steady warm timings), so it stays raw.
        cold_s = sum(row["host_s"] * row["scale"] for row in simulator.rows)
        raw_cold_s = sum(row["host_s"] for row in simulator.rows)
        warm_s = report.warm_host_seconds
        outcome = Outcome(
            count, count - good,
            {"sim_cycles_per_s": report.cold.total_cycles / cold_s,
             "frames_per_s": count / warm_s,
             "latency_p50_ms": median(warm.latencies) * 1e3,
             "latency_p90_ms": percentile(warm.latencies, 0.90) * 1e3,
             "goodput_per_s": good / (cold_s + warm_s)},
            stats=[pinned],
            host_ms_per_request=1e3 * (cold_s + warm_s) / count,
            notes={"frames": count, "cold_host_s": raw_cold_s,
                   "warm_host_s": warm_s,
                   "raw_sim_cycles_per_s": (report.cold.total_cycles
                                            / raw_cold_s)})
        if tracer is not None:
            outcome.layers = simulator_layer_metrics([simulator.rows])
            outcome.layers["nn.forward_ms_per_frame"] = median(
                warm.latencies) * 1e3
            outcome.layers.update(_program_ratios(self, simulator.rows))
        return outcome

    def close(self) -> None:
        pass


class _DispatchRecordingSimulator(ShardedSimulator):
    """Sharded simulator that keeps each layer's per-cube outcomes.

    ``_dispatch`` is the one parent-side point where per-cube host time
    comes back (``ShardRunReport`` folds it away); only traced runs use
    this class, so untraced runs execute the stock class unchanged.
    """

    def __init__(self, config, workers: int, tracer) -> None:
        if not callable(getattr(ShardedSimulator, "_dispatch", None)):
            raise RuntimeError(
                "ShardedSimulator._dispatch is gone: the traced shard2 "
                "run cannot see per-cube host time")
        super().__init__(config, workers=workers)
        self.tracer = tracer
        self.dispatches: list[list] = []

    def _dispatch(self, state, jobs):
        with self.tracer.span("parallel.map") as index:
            outcomes = super()._dispatch(state, jobs)
        # The cubes simulate in pool workers, out of the tracer's sight;
        # the slowest cube's engine time is the part of the dispatch that
        # blocked on the simulator, so it is billed as a child span.
        start = self.tracer.spans[index]["start"]
        self.tracer.add(f"simulator.{outcomes[0].stats.kind}", start,
                        start + max(o.host_seconds for o in outcomes),
                        parent=index)
        self.dispatches.append(outcomes)
        return outcomes


class Shard2(_FrameWorkload):
    """Functional ``run_network`` sharded over two cubes (shard_network
    with NC301-NC306 validation, cube-link exchange, process pool).

    ``NeurocubeSimulator.run_network(cubes=2)`` is a thin wrapper over
    :class:`ShardedSimulator`; the benchmark calls the latter directly
    because only its report carries the exchange cycles it pins.
    """

    name = "shard2"
    CUBES = 2

    def setup(self, seed: int, tracer) -> None:
        self.tracer = tracer
        self.config = NeurocubeConfig.hmc_15nm(sim_workers=2,
                                               sim_memo_dir=None)
        self.cluster = MultiCubeConfig(cube=self.config,
                                       n_cubes=self.CUBES)
        q = self.config.qformat
        self.network = nn.Network(
            [nn.Conv2D(4, 3, activation=ActivationLUT(Tanh()), name="conv1",
                       qformat=q),
             nn.MaxPool2D(2, name="pool1"),
             nn.Flatten(name="flatten"),
             nn.Dense(10, activation=ActivationLUT(Identity()), name="fc1",
                      qformat=q)],
            input_shape=(2, 16, 16), name="shard_convnet_16x16", seed=0)
        with maybe_span(tracer, "compiler.compile_inference"):
            compile_inference(self.network, self.config, validate=False)
        with maybe_span(tracer, "shard.shard_network"):
            self.plan = shard_network(self.network, self.cluster,
                                      validate=True)
        self.rng = np.random.default_rng(seed)
        self.pins = load_pins(self.name)

    def _begin(self) -> None:
        if self.tracer is None:
            self.simulator = ShardedSimulator(self.cluster,
                                              workers=self.CUBES)
        else:
            self.simulator = _DispatchRecordingSimulator(
                self.cluster, self.CUBES, self.tracer)

    def _simulate(self, x):
        first = len(getattr(self.simulator, "dispatches", ()))
        with maybe_span(self.tracer, "shard.run_network"):
            output, report = self.simulator.run_network(
                self.network, x, validate=True)
        pinned = {"layers": _pinned(vars(layer)
                                    for layer in report.report.layers),
                  "exchange_cycles": [exchange.cycles
                                      for exchange in report.exchanges]}
        extra = {"comm": report.comm_cycles,
                 "dispatches": getattr(self.simulator, "dispatches",
                                       [])[first:]}
        return output, report.total_cycles, pinned, extra

    def _layers(self, frames) -> dict:
        """Per-layer metrics from the per-cube outcomes of each frame."""
        frame_rows, cube_max, imbalance, overhead = [], [], [], []
        for frame in frames:
            rows = []
            cube_s = [0.0] * self.CUBES
            slowest = 0.0
            for entry, outcomes in zip(self.plan.layers,
                                       frame["dispatches"], strict=True):
                for outcome in outcomes:
                    stats = outcome.stats
                    rows.append({
                        "kind": entry.kind, "host_s": outcome.host_seconds,
                        "passes": entry.descriptors[outcome.cube].passes,
                        "cycles": outcome.cycles, "packets": stats.packets,
                        # Cube outcomes carry LayerStats, which has no
                        # MAC count; shard2 pins pe_busy_cycles instead.
                        "macs_fired": 0,
                        "pe_idle_cycles": stats.pe_idle_cycles,
                        "inject_stall_cycles": stats.inject_stall_cycles,
                        "search_stall_cycles": stats.search_stall_cycles})
                    cube_s[outcome.cube] += outcome.host_seconds
                slowest += max(outcome.host_seconds for outcome in outcomes)
            frame_rows.append(rows)
            cube_max.append(max(cube_s))
            imbalance.append(max(cube_s) / (sum(cube_s) / len(cube_s)))
            overhead.append(frame["wall"] - slowest)
        layers = simulator_layer_metrics(frame_rows)
        model = AnalyticModel(self.config)
        with maybe_span(self.tracer, "analytic.evaluate_descriptor"):
            modelled = _by_kind(
                (entry.kind, model.evaluate_descriptor(desc).cycles)
                for entry in self.plan.layers for desc in entry.descriptors)
        layers.update(analytic_ratios(
            _by_kind((row["kind"], row["cycles"]) for row in frame_rows[0]),
            modelled))
        layers.update({
            "shard.exchange_cycles": frames[0]["comm"],
            "shard.cube_host_s_max": median(cube_max),
            "shard.cube_imbalance": median(imbalance),
            "shard.dispatch_overhead_s": median(overhead),
        })
        return layers
