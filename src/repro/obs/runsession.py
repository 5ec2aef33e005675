"""Ambient run sessions: one carrier for every run option.

A :class:`RunSession` is a context manager holding one frozen
:class:`RunOptions` — trace options, fault configuration, checkpoint
policy, persistent memo directory and live telemetry.  While one is
active, every :class:`repro.core.NeurocubeSimulator` descriptor run
picks up the options it was not given explicitly and registers one
:class:`CapturedRun` here, which :func:`record_run` also folds into the
resolved :class:`repro.obs.LiveTelemetry`.  The experiment runner's
``--trace``, ``--faults``, ``--checkpoint-every``/``--resume-from``,
``--memo-dir`` and ``--heartbeat`` flags, and ``tools/ncprof.py
record``, all work this way, so experiments need no option parameters
of their own.

:func:`resolve_options` is the one place options are resolved, field by
field: the explicit argument, then (memo only) ``config.sim_memo_dir``,
then the active sessions.  Simulators call it once at run entry and pass
the result on explicitly — pool workers and cube jobs never read a
session, so a parallel run behaves exactly like a serial one.

Sessions nest: a field an inner session leaves unset inherits from the
enclosing one, and every run is recorded in every active session.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.obs.tracer import Trace, TraceOptions

if TYPE_CHECKING:
    from repro.faults.checkpoint import CheckpointSpec
    from repro.faults.config import FaultConfig
    from repro.obs.live import LiveTelemetry

_ACTIVE: list["RunSession"] = []


@dataclass(frozen=True)
class RunOptions:
    """Every per-run option a simulator resolves; None means unset.

    Attributes:
        trace: trace every pass with these options.
        faults: inject deterministic faults with this configuration.
        checkpoint: snapshot (and/or resume) every pass.
        memo_dir: persistent memo store directory for timing passes.
        memo_max_bytes: size bound of that store; it belongs to
            ``memo_dir`` and is inherited only together with it.
        live: feed every run, its host phases and its heartbeats into
            this :class:`repro.obs.LiveTelemetry`.  Parent-process
            only: cube jobs and pool workers never receive it.
    """

    trace: TraceOptions | None = None
    faults: FaultConfig | None = None
    checkpoint: CheckpointSpec | None = None
    memo_dir: str | None = None
    memo_max_bytes: int | None = None
    live: LiveTelemetry | None = None

    def over(self, outer: RunOptions) -> RunOptions:
        """These options, with every unset field taken from ``outer``."""
        memo = self if self.memo_dir is not None else outer
        return RunOptions(
            trace=self.trace if self.trace is not None else outer.trace,
            faults=self.faults if self.faults is not None else outer.faults,
            checkpoint=(self.checkpoint if self.checkpoint is not None
                        else outer.checkpoint),
            memo_dir=memo.memo_dir, memo_max_bytes=memo.memo_max_bytes,
            live=self.live if self.live is not None else outer.live)

    def phase(self, name: str):
        """A context manager billing its span to phase ``name`` of
        :attr:`live`; a no-op without live telemetry."""
        return self.live.phase(name) if self.live is not None else (
            nullcontext())

    def timer(self, name: str) -> Callable | None:
        """A zero-arg :meth:`phase` factory, or None without live
        telemetry — the opaque ``timer=`` hook of the memo and
        checkpoint stores, which stay free of any observability
        import."""
        return (partial(self.live.phase, name) if self.live is not None
                else None)


def resolve_options(config, explicit: RunOptions = RunOptions()
                    ) -> RunOptions:
    """One run's options: ``explicit``, then the config's memo store
    (``config.sim_memo_dir``), then the innermost session's effective
    options."""
    configured = (RunOptions(memo_dir=config.sim_memo_dir,
                             memo_max_bytes=config.sim_memo_max_bytes)
                  if config.sim_memo_dir is not None else RunOptions())
    ambient = _ACTIVE[-1].effective if _ACTIVE else RunOptions()
    return explicit.over(configured).over(ambient)


@dataclass
class CapturedRun:
    """One descriptor run captured by a session.

    Attributes:
        label: the descriptor name.
        cycles: simulated cycles.
        host_seconds: wall-clock host time of the run.
        stats: the run's :class:`repro.core.metrics.LayerStats` row.
        descriptor: the compiled
            :class:`repro.core.layerdesc.LayerDescriptor` the run
            executed — lets post-run analysis (bottleneck attribution)
            re-evaluate the analytic model against the measured stats.
        trace: the run's merged trace (clock local to the run), or None
            when the run was not traced.
        fault_stats: the run's :class:`repro.faults.FaultStats`, or None
            when no injector was attached.
        degraded: the run's :class:`repro.faults.DegradedResult` records.
        memo_stats: the run's :class:`repro.memo.MemoStats` delta, or
            None when no persistent store served it.
        macs_fired: MAC operations the run executed.
    """

    label: str
    cycles: int
    host_seconds: float
    stats: object = None
    descriptor: object = None
    trace: Trace | None = None
    fault_stats: object = None
    degraded: tuple = ()
    memo_stats: object = None
    macs_fired: int = 0


def record_run(run: CapturedRun, config,
               live: LiveTelemetry | None = None) -> None:
    """Register one finished descriptor run: with every active session,
    and into ``live`` (the run's resolved telemetry) when one is set."""
    for session in _ACTIVE:
        session.runs.append(run)
        session.config = config
    if live is not None:
        stats = run.stats
        live.observe_layer(
            run.label, run.cycles, run.host_seconds, n_pe=config.n_pe,
            macs_fired=run.macs_fired,
            pe_busy_cycles=stats.pe_busy_cycles,
            search_stall_cycles=stats.search_stall_cycles,
            inject_stall_cycles=stats.inject_stall_cycles,
            packets=stats.packets, degraded=len(run.degraded),
            memo_stats=run.memo_stats)


class RunSession:
    """Makes :class:`RunOptions` ambient and collects descriptor runs.

    Keyword arguments are the :class:`RunOptions` fields.

    Attributes:
        options: the options this session sets (unset fields are None).
        effective: ``options`` over the enclosing session's, fixed on
            entry — what the runs in this block resolve against.
        runs: captured runs in execution order.
        config: the last simulator configuration seen (for manifests).
    """

    def __init__(self, **options) -> None:
        self.options = RunOptions(**options)
        self.effective = self.options
        self.runs: list[CapturedRun] = []
        self.config = None

    def __enter__(self) -> RunSession:
        if _ACTIVE:
            self.effective = self.options.over(_ACTIVE[-1].effective)
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.remove(self)

    @property
    def descriptors(self) -> list:
        """Captured descriptors, in run order (Nones filtered)."""
        return [run.descriptor for run in self.runs
                if run.descriptor is not None]

    def merged_trace(self) -> Trace | None:
        """Every traced run on one clock, laid end to end in run order;
        None when no run was traced."""
        parts = []
        offset = 0
        for run in self.runs:
            if run.trace is not None:
                parts.append((offset, run.trace))
                offset += run.cycles
        return Trace.merged(parts) if parts else None

    @property
    def total_cycles(self) -> int:
        return sum(run.cycles for run in self.runs)

    @property
    def total_host_seconds(self) -> float:
        return sum(run.host_seconds for run in self.runs)

    def fault_stats(self):
        """All captured runs' fault counters, folded in run order."""
        from repro.faults.injector import FaultStats

        total = FaultStats()
        for run in self.runs:
            if run.fault_stats is not None:
                total.merge(run.fault_stats)
        return total

    def memo_stats(self):
        """All captured runs' memo counters, folded."""
        from repro.memo.store import MemoStats

        total = MemoStats()
        for run in self.runs:
            if run.memo_stats is not None:
                total.merge(run.memo_stats)
        return total


def current_run_session() -> RunSession | None:
    """The innermost active session, or None."""
    return _ACTIVE[-1] if _ACTIVE else None
