"""serve_mixed: an open loop of streaming and training jobs against an
in-process ``SimulationService`` with two supervised workers.

Tenants submit independently of each other's replies, so the loop is
open: arrivals follow a seeded schedule and every job is timed from
when it was *due*, so a stalled generator or supervisor shows up as
latency instead of as a lower offered load.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from statistics import median

import numpy as np

from common import (OUT_DIR, Outcome, load_pins, maybe_span, percentile,
                    ratio)
from repro.core.compiler import compile_inference
from repro.serve import (JobSpec, JobState, Overloaded, ServicePolicy,
                         SimulationService)
from repro.serve.workloads import execute_job, serve_config, serve_network


class ServeMixed:
    """Seeded open-loop arrivals at a fixed rate; see the module doc."""

    name = "serve_mixed"

    #: Offered load, jobs/s.  Two closed-loop clients reach ~24 jobs/s
    #: and eight ~44 jobs/s on a 2-core host at the commit that defined
    #: the benchmark; at 12-24 jobs/s p90 moved 30-40% between seeds
    #: (jobs queueing for a worker on 20 ms ticks), more than any bound
    #: the benchmark may set, so the rate sits where few jobs queue.
    RATE = 8.0

    #: A job finishing later than this after it was due misses goodput.
    LATENCY_LIMIT_MS = 250.0

    #: Distinct job seeds per kind.  Timing does not depend on the seed,
    #: so after the first (cold) job of each kind the plan cache and memo
    #: store serve every later one.
    SEED_POOL = 4

    TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")

    #: Sizes that make a warm job run ~30 ms, mid-way between the first
    #: and second 20 ms supervisor tick after dispatch; a 4-frame job ran
    #: ~19.5 ms, at a tick boundary, and host jitter flipped its latency
    #: between one and two ticks from run to run.
    STREAM_FRAMES = 64
    TRAIN_EPOCHS = 2

    #: The p90 must have at least ten jobs beyond it.
    MIN_JOBS = 100

    #: Seconds the benchmark waits for one job's result before counting
    #: it as failed.
    RESULT_TIMEOUT_S = 60.0

    def setup(self, seed: int, tracer) -> None:
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.seeds = self.rng.integers(0, 2**31, self.SEED_POOL)
        self.pins = load_pins(self.name)
        with maybe_span(tracer, "compiler.compile_inference"):
            config = serve_config()
            compile_inference(serve_network(config), config, validate=False)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        # A fresh memo store and checkpoint directory per run: a reused
        # memo directory would turn every cold job warm.
        self.scratch = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        self.loop = asyncio.new_event_loop()
        self.service = SimulationService(ServicePolicy(
            workers=2, max_queue_depth=256,
            memo_dir=f"{self.scratch}/memo",
            checkpoint_dir=f"{self.scratch}/checkpoints"))
        with maybe_span(tracer, "serve.start"):
            self.loop.run_until_complete(self.service.start())
        # The cold jobs, one per kind, compile into the plan cache and
        # fill the memo store.  Running them here keeps their backlog
        # out of the timed window, where it dominated p90 from run to
        # run; their cost shows in setup_s and serve.cold_job_ms.
        with maybe_span(tracer, "serve.cold_jobs") as span:
            self.cold_rows, _, _ = self.loop.run_until_complete(
                self._open_loop([(0.0, self._spec("streaming", 0, 0)),
                                 (0.0, self._spec("training", 0, 1))]))
        self.cold_span = span

    def _spec(self, kind: str, pick: int, tenant: int) -> JobSpec:
        extra = ({"frames": self.STREAM_FRAMES} if kind == "streaming"
                 else {"epochs": self.TRAIN_EPOCHS})
        return JobSpec(workload=kind, tenant=self.TENANTS[tenant],
                       seed=int(self.seeds[pick]), **extra)

    def _schedule(self, seconds: float) -> list[tuple[float, JobSpec]]:
        """Seeded arrivals: a Poisson process conditioned on its count.

        Given ``n`` arrivals in ``[0, seconds)``, Poisson arrival times
        are ``n`` sorted uniform draws; fixing ``n = RATE * seconds``
        keeps the offered work the same on every run, and half the jobs
        of every run are streaming, half training.
        """
        count = max(self.MIN_JOBS, round(self.RATE * seconds))
        times = np.sort(self.rng.uniform(0.0, seconds, count))
        kinds = self.rng.permutation(
            ["streaming"] * (count // 2) + ["training"] * (count - count // 2))
        picks = self.rng.integers(self.SEED_POOL, size=count)
        tenants = self.rng.integers(len(self.TENANTS), size=count)
        return [(float(due), self._spec(str(kind), pick, tenant))
                for due, kind, pick, tenant
                in zip(times, kinds, picks, tenants)]

    async def _open_loop(self, schedule) -> tuple[list[dict], float, float]:
        """Submit on schedule; returns per-job rows, start and end time."""
        service = self.service
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        rows: list[dict] = []
        waiters = []
        for due_offset, spec in schedule:
            due = start + due_offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            row = {"spec": spec, "due": due, "lag": loop.time() - due}
            rows.append(row)
            submit_started = time.perf_counter()
            try:
                row["job_id"] = service.submit(spec)
            except Overloaded:
                row["state"] = "overloaded"
            row["submit_at"] = submit_started
            row["submit_s"] = time.perf_counter() - submit_started
            if "job_id" in row:
                waiters.append(asyncio.create_task(service.result(
                    row["job_id"], timeout_s=self.RESULT_TIMEOUT_S)))
        results = await asyncio.gather(*waiters, return_exceptions=True)
        end = loop.time()
        by_id = {row["job_id"]: row for row in rows if "job_id" in row}
        for result in results:
            if isinstance(result, BaseException):
                continue
            row = by_id[result["job_id"]]
            record = service.jobs[result["job_id"]]
            row.update(state=record.state, result=record.result,
                       attempts=record.attempts,
                       submitted=record.submitted_at,
                       finished=record.finished_at,
                       latency_s=record.finished_at - row["due"],
                       service_latency_s=record.latency_s)
        finished = [row["finished"] for row in rows if "finished" in row]
        return rows, start, max(finished, default=end)

    def measure(self, seconds: float) -> Outcome:
        service, tracer = self.service, self.tracer
        schedule = self._schedule(seconds)
        wall_started = time.perf_counter()
        loop_started = self.loop.time()
        with maybe_span(tracer, "bench.open_loop") as loop_span:
            rows, start, end = self.loop.run_until_complete(
                self._open_loop(schedule))
        stats = service.stats()
        restarts = sum(worker.restarts for worker in service.workers)
        self._stop()
        every_row = self.cold_rows + rows
        references = self._references(every_row)

        failed = 0
        good = frames = cycles = 0
        kind_cycles: dict[str, set] = {}
        memo = dict.fromkeys(("hits", "misses", "rejects", "stores"), 0)
        for row in every_row:
            result = row.get("result")
            kind = row["spec"].workload
            ok = (row.get("state") == JobState.DONE and result is not None
                  and (result.output_digest, result.cycles)
                  == references[row["spec"]]
                  and result.cycles == self.pins["job_cycles"][kind])
            row["ok"] = ok
            if not ok:
                failed += 1
                continue
            kind_cycles.setdefault(kind, set()).add(result.cycles)
            for key in memo:
                memo[key] += (result.memo or {}).get(key, 0)
        done = [row for row in rows if row["ok"]]
        if not done:
            return Outcome(len(every_row), failed, {})
        for row in done:
            cycles += row["result"].cycles
            frames += row["result"].detail.get("frames", 0)
            good += row["latency_s"] * 1e3 <= self.LATENCY_LIMIT_MS
        latencies = [row["latency_s"] for row in done]
        run_s = end - start
        outcome = Outcome(
            len(every_row), failed,
            {"sim_cycles_per_s": cycles / run_s,
             "frames_per_s": frames / run_s,
             "latency_p50_ms": median(latencies) * 1e3,
             "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
             "goodput_per_s": good / run_s},
            stats={kind: sorted(values)
                   for kind, values in sorted(kind_cycles.items())},
            host_ms_per_request=median(latencies) * 1e3,
            notes={"jobs": len(rows), "done_ok": len(done),
                   "within_limit": good, "run_s": run_s,
                   "rate": self.RATE,
                   "latency_limit_ms": self.LATENCY_LIMIT_MS})
        if len(rows) < self.MIN_JOBS:
            outcome.failed = outcome.attempted
        if tracer is not None:
            offset = wall_started - loop_started
            self._spans(self.cold_rows, offset, self.cold_span)
            self._spans(rows, offset, loop_span)
            outcome.layers = self._layers(rows, done, stats, restarts,
                                          memo)
        return outcome

    def _references(self, rows) -> dict:
        """Digest and cycles of each distinct spec, run in-process."""
        references = {}
        with maybe_span(self.tracer, "bench.reference"):
            for spec in {row["spec"] for row in rows}:
                result = execute_job(spec, "reference", {})
                references[spec] = (result["output_digest"],
                                    result["cycles"])
        return references

    def _spans(self, rows, offset: float, parent: int) -> None:
        """Job spans from loop-clock timestamps, on the tracer's clock."""
        tracer = self.tracer
        for row in rows:
            if "finished" not in row:
                continue
            job = tracer.add("bench.job", row["due"] + offset,
                             row["finished"] + offset, parent=parent,
                             request=row["job_id"])
            tracer.add("serve.submit", row["submit_at"],
                       row["submit_at"] + row["submit_s"], parent=job,
                       request=row["job_id"])
            tracer.add("serve.job", row["submitted"] + offset,
                       row["finished"] + offset, parent=job,
                       request=row["job_id"])

    def _layers(self, rows, done, stats, restarts, memo) -> dict:
        by_kind = {kind: [row["latency_s"] for row in done
                          if row["spec"].workload == kind]
                   for kind in ("streaming", "training")}
        cache = stats["plan_cache"]
        service_latencies = [row["service_latency_s"] for row in done]
        lags = [row["lag"] for row in rows]
        lookups = memo["hits"] + memo["misses"] + memo["rejects"]
        return {
            "memo.lookups": lookups,
            "memo.hits": memo["hits"],
            "memo.stores": memo["stores"],
            "memo.rejects": memo["rejects"],
            "memo.hit_ratio": ratio(memo["hits"], lookups),
            "serve.submit_ms": median(row["submit_s"] for row in rows) * 1e3,
            "serve.service_latency_ms.p50": median(service_latencies) * 1e3,
            "serve.service_latency_ms.p90":
                percentile(service_latencies, 0.90) * 1e3,
            "serve.latency_ms.streaming.p50":
                median(by_kind["streaming"]) * 1e3,
            "serve.latency_ms.training.p50":
                median(by_kind["training"]) * 1e3,
            "serve.cold_job_ms": median(row.get("latency_s", 0.0)
                                        for row in self.cold_rows) * 1e3,
            "serve.plan_cache.hit_ratio":
                ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "serve.retries": sum(max(0, row.get("attempts", 1) - 1)
                                 for row in rows),
            "serve.worker_restarts": restarts,
            "serve.rejects": sum(row.get("state") == "overloaded"
                                 for row in rows),
            "bench.gen_lag_ms.p50": median(lags) * 1e3,
            "bench.gen_lag_ms.max": max(lags) * 1e3,
        }

    def _stop(self) -> None:
        if self.service is not None:
            with maybe_span(self.tracer, "serve.stop"):
                self.loop.run_until_complete(self.service.stop())
            self.service = None

    def close(self) -> None:
        self._stop()
        self.loop.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
