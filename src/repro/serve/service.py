"""The design service: workers, recovery, deadlines, and drain.

:class:`DesignService` is the daemon's engine room, independent of
HTTP: it owns the job store (journal), the admission queue, a pool of
worker threads, one shared poison quarantine, and its own metrics
registry.  Each accepted job runs a full :class:`repro.core.Aved`
design with serve-specific wiring:

* a **per-job checkpoint** (``checkpoints/<id>.json``) so a killed or
  drained daemon resumes the search instead of restarting it;
* the **CLI's plain engine** (:func:`repro.availability.build_engine`
  for ``config.engine``), so a job answers exactly what
  ``repro design`` answers;
* a **cancel check** threaded into the supervised evaluation runtime,
  so deadline expiry, client cancellation, and drain all stop the
  search at the next candidate boundary -- the one place the request
  deadline is enforced.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..availability import build_engine
from ..errors import AvedError, InfeasibleError, ServeError
from ..model import (JobRequirements, ServiceRequirements)
from ..obs.metrics import MetricsRegistry
from ..parallel import PoisonQuarantine, make_runtime
from ..resilience import SearchCheckpoint
from ..units import Duration
from .admission import AdmissionController, ShedDecision
from .config import ServeConfig
from .deadline import (REASON_CLIENT, REASON_DRAIN, CancelToken,
                       JobCancelled, make_cancel_check)
from .jobstore import Job, JobStore


def parse_requirements(data: Any):
    """Requirements from a job payload dict (serve's wire format)."""
    if not isinstance(data, dict):
        raise ServeError("requirements must be an object")
    kind = data.get("kind", "service")
    try:
        if kind == "service":
            return ServiceRequirements(
                float(data["throughput"]),
                Duration.minutes(
                    float(data["max_annual_downtime_minutes"])))
        if kind == "job":
            return JobRequirements(
                Duration.minutes(float(data["max_execution_minutes"])))
    except KeyError as exc:
        raise ServeError("requirements missing field %s" % exc) from exc
    except (TypeError, ValueError) as exc:
        raise ServeError("bad requirements value: %s" % exc) from exc
    except AvedError as exc:
        raise ServeError("bad requirements: %s" % exc) from exc
    raise ServeError("requirements kind must be 'service' or 'job', "
                     "got %r" % kind)


class DesignService:
    """Job execution behind the HTTP front end."""

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.clock = clock
        os.makedirs(config.data_dir, exist_ok=True)
        os.makedirs(config.checkpoint_dir, exist_ok=True)
        self.metrics = MetricsRegistry()
        self.store = JobStore(config.journal_path, fsync=config.fsync)
        self.admission = AdmissionController(
            config.queue_limit, config.wait_budget,
            config.initial_service_estimate, workers=config.workers)
        #: One quarantine across all jobs: a candidate that crashed
        #: workers in job A stays quarantined for job B.
        self.quarantine = PoisonQuarantine()
        #: One shared tier-evaluation store across all jobs and
        #: workers (thread-safe); repeat requirements reuse solves
        #: across jobs and daemon restarts.
        self.cache_store = None
        if config.cache_dir:
            from ..cache import TierEvaluationStore
            self.cache_store = TierEvaluationStore(config.cache_dir)
            if config.cache_verify \
                    and self.cache_store.verify_sample <= 0:
                self.cache_store.verify_sample = 8
        #: Precomputed requirement-space map (repro.grid) served at
        #: GET /v1/map; the file may not exist yet at boot.
        self.map_service = None
        if config.map_path:
            from ..grid import MapService
            self.map_service = MapService(config.map_path)
        #: Background drift reconciler (repro.watch); only the watch
        #: thread touches it -- health() reads the cached status dict.
        self.watcher = None
        self._watch_thread: Optional[threading.Thread] = None
        self._watch_status: Optional[Dict[str, Any]] = None
        if config.watch_telemetry:
            self.watcher = self._make_watcher()
        self._tokens: Dict[str, CancelToken] = {}
        self._tokens_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._draining = threading.Event()
        self._drained = False
        self._last_pool: Optional[Dict[str, Any]] = None
        if self.store.torn_lines:
            self.metrics.counter("serve.journal_torn_lines") \
                .inc(self.store.torn_lines)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Recover interrupted jobs, then start the worker threads."""
        recovered = self.store.recoverable()
        for job in recovered:
            self.admission.requeue(job)
        if recovered:
            self.metrics.counter("serve.recovered").inc(len(recovered))
        self._set_depth_gauge()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, name="serve-worker-%d" % index,
                daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.watcher is not None:
            self._watch_thread = threading.Thread(
                target=self._watch_loop, name="serve-watch", daemon=True)
            self._watch_thread.start()

    def drain(self, grace: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, checkpoint, park, flush.

        Returns True when every worker finished inside the grace
        budget.  Safe to call twice (the second call is a no-op).
        """
        if self._drained:
            return True
        grace = self.config.drain_grace if grace is None else grace
        started = self.clock()
        self._draining.set()
        self.admission.close()
        with self._tokens_lock:
            for token in self._tokens.values():
                token.cancel(REASON_DRAIN)
        # Jobs still queued stay 'queued' in the journal (they were
        # journaled at acceptance); the next boot re-queues them.
        self.admission.drain_pending()
        clean = True
        for thread in self._threads:
            left = grace - (self.clock() - started)
            thread.join(max(left, 0.05))
            if thread.is_alive():
                clean = False
        if self._watch_thread is not None:
            # The reconciler's journal makes a hard cut safe: an
            # interrupted redesign resumes exactly once on next boot.
            left = grace - (self.clock() - started)
            self._watch_thread.join(max(left, 0.05))
            if self._watch_thread.is_alive():
                clean = False
        self.store.close()
        self._drained = True
        elapsed = self.clock() - started
        self.metrics.gauge("serve.drain_seconds").set(elapsed)
        self.metrics.counter("serve.drains").inc()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- submission / queries ------------------------------------------

    def submit(self, payload: Any) \
            -> "tuple[Optional[Job], Optional[ShedDecision]]":
        """Validate, then admit or shed.  Raises ServeError on a bad
        payload (the HTTP layer maps that to 400)."""
        normalized = self._validate(payload)
        job, shed = self.admission.offer(
            lambda: self.store.submit(normalized))
        if shed is not None:
            self.metrics.counter("serve.shed").inc()
            self.metrics.counter("serve.shed.%s" % shed.reason).inc()
        else:
            self.metrics.counter("serve.accepted").inc()
        self._set_depth_gauge()
        return job, shed

    def get(self, job_id: str) -> Optional[Job]:
        return self.store.get(job_id)

    def wait(self, job_id: str, timeout: float) -> Optional[Job]:
        return self.store.wait(job_id, timeout)

    def jobs(self) -> List[Job]:
        return self.store.jobs()

    def cancel(self, job_id: str) -> str:
        """Cancel a job: 'unknown' | 'terminal' | 'cancelling' |
        'cancelled'."""
        job = self.store.get(job_id)
        if job is None:
            return "unknown"
        if job.terminal:
            return "terminal"
        with self._tokens_lock:
            token = self._tokens.get(job_id)
        if token is not None:
            token.cancel(REASON_CLIENT)
            return "cancelling"
        self.store.mark_cancelled(job_id, REASON_CLIENT)
        self.metrics.counter("serve.cancelled").inc()
        return "cancelled"

    # -- health --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._tokens_lock:
            running = len(self._tokens)
        return {
            "status": "draining" if self.draining else "ok",
            "accepting": not self.admission.closed,
            "queue_depth": self.admission.depth,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "running": running,
            "jobs": self.store.counts(),
            "quarantined": len(self.quarantine),
            "pool": self._last_pool,
            "service_estimate_seconds":
                round(self.admission.service_estimate, 3),
            "cache": (self.cache_store.snapshot()
                      if self.cache_store is not None else None),
            "watch": self._watch_status,
            "map": self.map_status(),
        }

    def map_status(self) -> Optional[Dict[str, Any]]:
        """MAP_STATUS_SCHEMA document for /healthz, or None when no
        map is configured.  A corrupt map file must not take down
        health reporting, so that case degrades to state 'missing'
        with the error attached."""
        if self.map_service is None:
            return None
        try:
            return self.map_service.status()
        except AvedError as exc:
            return {"tier": "unknown", "state": "missing",
                    "coverage": 0.0, "loads_total": 0,
                    "loads_built": 0,
                    "shards": {"total": 0, "done": 0, "pending": 0},
                    "journal": {"enabled": False, "degraded": False,
                                "appends": 0},
                    "map_path": self.config.map_path,
                    "error": str(exc)}

    def ready(self) -> bool:
        """May a load balancer send more work here?

        Not while draining, and not with a full queue.
        """
        if self.draining or self._drained:
            return False
        return self.admission.depth < self.config.queue_limit

    # -- the drift reconciler ------------------------------------------

    def _make_watcher(self):
        from ..core import DesignEvaluator
        from ..watch import JsonlTailReader, Watcher, WatchSpec
        config = self.config
        if config.watch_paper:
            from ..spec.paper import (ecommerce_service,
                                      paper_infrastructure)
            infrastructure = paper_infrastructure()
            service = ecommerce_service()
        else:
            from ..spec import parse_infrastructure, parse_service
            with open(config.watch_infrastructure) as handle:
                infrastructure = parse_infrastructure(handle.read())
            with open(config.watch_service) as handle:
                service = parse_service(handle.read())
        evaluator = DesignEvaluator(
            infrastructure, service,
            build_engine(config.engine, config.seed))
        spec = WatchSpec(
            config.watch_tier, config.watch_load,
            Duration.minutes(config.watch_downtime_minutes))
        # The shared cache_dir is safe to attach twice (here and per
        # job): the tier-evaluation store is multi-writer by design.
        return Watcher(
            evaluator, spec,
            readers=[JsonlTailReader(path)
                     for path in config.watch_telemetry],
            journal_path=config.watch_journal_path,
            checkpoint_path=config.watch_checkpoint_path,
            cache_dir=config.cache_dir)

    def _watch_loop(self) -> None:
        """Poll telemetry until drain; the daemon survives any watch
        failure (the reconciler is an optimization, not a dependency)."""
        try:
            self.watcher.start()
            self._watch_status = self.watcher.status()
        except Exception:   # noqa: BLE001 - reconciler must not kill us
            self.metrics.counter("serve.watch_errors").inc()
        while not self._draining.wait(self.config.watch_interval):
            try:
                self._watch_status = self.watcher.poll()
                self.metrics.counter("serve.watch_polls").inc()
            except Exception:   # noqa: BLE001
                self.metrics.counter("serve.watch_errors").inc()
        try:
            self._watch_status = self.watcher.status()
        except Exception:   # noqa: BLE001
            self.metrics.counter("serve.watch_errors").inc()

    # -- validation ----------------------------------------------------

    def _validate(self, payload: Any) -> Dict[str, Any]:
        from ..spec import parse_infrastructure, parse_service
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        for key in ("infrastructure", "service"):
            text = payload.get(key)
            if not isinstance(text, str) or not text.strip():
                raise ServeError("%r must be a non-empty spec string"
                                 % key)
        try:
            infrastructure = parse_infrastructure(
                payload["infrastructure"])
            service = parse_service(payload["service"])
            from ..model import validate_pair
            validate_pair(infrastructure, service)
        except AvedError as exc:
            raise ServeError("bad model spec: %s" % exc) from exc
        parse_requirements(payload.get("requirements"))
        deadline = payload.get("deadline_seconds",
                               self.config.default_deadline)
        try:
            deadline = float(deadline)
        except (TypeError, ValueError) as exc:
            raise ServeError("deadline_seconds must be a number") \
                from exc
        # NaN passes every comparison and would run the job with no
        # deadline at all, so non-finite values are refused outright.
        if not math.isfinite(deadline) or deadline <= 0:
            raise ServeError("deadline_seconds must be a positive "
                             "finite number")
        deadline = min(deadline, self.config.max_deadline)
        fault = payload.get("test_fault")
        if fault is not None and not self.config.allow_test_faults:
            raise ServeError("test_fault requires the daemon to run "
                             "with --allow-test-faults")
        if fault is not None and not isinstance(fault, dict):
            raise ServeError("test_fault must be an object")
        normalized = dict(payload)
        normalized["deadline_seconds"] = deadline
        return normalized

    # -- execution -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self.admission.take(timeout=0.2)
            if job is None:
                if self.admission.closed:
                    return
                continue
            self._set_depth_gauge()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if job.terminal:        # cancelled while still queued
            return
        if not self.store.mark_started(job.id):
            return
        token = CancelToken()
        with self._tokens_lock:
            self._tokens[job.id] = token
        if self.draining:
            # Drain raced us between take() and token registration.
            token.cancel(REASON_DRAIN)
        started = self.clock()
        deadline_at = started + float(job.payload["deadline_seconds"])
        check = make_cancel_check(token, deadline_at, self.clock)
        try:
            result = self._execute(job, check)
        except JobCancelled as exc:
            self._finish_cancelled(job, exc)
        except InfeasibleError as exc:
            self.store.mark_failed(job.id, {"kind": "infeasible",
                                            "message": str(exc)})
            self.metrics.counter("serve.failed").inc()
        except AvedError as exc:
            self.store.mark_failed(
                job.id, {"kind": "error",
                         "type": type(exc).__name__,
                         "message": str(exc)})
            self.metrics.counter("serve.failed").inc()
        except Exception as exc:   # noqa: BLE001 - worker must survive
            self.store.mark_failed(
                job.id, {"kind": "internal",
                         "type": type(exc).__name__,
                         "message": str(exc)})
            self.metrics.counter("serve.failed").inc()
        else:
            if self.store.mark_completed(job.id, result):
                self.metrics.counter("serve.completed").inc()
            self._discard_checkpoint(job.id)
        finally:
            with self._tokens_lock:
                self._tokens.pop(job.id, None)
            elapsed = self.clock() - started
            self.admission.record_service_time(elapsed)
            self.metrics.histogram("serve.job_seconds").observe(elapsed)

    def _finish_cancelled(self, job: Job, exc: JobCancelled) -> None:
        if exc.reason == REASON_DRAIN:
            # The search checkpointed (Aved flushes on the way out);
            # park the job for the next boot.
            self.store.mark_requeued(job.id, REASON_DRAIN)
            self.metrics.counter("serve.requeued").inc()
        elif exc.reason == REASON_CLIENT:
            self.store.mark_cancelled(job.id, REASON_CLIENT)
            self.metrics.counter("serve.cancelled").inc()
        else:
            self.store.mark_failed(job.id, {"kind": "deadline",
                                            "message": str(exc)})
            self.metrics.counter("serve.deadline_misses").inc()
            self.metrics.counter("serve.failed").inc()

    def _execute(self, job: Job,
                 check: Callable[[], None]) -> Dict[str, Any]:
        from ..core import Aved
        from ..spec import parse_infrastructure, parse_service
        payload = job.payload
        self._chaos_delay(payload, check)
        check()
        infrastructure = parse_infrastructure(payload["infrastructure"])
        service = parse_service(payload["service"])
        requirements = parse_requirements(payload["requirements"])
        engine = build_engine(self.config.engine, self.config.seed)
        if self.cache_store is not None:
            # Wrap the engine *before* the runtime is built so a
            # fanned-out pool ships the cached engine to its workers.
            # Aved's own attach is a no-op on an already wrapped one.
            from ..cache import attach_cache
            engine = attach_cache(engine, self.cache_store)
        checkpoint = self._make_checkpoint(job.id)
        runtime = make_runtime(engine, self.config.jobs,
                               task_timeout=self.config.task_timeout,
                               seed=self.config.seed,
                               cancel_check=check,
                               quarantine=self.quarantine)
        aved = Aved(infrastructure, service,
                    availability_engine=engine,
                    lint="off", checkpoint=checkpoint,
                    parallel=runtime,
                    cache=self.cache_store,
                    cache_verify=self.config.cache_verify)
        try:
            outcome = aved.design(requirements)
        finally:
            if runtime is not None:
                self._last_pool = runtime.health()
                runtime.close()
        return self._result_dict(outcome)

    def _chaos_delay(self, payload: Dict[str, Any],
                     check: Callable[[], None]) -> None:
        """The loadgen's artificial slowness, cancellation-aware."""
        fault = payload.get("test_fault") or {}
        try:
            delay = float(fault.get("delay_seconds", 0) or 0)
        except (TypeError, ValueError):
            delay = 0.0
        if delay <= 0 or not self.config.allow_test_faults:
            return
        end = self.clock() + delay
        while self.clock() < end:
            check()
            time.sleep(0.05)

    def _make_checkpoint(self, job_id: str) -> SearchCheckpoint:
        path = self.config.checkpoint_path(job_id)
        if os.path.exists(path):
            return SearchCheckpoint.load(
                path, interval=self.config.checkpoint_interval)
        return SearchCheckpoint(
            path, interval=self.config.checkpoint_interval)

    def _discard_checkpoint(self, job_id: str) -> None:
        try:
            os.remove(self.config.checkpoint_path(job_id))
        except OSError:
            pass

    @staticmethod
    def _result_dict(outcome: Any) -> Dict[str, Any]:
        from ..core.serialize import evaluation_to_dict
        result: Dict[str, Any] = {
            "evaluation": evaluation_to_dict(outcome.evaluation),
            "annual_cost": outcome.annual_cost,
            "downtime_minutes": outcome.downtime_minutes,
            "degraded": outcome.degraded,
        }
        if outcome.degradation is not None and len(outcome.degradation):
            result["degradation"] = [
                diagnostic.format()
                for diagnostic in outcome.degradation]
        if outcome.cache is not None:
            result["cache"] = dict(outcome.cache)
        return result

    def _set_depth_gauge(self) -> None:
        self.metrics.gauge("serve.queue_depth") \
            .set(float(self.admission.depth))


__all__ = ["DesignService", "parse_requirements"]
