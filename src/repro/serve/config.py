"""Configuration for the design service daemon.

A :class:`ServeConfig` is pure data: every operational knob of the
``repro serve`` daemon in one frozen dataclass, so a daemon's whole
behavior is reproducible from its config (plus the seed).  Validation
happens at construction -- a daemon never boots with an incoherent
config and discovers it under load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from ..availability import ENGINE_NAMES
from ..errors import ServeError


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs for :class:`~repro.serve.DesignService`.

    ``queue_limit`` and ``wait_budget`` drive admission control: a
    request is shed with 429 when the queue is full *or* when its
    estimated queueing delay (EWMA of recent service times times the
    queue depth) exceeds ``wait_budget`` seconds.

    ``default_deadline``/``max_deadline`` bound per-request deadlines
    in seconds; the effective deadline cancels the search
    cooperatively at the next candidate boundary.

    ``engine`` names the availability engine built for every job and
    for the embedded watcher -- the same engine the CLI's ``--engine``
    builds (:func:`repro.availability.build_engine`), so a job answers
    exactly what ``repro design`` answers.

    ``drain_grace`` is how long a SIGTERM'd daemon waits for running
    jobs to checkpoint and park before exiting anyway.

    ``allow_test_faults`` gates the ``test_fault`` payload field used
    by the chaos load generator (artificial per-job delays); it must
    never be on in real deployments, hence an explicit opt-in.

    ``cache_dir`` attaches one shared persistent tier-evaluation
    store (:mod:`repro.cache`) to every design job the daemon runs --
    repeat requirements then reuse solves across jobs, workers, and
    daemon restarts.  ``cache_verify`` re-solves a seeded sample of
    hits after each job and quarantines the store on divergence.

    ``map_path`` mounts a precomputed requirement-space map (built by
    ``repro map build``, :mod:`repro.grid`) at ``GET /v1/map``: the
    daemon answers (load, downtime) lookups from the map file without
    running a search, reloads it when a rebuild replaces the file, and
    reports its coverage in ``/healthz``.  The file may not exist yet
    at boot -- lookups then answer 503 until a build lands.

    ``watch_telemetry`` (one or more JSONL stream paths) turns on the
    background drift reconciler (:mod:`repro.watch`): the daemon then
    also tails telemetry for ``watch_tier``, re-estimates its
    MTTF/MTTR/load, and re-searches the tier design when observation
    statistically contradicts the ``watch_load`` /
    ``watch_downtime_minutes`` spec.  The watched model comes from
    ``watch_infrastructure``/``watch_service`` spec files, or the
    paper's e-commerce model when ``watch_paper`` is set.  Watch state
    (journal, checkpoint) lives under ``data_dir`` so a killed daemon
    resumes an interrupted redesign exactly once.
    """

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_limit: int = 16
    wait_budget: float = 30.0
    initial_service_estimate: float = 2.0
    default_deadline: float = 120.0
    max_deadline: float = 600.0
    engine: str = "markov"
    jobs: int = 1
    task_timeout: Optional[float] = None
    drain_grace: float = 30.0
    io_timeout: float = 10.0
    max_body_bytes: int = 1024 * 1024
    fsync: bool = True
    allow_test_faults: bool = False
    cache_dir: Optional[str] = None
    cache_verify: bool = False
    seed: int = 1
    checkpoint_interval: int = 10
    watch_telemetry: Tuple[str, ...] = ()
    watch_tier: Optional[str] = None
    watch_load: Optional[float] = None
    watch_downtime_minutes: Optional[float] = None
    watch_interval: float = 5.0
    watch_infrastructure: Optional[str] = None
    watch_service: Optional[str] = None
    watch_paper: bool = False
    map_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.data_dir:
            raise ServeError("data_dir is required")
        if self.workers < 1:
            raise ServeError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ServeError("queue_limit must be >= 1")
        if self.wait_budget <= 0:
            raise ServeError("wait_budget must be positive")
        if self.initial_service_estimate <= 0:
            raise ServeError("initial_service_estimate must be positive")
        if self.default_deadline <= 0 or self.max_deadline <= 0:
            raise ServeError("deadlines must be positive")
        if self.default_deadline > self.max_deadline:
            raise ServeError("default_deadline exceeds max_deadline")
        if self.engine not in ENGINE_NAMES:
            raise ServeError("engine must be one of %s, got %r"
                             % (", ".join(ENGINE_NAMES), self.engine))
        if self.jobs < 1:
            raise ServeError("jobs must be >= 1")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ServeError("task_timeout must be positive or None")
        if self.drain_grace <= 0:
            raise ServeError("drain_grace must be positive")
        if self.io_timeout <= 0:
            raise ServeError("io_timeout must be positive")
        if self.max_body_bytes < 1024:
            raise ServeError("max_body_bytes must be >= 1024")
        if self.checkpoint_interval < 1:
            raise ServeError("checkpoint_interval must be >= 1")
        if self.cache_verify and not self.cache_dir:
            raise ServeError("cache_verify requires cache_dir")
        if not 0 <= self.port <= 65535:
            raise ServeError("port must be in [0, 65535]")
        if self.watch_telemetry:
            if not self.watch_tier:
                raise ServeError("watch_telemetry requires watch_tier")
            if self.watch_load is None or self.watch_load <= 0:
                raise ServeError(
                    "watch_telemetry requires a positive watch_load")
            if self.watch_downtime_minutes is None \
                    or self.watch_downtime_minutes <= 0:
                raise ServeError("watch_telemetry requires a positive "
                                 "watch_downtime_minutes")
            if self.watch_interval <= 0:
                raise ServeError("watch_interval must be positive")
            if not self.watch_paper and not (
                    self.watch_infrastructure and self.watch_service):
                raise ServeError(
                    "watch_telemetry requires watch_infrastructure and "
                    "watch_service spec files, or watch_paper")

    # -- derived paths -------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.data_dir, "jobs.jsonl")

    @property
    def checkpoint_dir(self) -> str:
        return os.path.join(self.data_dir, "checkpoints")

    @property
    def endpoint_path(self) -> str:
        """Where the daemon advertises its bound address (JSON)."""
        return os.path.join(self.data_dir, "endpoint.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.checkpoint_dir, "%s.json" % job_id)

    @property
    def watch_journal_path(self) -> str:
        return os.path.join(self.data_dir, "watch-journal.jsonl")

    @property
    def watch_checkpoint_path(self) -> str:
        return os.path.join(self.data_dir, "watch-checkpoint.json")


__all__ = ["ServeConfig"]
