"""The shard supervisor: retries, deadlines, reassignment, degradation.

:class:`ShardSupervisor` executes a list of :class:`ShardSpec`s — each
a picklable task plus the module-level function that runs it — with
fault tolerance.  It is the only shard executor: every sharded fleet
and monitor run reaches it through
:func:`repro.vantage.sharding.run_sharded`.  It provides:

- **crash detection** — a worker that raises (or dies without a word)
  fails the attempt instead of aborting the run;
- **hang detection** — each process attempt carries a wall-clock
  deadline; an overdue worker is killed and the attempt counts as a
  hang;
- **bounded retries** — failed attempts re-run under seeded
  decorrelated-jitter backoff (:class:`repro.runtime.backoff
  .BackoffPolicy`), so the retry schedule is deterministic;
- **reassignment** — a shard that exhausts its retries is split into
  per-vantage subtasks, each given to a fresh worker with its own
  retry budget; because shard results are pure functions of their
  tasks, the regrouped results merge to the same bytes;
- **graceful degradation** — vantages that still fail are *excluded*:
  the run completes and the :class:`repro.runtime.degradation
  .DegradationReport` says exactly what is missing and why;
- **checkpoint/resume** — completed shard results append to a
  :class:`repro.runtime.journal.RunJournal`; a rerun with the same
  journal loads them instead of recomputing, finishing
  byte-identical to an uninterrupted run;
- **result validation** — a worker returning a result for the wrong
  shard is rejected (an ``invalid`` failure), never merged.

Correctness oracle: every shard result is a pure function of its
:class:`FleetShardTask`/:class:`MonitorShardTask`, so *any* schedule
of retries, reassignments, and resumes must merge to the
single-process signature — the determinism gates the fleet layer
already enforces extend over this whole module.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import CampaignError
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.chaos import (
    ChaosDirective,
    ChaosPlan,
    ResultLost,
    RunAborted,
    ShardHang,
    apply_worker_directive,
)
from repro.runtime.degradation import (
    DegradationReport,
    ShardExclusion,
    ShardIncident,
)
from repro.runtime.journal import RunJournal


@dataclass
class ShardSpec:
    """One unit of supervised work.

    ``task`` must be picklable and ``run`` a module-level callable
    (both cross the process boundary); ``vantage_ids`` names the
    coverage this shard is responsible for — the unit of exclusion
    accounting and of reassignment splitting.
    """

    key: str
    task: object
    vantage_ids: list[int]


@dataclass
class RuntimeOptions:
    """Supervision knobs, shared by fleet and monitor entry points."""

    #: Retries per shard after its first attempt (0 = fail fast into
    #: reassignment/exclusion).
    max_retries: int = 2
    #: Wall-clock deadline per process attempt, seconds (None = no
    #: deadline; required when a chaos plan injects hangs).
    shard_timeout: Optional[float] = None
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Runtime-fault injection (tests and the CI chaos job).
    chaos: Optional[ChaosPlan] = None
    #: Injectable sleeper for inline-backend backoff, so inline tests
    #: never wait out real delays.  The process backend ignores it:
    #: parked retries there wait on real monotonic ``ready_at``
    #: deadlines (keep ``backoff.cap`` small in process-mode tests).
    sleep: Callable = time.sleep


@dataclass
class SupervisedRun:
    """What a supervised execution produced."""

    #: Completed shard results, initial-spec order then reassigned
    #: subshards (merge callers canonicalize order themselves).
    results: list = field(default_factory=list)
    #: None when the run was perfectly clean and not resumed.
    report: Optional[DegradationReport] = None
    #: Operational tallies (attempts, retries, wall seconds...).
    stats: dict = field(default_factory=dict)


@dataclass
class _Work:
    """One shard's supervision state across attempts."""

    spec: ShardSpec
    attempt: int = 0
    retries_left: int = 0
    #: Primary shards may be reassigned once; subshards may not.
    primary: bool = True
    #: Process-mode backoff parking: earliest monotonic start instant.
    ready_at: float = 0.0
    #: Backoff delay scheduled before this attempt (inline sleeps it).
    delay: float = 0.0
    #: Live subshards that replace this work after reassignment.
    requeue: list = field(default_factory=list)
    #: ``(key, result)`` of subshards a journal already completed.
    resumed_subs: list = field(default_factory=list)


def _process_worker(conn, run, task, directive_kind) -> None:
    """Per-attempt child-process body (module-level: must pickle).

    Sends ``("ok", result)`` or ``("error", detail)`` over the pipe;
    chaos directives make it crash, die, hang, or drop the result
    exactly as a faulty worker would.
    """
    import os

    try:
        if directive_kind in ("crash", "kill", "hang"):
            apply_worker_directive(ChaosDirective(directive_kind))
        result = run(task)
        if directive_kind == "lost":
            conn.close()
            os._exit(0)
        conn.send(("ok", result))
        conn.close()
    except BaseException as error:  # noqa: BLE001 — report, then die
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
            conn.close()
        except Exception:
            pass
        os._exit(1)


class ShardSupervisor:
    """Run shard specs to completion under the fault-tolerance contract.

    ``run`` is the work function (``run(task) -> result``);
    ``validate``, when given, is called as ``validate(task, result)``
    and must raise :class:`repro.errors.CampaignError` on a result
    that does not belong to the task; ``split``, when given, is called
    as ``split(spec) -> list[ShardSpec]`` to reassign an exhausted
    shard's vantages to fresh single-vantage tasks.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        run: Callable,
        processes: bool = False,
        options: Optional[RuntimeOptions] = None,
        validate: Optional[Callable] = None,
        split: Optional[Callable] = None,
        journal: Optional[RunJournal] = None,
        registry=None,
    ) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise CampaignError("supervisor needs at least one shard")
        keys = [spec.key for spec in self.specs]
        if len(set(keys)) != len(keys):
            raise CampaignError(f"duplicate shard keys: {keys}")
        self.run_fn = run
        self.processes = processes
        self.options = options or RuntimeOptions()
        self.validate = validate
        self.split = split
        self.journal = journal
        chaos = self.options.chaos
        if (processes and chaos is not None
                and self.options.shard_timeout is None
                and any(d.kind == "hang"
                        for d in chaos.directives.values())):
            raise CampaignError(
                "a chaos plan injecting hangs needs shard_timeout set "
                "(an unbounded supervised run cannot detect them)")
        self._bind_metrics(registry)

    # -- metrics --------------------------------------------------------
    def _bind_metrics(self, registry) -> None:
        """repro_runtime_* families (process scope: execution-shaped)."""
        if registry is None:
            from repro.obs.registry import NULL_REGISTRY

            registry = NULL_REGISTRY
        from repro.obs.registry import SCOPE_PROCESS

        self._m_attempts = registry.counter(
            "repro_runtime_shard_attempts_total",
            "Supervised shard attempts, per shard and outcome.",
            ("shard", "outcome"), scope=SCOPE_PROCESS)
        self._m_retries = registry.counter(
            "repro_runtime_retries_total",
            "Retries scheduled after failed shard attempts.",
            ("shard",), scope=SCOPE_PROCESS)
        self._m_backoff = registry.counter(
            "repro_runtime_backoff_seconds_total",
            "Total decorrelated-jitter backoff delay scheduled.",
            (), scope=SCOPE_PROCESS)
        self._m_excluded = registry.gauge(
            "repro_runtime_excluded_vantages",
            "Vantages excluded from the merged result by degradation.",
            (), scope=SCOPE_PROCESS)
        self._m_checkpoints = registry.counter(
            "repro_runtime_checkpoints_total",
            "Journal checkpoints, per event (written/resumed).",
            ("event",), scope=SCOPE_PROCESS)

    # -- orchestration --------------------------------------------------
    def execute(self) -> SupervisedRun:
        """Run every shard under supervision; degrade, never abort.

        Raises :class:`repro.errors.CampaignError` only on total
        failure (no shard produced a result) or an injected
        coordinator abort (:class:`repro.runtime.chaos.RunAborted`).
        """
        started = time.monotonic()
        report = DegradationReport()
        results: dict[str, object] = {}
        order: list[str] = []
        work_items: list[_Work] = []
        for spec in self.specs:
            order.append(spec.key)
            if self.journal is not None and self.journal.has(spec.key):
                results[spec.key] = self.journal.result(spec.key)
                report.resumed_shards.append(spec.key)
                self._m_checkpoints.labels("resumed").inc()
                continue
            work_items.append(_Work(
                spec=spec, retries_left=self.options.max_retries))
        stats = {"attempts": 0, "retries": 0, "reassigned": 0,
                 "resumed": len(report.resumed_shards)}
        try:
            if work_items:
                if self.processes:
                    self._run_processes(work_items, results, order,
                                        report, stats)
                else:
                    self._run_inline(work_items, results, order,
                                     report, stats)
        finally:
            self._m_excluded.set(len(report.excluded_vantages))
        if not results:
            raise CampaignError(
                "every shard failed permanently; nothing to merge "
                f"({len(report.incidents)} incident(s): "
                f"{report.format()})")
        stats["excluded_vantages"] = report.excluded_vantages
        stats["wall_s"] = time.monotonic() - started
        return SupervisedRun(
            results=[results[key] for key in order if key in results],
            report=report if report.has_content() else None,
            stats=stats,
        )

    # -- shared outcome handling ----------------------------------------
    def _success(self, work: _Work, result: object,
                 results: dict, order: list, report,
                 stats: dict) -> Optional[_Work]:
        stats["attempts"] += 1
        try:
            if self.validate is not None:
                self.validate(work.spec.task, result)
        except CampaignError as error:
            self._m_attempts.labels(work.spec.key, "invalid").inc()
            return self._failure(work, "invalid", str(error), order,
                                 report, stats, counted=True)
        self._m_attempts.labels(work.spec.key, "ok").inc()
        results[work.spec.key] = result
        if self.journal is not None:
            self.journal.checkpoint(work.spec.key, result)
            self._m_checkpoints.labels("written").inc()
        return None

    def _failure(self, work: _Work, kind: str, detail: str,
                 order: list, report, stats: dict,
                 counted: bool = False) -> Optional[_Work]:
        """Record a failed attempt; return follow-up work, if any.

        Returns the retry :class:`_Work` to schedule, or None when the
        failure resolved by reassignment (subshards appended to
        ``order`` by the caller via ``work.requeue``) or exclusion.
        """
        if not counted:
            stats["attempts"] += 1
            self._m_attempts.labels(work.spec.key, kind).inc()
        key = work.spec.key
        if work.retries_left > 0:
            delay = self.options.backoff.delay(key, work.attempt)
            report.incidents.append(ShardIncident(
                shard=key, attempt=work.attempt, kind=kind,
                detail=detail, resolution="retried"))
            stats["retries"] += 1
            self._m_retries.labels(key).inc()
            self._m_backoff.inc(delay)
            return _Work(spec=work.spec, attempt=work.attempt + 1,
                         retries_left=work.retries_left - 1,
                         primary=work.primary,
                         ready_at=time.monotonic() + delay, delay=delay)
        if (work.primary and self.split is not None
                and len(work.spec.vantage_ids) > 1):
            report.incidents.append(ShardIncident(
                shard=key, attempt=work.attempt, kind=kind,
                detail=detail, resolution="reassigned"))
            stats["reassigned"] += 1
            for subspec in self.split(work.spec):
                if (self.journal is not None
                        and self.journal.has(subspec.key)):
                    # A previous (interrupted) run already completed
                    # this reassigned slice: its checkpointed result
                    # must still reach the merge (the caller surfaces
                    # ``resumed_subs`` alongside the live subshards).
                    work.resumed_subs.append(
                        (subspec.key, self.journal.result(subspec.key)))
                    continue
                work.requeue.append(_Work(
                    spec=subspec, primary=False,
                    retries_left=self.options.max_retries))
            return None
        report.incidents.append(ShardIncident(
            shard=key, attempt=work.attempt, kind=kind, detail=detail,
            resolution="excluded"))
        report.exclusions.append(ShardExclusion(
            shard=key, vantage_ids=list(work.spec.vantage_ids),
            attempts=work.attempt + 1,
            reason=f"retries exhausted; last failure: {kind} "
                   f"({detail})"))
        return None

    def _requeue(self, work: _Work, results: dict, order: list,
                 report, stats: dict, enqueue: Callable) -> None:
        """Surface a reassigned shard's follow-up work into the run.

        Journaled subshard results (``resumed_subs``) enter the merge
        directly — counted as resumed, exactly like primary-spec
        journal hits in :meth:`execute` — while live subshards are
        appended to ``order`` and handed to ``enqueue``.
        """
        for key, result in work.resumed_subs:
            order.append(key)
            results[key] = result
            report.resumed_shards.append(key)
            stats["resumed"] += 1
            self._m_checkpoints.labels("resumed").inc()
        for sub in work.requeue:
            order.append(sub.spec.key)
            enqueue(sub)

    def _chaos_directive(self, work: _Work) -> Optional[ChaosDirective]:
        if self.options.chaos is None:
            return None
        return self.options.chaos.directive(work.spec.key, work.attempt)

    # -- inline backend -------------------------------------------------
    def _run_inline(self, items: list[_Work], results: dict,
                    order: list, report, stats: dict) -> None:
        """Sequential in-process execution (no preemption: injected
        hangs are simulated as already-detected deadline expiries)."""
        queue = deque(items)
        while queue:
            work = queue.popleft()
            directive = self._chaos_directive(work)
            if directive is not None and directive.kind == "abort":
                raise RunAborted(
                    f"injected abort before {work.spec.key} "
                    f"attempt {work.attempt}")
            if work.attempt > 0:
                # Backoff delay — injectable, so tests run instantly.
                self.options.sleep(work.delay)
            follow = self._attempt_inline(work, directive, results,
                                          order, report, stats)
            self._schedule(follow, work, queue, results, order,
                           report, stats)

    def _attempt_inline(self, work, directive, results, order, report,
                        stats):
        try:
            if directive is not None:
                if directive.kind in ("crash", "kill"):
                    raise ChaosDirectiveError("crash",
                                              "injected worker crash")
                if directive.kind == "hang":
                    raise ChaosDirectiveError(
                        "hang", "injected hang (deadline expired)")
                if directive.kind == "lost":
                    self.run_fn(work.spec.task)
                    raise ChaosDirectiveError(
                        "lost", "result dropped in flight")
            result = self.run_fn(work.spec.task)
        except ChaosDirectiveError as chaos_error:
            return self._failure(work, chaos_error.kind,
                                 chaos_error.detail, order, report,
                                 stats)
        except ShardHang as error:
            return self._failure(work, "hang", str(error), order,
                                 report, stats)
        except ResultLost as error:
            return self._failure(work, "lost", str(error), order,
                                 report, stats)
        except Exception as error:  # noqa: BLE001 — crash containment
            return self._failure(
                work, "crash", f"{type(error).__name__}: {error}",
                order, report, stats)
        return self._success(work, result, results, order, report,
                             stats)

    def _schedule(self, follow, work, queue, results, order, report,
                  stats) -> None:
        """Queue a retry or reassigned subshards, preserving order."""
        if follow is not None:
            queue.appendleft(follow)
            return
        self._requeue(work, results, order, report, stats,
                      queue.append)

    # -- process backend ------------------------------------------------
    def _run_processes(self, items: list[_Work], results: dict,
                       order: list, report, stats: dict) -> None:
        """Concurrent per-attempt worker processes with deadlines.

        Each attempt is its own :class:`multiprocessing.Process` and
        pipe: a hard-killed worker is just a dead process (no shared
        pool to poison), and an overdue one is terminated at its
        deadline.
        """
        context = multiprocessing.get_context(
            "fork" if "fork"
            in multiprocessing.get_all_start_methods() else "spawn")
        limit = len(items)
        pending: deque[_Work] = deque(items)
        parked: list[_Work] = []
        active: dict[int, dict] = {}
        try:
            while pending or parked or active:
                now = time.monotonic()
                for work in list(parked):
                    if work.ready_at <= now:
                        parked.remove(work)
                        pending.append(work)
                while pending and len(active) < limit:
                    work = pending.popleft()
                    directive = self._chaos_directive(work)
                    if (directive is not None
                            and directive.kind == "abort"):
                        raise RunAborted(
                            f"injected abort before {work.spec.key} "
                            f"attempt {work.attempt}")
                    self._launch(context, work, directive, active)
                if not active:
                    if parked:
                        wake = min(w.ready_at for w in parked)
                        time.sleep(max(0.0, min(
                            wake - time.monotonic(), 0.05)))
                    continue
                self._poll(active, results, order, report, stats,
                           pending, parked)
        finally:
            for slot in active.values():
                slot["process"].terminate()
                slot["process"].join()

    def _launch(self, context, work: _Work, directive, active) -> None:
        parent, child = context.Pipe(duplex=False)
        kind = directive.kind if directive is not None else None
        process = context.Process(
            target=_process_worker,
            args=(child, self.run_fn, work.spec.task, kind))
        process.start()
        child.close()
        deadline = (None if self.options.shard_timeout is None
                    else time.monotonic() + self.options.shard_timeout)
        active[id(work)] = {"work": work, "process": process,
                            "conn": parent, "deadline": deadline}

    def _poll(self, active, results, order, report, stats, pending,
              parked) -> None:
        now = time.monotonic()
        timeout = 0.05
        deadlines = [s["deadline"] for s in active.values()
                     if s["deadline"] is not None]
        if deadlines:
            timeout = max(0.0, min(min(deadlines) - now, timeout))
        ready = multiprocessing.connection.wait(
            [slot["conn"] for slot in active.values()],
            timeout=timeout)
        finished = []
        for slot_id, slot in active.items():
            work, process, conn = (slot["work"], slot["process"],
                                   slot["conn"])
            follow = _UNRESOLVED
            if conn in ready:
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    process.join()
                    if process.exitcode == 0:
                        follow = self._failure(
                            work, "lost",
                            "worker exited cleanly without a result",
                            order, report, stats)
                    else:
                        follow = self._failure(
                            work, "died",
                            f"worker died with exit code "
                            f"{process.exitcode}",
                            order, report, stats)
                else:
                    process.join()
                    if status == "ok":
                        follow = self._success(work, payload, results,
                                               order, report, stats)
                    else:
                        follow = self._failure(work, "crash", payload,
                                               order, report, stats)
            elif (slot["deadline"] is not None
                  and time.monotonic() >= slot["deadline"]):
                process.terminate()
                process.join()
                follow = self._failure(
                    work, "hang",
                    f"no result within {self.options.shard_timeout}s "
                    "deadline; worker killed",
                    order, report, stats)
            if follow is not _UNRESOLVED:
                conn.close()
                finished.append((slot_id, work, follow))
        for slot_id, work, follow in finished:
            del active[slot_id]
            if follow is not None:
                parked.append(follow)
            else:
                self._requeue(work, results, order, report, stats,
                              pending.append)


#: Sentinel distinguishing "attempt still running" from "no follow-up".
_UNRESOLVED = object()


class ChaosDirectiveError(CampaignError):
    """Internal inline-backend carrier for an injected failure kind."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
