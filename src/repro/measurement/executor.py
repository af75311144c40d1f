"""The one span executor behind every parallel phase.

Collection probes, compliance analysis and the client differential all
parallelise the same way: a phase plans a list of independent items,
a *worker* processes one contiguous span of that list, and the phase
fans the span results back out in item order.  :func:`run_spans` owns
everything in between:

* **Worker state by fork.**  The worker is a plain callable (usually a
  closure over the phase's inputs).  It is installed before the pool
  forks, so children inherit it and its inputs copy-on-write; only
  span bounds and results cross the pipe.
* **Ordered spans.**  Items are cut into contiguous spans, submitted
  in order and yielded in order, so the caller's merge is sequenced
  exactly as a one-process run sequences it.
* **Telemetry merge.**  Each forked span runs under a fresh metrics
  registry and tracer (when the parent's are live); the parent folds
  the span's snapshot in with ``merge_snapshot`` and adopts its spans
  on their own Chrome-trace lane.
* **Live view.**  With a :class:`~repro.obs.server.LiveRegistryView`
  attached, forked workers ship partial snapshots over an inherited
  queue every :data:`LIVE_SNAPSHOT_EVERY` items, so ``/metrics`` moves
  while a span is still running.

A pool of one is the same executor without the fork: the worker runs
inline, span by span, against the parent's own registry and tracer.
The pool is capped at ``os.cpu_count()``: oversubscribing cores pays
fork + IPC for no parallelism, so ``workers=4`` on a one-core machine
runs inline.  The ``REPRO_PIPELINE_OVERSUBSCRIBE`` environment variable
lifts the cap, which is how tests force the fork branch anywhere.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro import obs
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, \
    NullMetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "LIVE_SNAPSHOT_EVERY",
    "OVERSUBSCRIBE_ENV",
    "SpanWorker",
    "resolve_workers",
    "run_spans",
]

#: Environment escape hatch for the cpu_count cap (tests use this to
#: exercise the real pool on single-core machines).
OVERSUBSCRIBE_ENV = "REPRO_PIPELINE_OVERSUBSCRIBE"

#: Items a forked worker processes between partial-snapshot shipments
#: to the live view: small enough that ``/metrics`` moves visibly
#: during a long span, large enough that pickling snapshots stays a
#: rounding error next to the work itself.
LIVE_SNAPSHOT_EVERY = 32

#: ``worker(start, end, tick) -> result``: process items
#: ``[start, end)`` and return a picklable result, calling ``tick()``
#: once per item processed.
SpanWorker = Callable[[int, int, Callable[[], None]], Any]


def resolve_workers(requested: int) -> tuple[int, str]:
    """Map a requested worker count to ``(effective, mode)``.

    The effective pool never exceeds ``os.cpu_count()`` unless
    :data:`OVERSUBSCRIBE_ENV` is set: extra processes on a saturated
    CPU only add fork/pickle overhead.  An effective pool of one runs
    in-process (no fork at all), and platforms without the ``fork``
    start method fall back to in-process too — workers inherit their
    inputs copy-on-write rather than pickling them to spawn-started
    processes.
    """
    if requested <= 1:
        return 1, "in-process"
    effective = requested
    if not os.environ.get(OVERSUBSCRIBE_ENV):
        effective = min(requested, os.cpu_count() or 1)
    if effective <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return 1, "in-process"
    return effective, "fork-pool"


def _no_tick() -> None:
    pass


#: ``(worker, live_metrics, live_trace, live_queue)`` for the current
#: pool, installed immediately before the executor forks.
_ACTIVE: tuple | None = None


def _live_ticker(queue, start: int, end: int) -> Callable[[], None]:
    """A per-item tick shipping this span's snapshot-so-far."""
    done = 0

    def tick() -> None:
        nonlocal done, queue
        done += 1
        if (queue is not None and done % LIVE_SNAPSHOT_EVERY == 0
                and done < end - start):
            try:
                queue.put((start, obs.get_metrics().snapshot()))
            except (OSError, ValueError):
                queue = None  # pipe gone; keep working

    return tick


def _run_forked_span(start: int, end: int) -> tuple:
    """Pool entry point: one span under fresh per-span telemetry.

    Returns ``(result, metrics_snapshot, root_spans)``; the snapshot is
    exactly this span's delta because the registry is replaced at the
    start of every span the process handles.
    """
    worker, live_metrics, live_trace, queue = _ACTIVE
    if live_metrics or live_trace:
        obs.enable(
            metrics=MetricsRegistry() if live_metrics else NULL_REGISTRY,
            tracer=Tracer() if live_trace else NULL_TRACER,
        )
    tick = _live_ticker(queue, start, end) if queue is not None else _no_tick
    result = worker(start, end, tick)
    snapshot = obs.get_metrics().snapshot() if live_metrics else None
    spans = obs.get_tracer().roots() if live_trace else None
    return result, snapshot, spans


def _drain_live_snapshots(queue, live_view) -> None:
    """Parent-side pump: worker partials → the live registry view.

    Runs on a daemon thread until the sentinel ``None`` arrives (or the
    queue's pipe dies with the pool).  Strictly read-side: it only ever
    touches the view's partial map, never the real registry.
    """
    while True:
        try:
            item = queue.get()
        except (EOFError, OSError):
            break
        if item is None:
            break
        live_view.update(*item)


def run_spans(worker: SpanWorker, n_items: int, workers: int,
              span_cap: int, live_view=None
              ) -> Iterator[tuple[int, int, Any]]:
    """Run ``worker`` over ``n_items`` in contiguous spans, in order.

    ``workers`` is an effective pool size from :func:`resolve_workers`.
    Yields ``(start, end, result)`` per span in item order; by the
    time a forked span is yielded its metrics are merged into the
    parent registry and its trace spans adopted.  Spans hold
    ``min(span_cap, ceil(n_items / workers))`` items: large enough to
    amortise IPC, small enough that every worker gets a share.
    """
    global _ACTIVE
    if n_items <= 0:
        return
    span = max(1, min(span_cap, math.ceil(n_items / workers)))
    bounds = [(start, min(start + span, n_items))
              for start in range(0, n_items, span)]
    if workers <= 1:
        for start, end in bounds:
            yield start, end, worker(start, end, _no_tick)
        return

    metrics = obs.get_metrics()
    tracer = obs.get_tracer()
    live_metrics = not isinstance(metrics, NullMetricsRegistry)
    live_trace = not isinstance(tracer, NullTracer)
    context = multiprocessing.get_context("fork")
    queue = drainer = None
    if live_view is not None and live_metrics:
        # Workers inherit the queue's write end through fork; the
        # drainer folds their partial snapshots into the live view
        # while the parent blocks in future.result() below.
        queue = context.SimpleQueue()
        drainer = threading.Thread(
            target=_drain_live_snapshots, args=(queue, live_view),
            name="repro-live-drain", daemon=True,
        )
        drainer.start()
    _ACTIVE = (worker, live_metrics, live_trace, queue)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = [pool.submit(_run_forked_span, start, end)
                       for start, end in bounds]
            for lane, ((start, end), future) in enumerate(
                zip(bounds, futures), 1
            ):
                result, snapshot, spans = future.result()
                if snapshot:
                    metrics.merge_snapshot(snapshot)
                if live_view is not None:
                    # the real registry holds this span now; its
                    # partial must leave the composite
                    live_view.discard(start)
                if spans:
                    tracer.adopt(spans, thread_id=lane)
                yield start, end, result
    finally:
        _ACTIVE = None
        if queue is not None:
            queue.put(None)
            drainer.join(timeout=5.0)
            live_view.clear()
