"""The package's one process pool: :func:`ordered_map`, behind Stage-I
extraction, simulation sweeps and ``--jobs`` experiment fan-out."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro import obs


class FanoutError(RuntimeError):
    """A worker process died before returning its results (CLI exit 2)."""


#: The mapped callable, installed in each pool worker by its initializer.
_worker_call: Optional[Callable] = None


def _init_worker(context, call: Callable) -> None:
    global _worker_call
    obs.activate_context(context)
    _worker_call = call


def _call(item):
    return _worker_call(item)


def ordered_map(
    fn: Callable,
    items: Iterable,
    *,
    workers: int,
    label: str,
    chunksize: int = 1,
) -> List:
    """``[fn(item) for item in items]`` over ``min(workers, len(items))``
    processes, in item order whichever worker finishes first.

    ``fn``, with any arguments bound to it by :func:`functools.partial`,
    reaches each worker once, through the pool initializer, and is never
    pickled per item.  Items travel in chunks of ``chunksize``.  Workers
    adopt the caller's trace context, so their spans (in files labelled
    ``label``) re-parent under the span open at the call.  With one
    worker or one item, ``fn`` runs in the calling process and no pool
    starts.

    An exception raised by ``fn`` reaches the caller unchanged; a worker
    that dies (killed, out of memory) raises :class:`FanoutError`
    instead of hanging.  The pool uses the platform's default start
    method (``fork`` on Linux, whose start-up costs milliseconds where
    ``spawn`` costs a large fraction of a second); ``fn`` and the items
    stay picklable so platforms that spawn keep working.
    """
    items = list(items)
    n_workers = min(workers, len(items))
    if n_workers <= 1:
        return [fn(item) for item in items]
    # Imported here: a run that never fans out should not pay for it.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = obs.current_context(label=label)
    try:
        with ProcessPoolExecutor(
            n_workers, initializer=_init_worker, initargs=(context, fn)
        ) as pool:
            return list(pool.map(_call, items, chunksize=chunksize))
    except BrokenProcessPool as error:
        raise FanoutError(
            f"a worker process ({label}) died before returning its results"
        ) from error
