"""Per-clip work on forked worker processes, bit-identical to one process.

The clips of a training step, a validation pass or an evaluation are
independent until the main process adds up their losses and gradients or
writes their outputs. `clip_map` runs one per-clip function over them on a
pool of forked workers: as many as the CPUs this process may run on hold at
the BLAS thread count (`worker_count`), and no more than there are clips.
At one worker, or where the `fork` start method is missing, the same
function runs in this process through the builtin `map`.
Either way it runs on a replica of the model, whose parameter tensors view
the model's arrays but keep their own `.grad`, and the results come back in
item order, so the main process sums and checks them as one process would.
"""

from __future__ import annotations

import copy
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from .autodiff import Tensor

_replica = None  # a worker's model, set as the pool forks the worker


def worker_count(n_clips: int) -> int:
    """Workers for a call over n_clips clips: the usable CPUs divided by
    each worker's BLAS threads, at least one and at most one per clip.
    OpenBLAS runs OPENBLAS_NUM_THREADS threads, else OMP_NUM_THREADS, else
    one per CPU; workers whose idle BLAS threads spin on each other's cores
    run slower together than one process alone."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    blas = (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS") or "")
    per_worker = int(blas) if blas.isdigit() and int(blas) > 0 else cpus
    return max(1, min(cpus // per_worker, n_clips))


def _replica_of(model):
    """A shell of `model` whose parameter tensors view the same arrays but
    keep their own gradients."""
    rep = copy.copy(model)
    rep.params = {k: Tensor(p.data, p.requires_grad)
                  for k, p in model.params.items()}
    return rep


def in_process(model):
    """map_clips(fn, items): fn(replica, item) for each item, in this
    process."""
    rep = _replica_of(model)
    return lambda fn, items: map(partial(fn, rep), items)


def _share(model) -> None:
    """Move the parameters into one anonymous shared mapping, in place, so
    that updates the main process makes to them reach forked workers."""
    params = list(model.params.values())
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(p.size for p in params)),
                         dtype=np.float64)
    at = 0
    for p in params:
        view = flat[at : at + p.size].reshape(p.shape)
        view[...] = p.data
        p.data, at = view, at + p.size


def _start(rep) -> None:
    global _replica
    _replica = rep


def _on_replica(fn, item):
    return fn(_replica, item)


@contextmanager
def clip_map(model, n_clips: int, share: bool = False):
    """Yield map_clips(fn, items), an iterator of fn(replica, item) over
    items in order, that runs on a worker pool living for this block. `fn`
    and the items go to the workers by pickle, and so do the results on
    their way back. `share` moves the parameters into shared memory before
    any worker forks, for a caller that updates them while the pool lives."""
    n = worker_count(n_clips)
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield in_process(model)
        return
    if share:
        _share(model)
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start, initargs=(_replica_of(model),))
    try:
        yield lambda fn, items: pool.map(partial(_on_replica, fn), items)
    finally:
        pool.shutdown(cancel_futures=True)
