import os

# The suite runs at one BLAS thread, as perfbench does: byte-identity holds
# at a fixed thread count, and usev starts one worker process per CPU only
# where the BLAS threads leave the CPUs free. numpy reads it at import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import multiprocessing
from collections import Counter

import pytest

from usev import autodiff as ad
from usev import workers


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, such as a worker pool
    that outlived the train or evaluate call that started it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    if left:
        pytest.fail(f"{len(left)} child processes left running: {left}")


@pytest.fixture
def started_pools(monkeypatch):
    """The list of worker pools started while the test runs."""
    pools = []

    class CountedPool(workers.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(workers, "ProcessPoolExecutor", CountedPool)
    return pools


@pytest.fixture(params=["in-process", "pool"])
def dispatch(request, monkeypatch, started_pools):
    """Run every per-clip call in this process, or on a pool of two forked
    workers whatever the CPU count, so both dispatchers are covered on any
    machine; the test must start a pool exactly when it asks for one."""
    pooled = request.param == "pool"
    monkeypatch.setattr(workers, "worker_count",
                        (lambda n: min(2, n)) if pooled else (lambda n: 1))
    yield request.param
    assert bool(started_pools) == pooled


@pytest.fixture
def plant_backward(monkeypatch):
    """plant_backward(op, scale): every `op` node built afterwards hands
    scale * its incoming gradient to its backward rule. That is a wrong
    backward rule, which a finite-difference check must catch."""

    def plant(op: str, scale: float) -> None:
        node = ad._node

        def planted(data, parents, backward_fn, name):
            if name == op:
                return node(data, parents,
                            lambda g: backward_fn(g * scale), name)
            return node(data, parents, backward_fn, name)

        monkeypatch.setattr(ad, "_node", planted)

    return plant


@pytest.fixture
def backward_runs(monkeypatch):
    """A Counter, keyed by node, of how many times each node built
    afterwards has run its backward rule."""
    runs = Counter()
    node = ad._node

    def counting(data, parents, backward_fn, op):
        def counted(g):
            runs[out] += 1
            backward_fn(g)

        out = node(data, parents, counted, op)
        return out

    monkeypatch.setattr(ad, "_node", counting)
    return runs
