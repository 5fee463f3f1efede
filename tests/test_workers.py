import os

import numpy as np
import pytest

from usev import workers
from usev.model import UsevConfig, UsevNet

TINY_MODEL = UsevConfig(sample_rate=8000, encoder_dim=8, kernel_len=8,
                        bottleneck=4, repeats=1, chunk=8, vtcn_repeats=1,
                        visual_dim=8)


@pytest.mark.parametrize("env, want", [
    ({}, 1),  # BLAS takes every CPU itself
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many"}, 1),
])
def test_worker_count_leaves_the_blas_threads_their_cpus(monkeypatch, env,
                                                         want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert workers.worker_count(8) == want
    assert workers.worker_count(1) == 1


def _param_sum(model, name):
    return float(model.params[name].data.sum())


def _grad_of(model, item):
    p = model.params["dec.b"]
    p.grad = np.full(p.shape, float(item))
    return p.grad


def test_pool_sees_every_update_of_shared_parameters(dispatch):
    net = UsevNet(TINY_MODEL, seed=0)
    before = {k: p.data.copy() for k, p in net.params.items()}
    with workers.clip_map(net, 2, share=True) as map_clips:
        for k, p in net.params.items():
            np.testing.assert_array_equal(p.data, before[k], err_msg=k)
        for step in range(3):
            net.params["dec.w"].data += 1.0  # in place, as Adam updates
            want = _param_sum(net, "dec.w")
            assert list(map_clips(_param_sum, ["dec.w"] * 3)) == [want] * 3


def test_replica_keeps_its_own_gradients(dispatch):
    net = UsevNet(TINY_MODEL, seed=0)
    with workers.clip_map(net, 2) as map_clips:
        grads = list(map_clips(_grad_of, [1, 2, 3]))
    assert [g[0] for g in grads] == [1.0, 2.0, 3.0]
    assert all(p.grad is None for p in net.params.values())


def test_error_in_a_worker_reaches_the_caller(dispatch):
    net = UsevNet(TINY_MODEL, seed=0)
    with pytest.raises(KeyError, match="no.such"):
        with workers.clip_map(net, 2) as map_clips:
            list(map_clips(_param_sum, ["dec.w", "no.such"]))
