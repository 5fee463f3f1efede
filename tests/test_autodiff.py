import re
import struct
import threading

import numpy as np
import pytest

from usev import autodiff as ad
from usev.autodiff import Adam, Tensor
from usev.checkpoint import load_checkpoint, save_checkpoint
from usev.gradcheck import (OP_CHECKS, OP_TOL, fd_check, max_rel_err, micro_config,
                            run_gradcheck)
from usev.harness import load_model, save_model
from usev.losses import LossWeights, tensor_loss_differentiated
from usev.model import UsevConfig, UsevNet
from usev.scenario import label_scenarios


def desk_loss():
    """Differentiated loss of one desk-config forward on half a second."""
    cfg = UsevConfig()
    model = UsevNet(cfg, seed=0)
    rng = np.random.default_rng(12)
    n = cfg.sample_rate // 2
    est = model.forward(rng.standard_normal(n),
                        rng.uniform(size=(13, cfg.visual_dim)))
    track = label_scenarios(np.arange(n) < n // 2, np.arange(n) >= n // 4)
    return tensor_loss_differentiated(est, rng.standard_normal(n), track,
                                      LossWeights())


def _thread_every_bilstm(monkeypatch, threaded: bool = True) -> list:
    """Move bilstm's threshold so that every call (threaded) or no call
    runs direction 1 on a worker thread; the returned list gains one entry
    per worker started."""
    monkeypatch.setattr(ad, "BILSTM_THREAD_MACS", 1 if threaded else 10**18)
    workers = []

    class Recording(ad.ThreadPoolExecutor):
        def submit(self, fn, *args):
            workers.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(ad, "ThreadPoolExecutor", Recording)
    return workers


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_norm_sq_gradient_is_2x(self):
        v = np.array([1.0, -2.0, 0.5])
        x = Tensor(v, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * v, rtol=1e-15)

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_reused_node_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * 4.0  # dy/dx = 2x + 4 = 10
        y.backward()
        assert x.grad == pytest.approx(10.0)

    def test_each_node_backward_runs_once(self, backward_runs):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        a = ad.relu(x)
        b = ad.log(x * x + 1.0)
        c = (a + b) * a  # diamond: a consumed twice
        loss = c.sum()
        order = ad.toposort(loss)
        loss.backward()
        for node in order:
            if node._backward_fn is not None:
                assert backward_runs[node] == 1

    def test_backward_frees_interior_gradients(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        a = ad.relu(ad.linear(x, w, b))
        loss = ((a + ad.log(x * x + 1.0)) * a).sum()
        order = ad.toposort(loss)
        loss.backward()
        assert all(node.grad is None for node in order
                   if node._backward_fn is not None)
        for leaf in (x, w, b):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_second_backward_doubles_leaf_gradient(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5)
        x = Tensor(v, requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        once = x.grad.copy()
        np.testing.assert_array_equal(once, 2 * v)
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * once)

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
            w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
            b = Tensor(rng.standard_normal(5), requires_grad=True)
            loss = (ad.relu(ad.linear(x, w, b)) * ad.log(x * x + 1.0)).sum()
            loss.backward()
            return x.grad.copy(), w.grad.copy(), b.grad.copy()

        for first, second in zip(run(), run()):
            assert np.array_equal(first, second)

    def test_constant_folding_without_grad(self):
        x = Tensor(np.ones(4))
        y = ad.relu(x * 2.0)
        assert y._backward_fn is None and y._parents == ()

    def test_no_grad_context(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with ad.no_grad([x]):
            y = x * 3.0
            assert y._parents == ()
        assert x.requires_grad


class TestOpForwards:
    def test_relu(self):
        assert ad.relu(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]

    # depthwise_conv1d is the one convolution op left; the speech encoder
    # is a framed matmul (tests/test_model.py::TestSpeechEncode).
    def test_conv1d_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 7)))
        w = Tensor(np.tile([0.0, 1.0, 0.0], (3, 1, 1)))
        out = ad.depthwise_conv1d(x, w, Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv1d_output_length(self):
        for t_len, k in ((1, 3), (2, 3), (9, 5), (400, 3)):
            out = ad.depthwise_conv1d(Tensor(np.ones((4, t_len))),
                                      Tensor(np.ones((4, 1, k))),
                                      Tensor(np.zeros(4)))
            assert out.shape == (4, t_len)

    def test_conv1d_shape_errors(self):
        x, b = Tensor(np.ones((3, 5))), Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="odd kernel"):
            ad.depthwise_conv1d(x, Tensor(np.ones((3, 1, 2))), b)
        with pytest.raises(ValueError):  # channel mismatch in w
            ad.depthwise_conv1d(x, Tensor(np.ones((2, 1, 3))), b)
        with pytest.raises(ValueError):  # channel mismatch in b
            ad.depthwise_conv1d(x, Tensor(np.ones((3, 1, 3))),
                                Tensor(np.zeros(2)))
        with pytest.raises(ValueError):  # grouped, not depthwise
            ad.depthwise_conv1d(x, Tensor(np.ones((3, 3, 3))), b)

    def test_layer_norm_constant_vector_zeroes(self):
        x = Tensor(np.full((4, 3), 2.5))
        out = ad.layer_norm(x, Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_layer_norm_all_zero_input_stays_zero(self):
        x = Tensor(np.zeros((4, 3)))
        out = ad.layer_norm(x, Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    @pytest.mark.parametrize("shape", [(5, 7), (4, 3, 6)])
    def test_layer_norm_matches_op_sequence_oracle(self, shape):
        # The op sequence of the unfused layer norm, in numpy: the fused
        # forward must reproduce it bit for bit, all-zero slice included.
        rng = np.random.default_rng(21)
        x = rng.standard_normal(shape)
        x[:, 1] = 0.0
        gain = rng.uniform(0.5, 1.5, size=(shape[0],) + (1,) * (len(shape) - 1))
        bias = rng.standard_normal(gain.shape)
        inv_n = 1.0 / shape[0]
        centered = x - x.sum(axis=0, keepdims=True) * inv_n
        var = (centered * centered).sum(axis=0, keepdims=True) * inv_n
        want = centered / np.sqrt(var + ad.LN_EPS) * gain + bias
        taped = ad.layer_norm(Tensor(x), Tensor(gain, requires_grad=True),
                              Tensor(bias, requires_grad=True))
        assert taped.op == "layer_norm"
        np.testing.assert_array_equal(taped.data, want)
        assert np.all(taped.data[:, 1] == bias[:, 0])  # zero slice -> bias

    def test_overlap_add_zero_fills_to_out_len(self):
        # frames [L, T] = [4, 3] at hop 2 cover 8 samples; 3 more are zero
        # and their gradient never reaches the frames.
        rng = np.random.default_rng(9)
        frames = rng.standard_normal((4, 3))
        out = ad.overlap_add_frames(Tensor(frames), 2, 11).data
        want = np.zeros(11)
        for t in range(3):
            want[2 * t : 2 * t + 4] += frames[:, t]
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
        proj = rng.standard_normal(11)
        err = fd_check(lambda t: (ad.overlap_add_frames(t["f"], 2, 11)
                                  * proj).sum(), {"f": frames})
        assert err <= OP_TOL

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3,), (3, 2)), ((2, 3), (3, 2, 1)), ((2, 3), (4, 2))],
        ids=["1d_a", "3d_b", "k_mismatch"])
    def test_linear_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=re.escape(f"{a_shape} @ {b_shape}")):
            ad.linear(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)),
                      Tensor(np.zeros(1)))

    # W [N, K] @ x [K, T] + b [N, 1] (channels first) and x [T, batch, K] @
    # W [K, N] + b [N] (the DPRNN projection).
    @pytest.mark.parametrize("shapes", [((5, 3), (3, 4), (5, 1)),
                                        ((3, 2, 4), (4, 5), (5,))],
                             ids=["2d", "3d"])
    def test_linear_matches_matmul_add_reshape_oracle(self, shapes):
        # The unfused chain in numpy: reshape a to 2-D, matmul, add the
        # bias, reshape back; backward through the same steps in reverse.
        # The fused node must reproduce every value bit for bit.
        rng = np.random.default_rng(22)
        a, b, bias = (rng.standard_normal(s) for s in shapes)
        a2 = a.reshape(-1, a.shape[-1])
        out2 = a2 @ b + bias
        proj = rng.standard_normal(a.shape[:-1] + (b.shape[1],))
        g2 = proj.reshape(out2.shape)
        dbias = g2.sum(axis=0) if bias.ndim == 1 else g2.sum(axis=1, keepdims=True)
        ta, tb, tbias = (Tensor(v, requires_grad=True) for v in (a, b, bias))
        out = ad.linear(ta, tb, tbias)
        assert out.op == "linear"
        np.testing.assert_array_equal(out.data, out2.reshape(proj.shape))
        (out * proj).sum().backward()
        np.testing.assert_array_equal(ta.grad, (g2 @ b.T).reshape(a.shape))
        np.testing.assert_array_equal(tb.grad, a2.T @ g2)
        np.testing.assert_array_equal(tbias.grad, dbias)


class TestChunking:
    def test_p_formula_exact_fit(self):
        # P = 2T/K + 1 whenever T is a multiple of K/2
        for k in (4, 8, 16, 100):
            for mult in (1, 2, 3, 7):
                t_len = mult * (k // 2)
                _, _, _, num = ad.chunk_geometry(t_len, k)
                assert num == 2 * t_len // k + 1

    def test_t_equals_k_gives_3(self):
        _, _, _, num = ad.chunk_geometry(16, 16)
        assert num == 3

    def test_odd_chunk_rejected(self):
        with pytest.raises(ValueError):
            ad.chunk_geometry(10, 5)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            b = int(rng.integers(1, 4))
            t_len = int(rng.integers(3, 200))
            k = 2 * int(rng.integers(1, 12))
            x = rng.standard_normal((b, t_len))
            back = ad.aggregate_chunks(ad.segment_chunks(Tensor(x), k), t_len)
            np.testing.assert_allclose(back.data, x, atol=1e-12)

    def test_segment_shape(self):
        x = Tensor(np.ones((2, 16)))
        out = ad.segment_chunks(x, 16)
        assert out.shape == (2, 16, 3)

    def test_aggregate_chunk_count_mismatch(self):
        with pytest.raises(ValueError):
            ad.aggregate_chunks(Tensor(np.ones((1, 4, 9))), 5)

    def test_adjoint_up_to_count_normalization(self):
        # segment and count-normalized aggregate are mutual adjoints up to
        # the normalization: <segment(x), Y> = <x, aggregate_unnorm(Y)> where
        # aggregate_unnorm = aggregate * counts; verified via backward.
        rng = np.random.default_rng(3)
        t_len, k = 21, 6
        x = rng.standard_normal((1, t_len))
        xt = Tensor(x, requires_grad=True)
        seg = ad.segment_chunks(xt, k)
        y = rng.standard_normal(seg.shape)
        (seg * y).sum().backward()
        # <segment(x), y> == <x, segment^T(y)> with segment^T = backward map
        lhs = float(np.sum(seg.data * y))
        rhs = float(np.sum(x * xt.grad)) / 1.0
        # backward of (seg*y).sum wrt x IS segment^T y; inner products agree
        yt = Tensor(y, requires_grad=True)
        agg = ad.aggregate_chunks(yt, t_len)
        (agg * x).sum().backward()
        lhs2 = float(np.sum(agg.data * x))
        rhs2 = float(np.sum(y * yt.grad))
        assert lhs == pytest.approx(np.dot(x.ravel(), xt.grad.ravel()), rel=1e-12)
        assert lhs2 == pytest.approx(rhs2, rel=1e-12)


class TestBilstm:
    def test_zero_everything_gives_zero_output(self):
        t_len, f, h = 4, 3, 2
        zeros = lambda *s: Tensor(np.zeros(s))
        out = ad.bilstm(Tensor(np.zeros((t_len, f))),
                        zeros(f, 4 * h), zeros(h, 4 * h), zeros(4 * h),
                        zeros(f, 4 * h), zeros(h, 4 * h), zeros(4 * h))
        np.testing.assert_array_equal(out.data, np.zeros((t_len, 2 * h)))

    def test_t1_matches_cell_oracle(self):
        rng = np.random.default_rng(4)
        f, h = 3, 2
        x = rng.standard_normal((1, f))
        wx = rng.standard_normal((f, 4 * h))
        wh = rng.standard_normal((h, 4 * h))
        b = rng.standard_normal(4 * h)

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        # independent single-cell implementation
        z = x @ wx + b
        i, fg = sigmoid(z[:, :h]), sigmoid(z[:, h:2 * h])
        g, o = np.tanh(z[:, 2 * h:3 * h]), sigmoid(z[:, 3 * h:])
        c = i * g
        want_h = o * np.tanh(c)

        out = ad.bilstm(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b),
                        Tensor(wx), Tensor(wh), Tensor(b))
        np.testing.assert_allclose(out.data[:, :h], want_h, rtol=1e-12)
        np.testing.assert_allclose(out.data[:, h:], want_h, rtol=1e-12)

    def test_backward_direction_reverses_time(self):
        rng = np.random.default_rng(5)
        f, h, t_len = 2, 2, 5
        x = rng.standard_normal((t_len, f))
        params = [rng.standard_normal(s) * 0.5
                  for s in ((f, 4 * h), (h, 4 * h), (4 * h,))]
        out = ad.bilstm(Tensor(x), *(Tensor(p) for p in params),
                        *(Tensor(p) for p in params))
        rev = ad.bilstm(Tensor(x[::-1].copy()), *(Tensor(p) for p in params),
                        *(Tensor(p) for p in params))
        # forward half on x equals backward half on reversed x, reversed
        np.testing.assert_allclose(out.data[:, :h], rev.data[::-1, h:],
                                   rtol=1e-12)

    @staticmethod
    def _unrolled_oracle(x, params):
        """Independent numpy BLSTM: each direction stepped on its own."""
        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        t_len, batch, _ = x.shape
        halves = []
        for (wx, wh, b), steps in zip(
                (params[:3], params[3:]),
                (range(t_len), range(t_len - 1, -1, -1))):
            h = wh.shape[0]
            hs, hc = np.zeros((batch, h)), np.zeros((batch, h))
            half = np.zeros((t_len, batch, h))
            for t in steps:
                z = x[t] @ wx + hs @ wh + b
                hc = (sigmoid(z[:, h:2 * h]) * hc
                      + sigmoid(z[:, :h]) * np.tanh(z[:, 2 * h:3 * h]))
                hs = sigmoid(z[:, 3 * h:]) * np.tanh(hc)
                half[t] = hs
            halves.append(half)
        return np.concatenate(halves, axis=2)

    def _assert_matches_oracle(self, t_len, batch):
        rng = np.random.default_rng(10 * t_len + batch)
        f, h = 4, 3
        x = rng.standard_normal((t_len, batch, f))
        params = [rng.standard_normal(s) * 0.5
                  for s in ((f, 4 * h), (h, 4 * h), (4 * h,)) * 2]
        want = self._unrolled_oracle(x, params)
        # batch 1 goes through the unbatched [T, F] form
        got = ad.bilstm(Tensor(x[:, 0] if batch == 1 else x),
                        *(Tensor(p) for p in params)).data
        assert got.shape == ((t_len, 2 * h) if batch == 1
                             else (t_len, batch, 2 * h))
        np.testing.assert_allclose(got.reshape(want.shape), want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 2, 5])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_fused_matches_unrolled_oracle(self, t_len, batch):
        self._assert_matches_oracle(t_len, batch)

    @pytest.mark.parametrize("t_len", [1, 2, 5])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_threaded_matches_unrolled_oracle(self, t_len, batch, monkeypatch):
        workers = _thread_every_bilstm(monkeypatch)
        self._assert_matches_oracle(t_len, batch)
        assert workers

    def test_no_grad_output_is_bit_identical_to_taped(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 3, 4))
        params = [Tensor(rng.standard_normal(s) * 0.5, requires_grad=True)
                  for s in ((4, 8), (2, 8), (8,)) * 2]
        taped = ad.bilstm(Tensor(x), *params)
        assert taped.op == "bilstm"
        with ad.no_grad(params):
            folded = ad.bilstm(Tensor(x), *params)
        assert folded.op == "leaf"
        np.testing.assert_array_equal(folded.data, taped.data)

    @pytest.mark.parametrize("shape", [(6, 5), (6, 3, 5)])
    @pytest.mark.parametrize("taped", [True, False])
    def test_threaded_is_bit_identical_to_single_loop(self, monkeypatch, shape, taped):
        rng = np.random.default_rng(13)
        f, h = shape[-1], 4
        arrays = [rng.standard_normal(shape)] + [
            rng.standard_normal(s) * 0.5 for s in ((f, 4 * h), (h, 4 * h), (4 * h,)) * 2]
        upstream = Tensor(rng.standard_normal(shape[:-1] + (2 * h,)))

        def run(threaded):
            workers = _thread_every_bilstm(monkeypatch, threaded)
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            if taped:
                out = ad.bilstm(*ts)
                (out * upstream).sum().backward()
                results = [out.data] + [t.grad for t in ts]
            else:
                with ad.no_grad(ts):
                    results = [ad.bilstm(*ts).data]
            assert len(workers) == threaded
            return results

        single, threaded = run(False), run(True)
        assert len(single) == (8 if taped else 1)
        for want, got in zip(single, threaded):
            np.testing.assert_array_equal(got, want)

    def test_worker_fault_reaches_caller_and_no_thread_survives(self, monkeypatch):
        _thread_every_bilstm(monkeypatch)
        caller = threading.current_thread()
        matmul = np.matmul

        def faulty(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise RuntimeError("planted fault in direction 1")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(ad.np, "matmul", faulty)
        rng = np.random.default_rng(14)
        params = [Tensor(rng.standard_normal(s)) for s in ((3, 8), (2, 8), (8,)) * 2]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="planted fault in direction 1"):
            ad.bilstm(Tensor(rng.standard_normal((4, 3))), *params)
        assert threading.active_count() == before

    def test_desk_model_never_threads(self, monkeypatch):
        # The largest desk-config call: a 5 s clip at 8 kHz, as the corpus
        # workload evaluates it, whose intra-chunk call has a batch of 251.
        monkeypatch.setattr(ad, "ThreadPoolExecutor", None)  # a threaded call fails
        cfg = UsevConfig()
        model = UsevNet(cfg, seed=0)
        rng = np.random.default_rng(15)
        with ad.no_grad(model.trainable_params()):
            model.forward(rng.standard_normal(5 * cfg.sample_rate),
                          rng.uniform(size=(125, cfg.visual_dim)))

    def test_desk_graph_has_one_node_per_blstm(self):
        ops = [node.op for node in ad.toposort(desk_loss())]
        cfg = UsevConfig()
        assert ops.count("bilstm") == 2 * cfg.repeats
        assert "lstm_cell" not in ops
        # Three per V-TCN block, one at the extractor input, one per DPRNN half.
        assert ops.count("layer_norm") == 3 * cfg.vtcn_repeats + 1 + 2 * cfg.repeats
        assert "sqrt" not in ops
        # One per affine map: two per V-TCN block, one per DPRNN half, and
        # the encoder, ext.lin1, ext.lin2, ext.lin5 and the decoder. The
        # bias adds and the DPRNN reshapes are folded in; the encoder's two
        # weight reshapes are the only ones left.
        assert ops.count("linear") == 2 * cfg.vtcn_repeats + 2 * cfg.repeats + 5
        assert ops.count("reshape") == 2
        assert "matmul" not in ops


class TestGradientChecks:
    @pytest.mark.parametrize("name", sorted(OP_CHECKS))
    def test_op(self, name):
        err = max(OP_CHECKS[name](seed) for seed in range(3))
        assert err <= OP_TOL, f"{name}: max rel err {err}"

    def test_bilstm_threaded(self, monkeypatch):
        workers = _thread_every_bilstm(monkeypatch)
        err = max(OP_CHECKS["bilstm"](seed) for seed in range(3))
        assert workers
        assert err <= OP_TOL, f"threaded bilstm: max rel err {err}"

    def test_negative_control_detects_corruption(self, plant_backward):
        plant_backward("relu", 1.5)
        assert OP_CHECKS["relu"](0) > OP_TOL

    def test_unknown_scope_names_the_choices(self):
        with pytest.raises(ValueError, match=re.escape(
                "scope must be one of ('all', 'ops', 'model'), got 'op'")):
            run_gradcheck(scope="op")

    def test_fd_check_harness_on_known_graph(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3))
        err = fd_check(lambda t: (t["x"] * t["x"]).sum(), {"x": x})
        assert err <= 1e-7

    def test_max_rel_err_zero_grads(self):
        assert max_rel_err(np.zeros(4), np.zeros(4)) == 0.0

    def test_every_desk_graph_op_is_checked(self, monkeypatch):
        # Every op a training step builds must be built by some OP_CHECKS
        # entry, so a new op cannot reach the model without an FD check.
        graph_ops = {node.op for node in ad.toposort(desk_loss())} - {"leaf"}
        checked = set()
        node = ad._node

        def recording(data, parents, backward_fn, op):
            checked.add(op)
            return node(data, parents, backward_fn, op)

        monkeypatch.setattr(ad, "_node", recording)
        for check in OP_CHECKS.values():
            check(0)
        assert graph_ops - checked == set()
        assert "depthwise_conv1d" in graph_ops


class TestAdam:
    def test_single_step_moves_by_lr(self):
        # f(x) = x^2 at x = 1: grad 2; bias-corrected first step is
        # lr * g / (|g| + eps) ~= lr
        x = Tensor(np.array(1.0), requires_grad=True)
        opt = Adam([x], lr=0.1)
        (x * x).backward()
        opt.step()
        # hand-iterated update equations
        m = 0.1 * 2.0
        v = 0.001 * 4.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert x.data == pytest.approx(want, rel=1e-12)
        assert x.data == pytest.approx(0.9, abs=1e-8)

    def test_converges_on_quadratic(self):
        x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
        opt = Adam([x], lr=0.05)
        for _ in range(600):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert np.max(np.abs(x.data)) < 1e-2

    def test_skips_frozen_params(self):
        frozen = Tensor(np.array(1.0), requires_grad=False)
        live = Tensor(np.array(1.0), requires_grad=True)
        opt = Adam([frozen, live], lr=0.1)
        assert opt.params == [live]


class TestCheckpoint:
    def test_round_trip_f64(self, tmp_path):
        rng = np.random.default_rng(7)
        tensors = {"a.w": rng.standard_normal((3, 4)),
                   "b.bias": rng.standard_normal(5)}
        meta = {"epoch": 2, "model_config": {"chunk": 16}}
        save_checkpoint(tmp_path / "m.ckpt", tensors, meta)
        back, meta2 = load_checkpoint(tmp_path / "m.ckpt")
        assert meta2 == meta
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"NOTACKPTxxxx")
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "junk.ckpt")

    @staticmethod
    def _micro_checkpoint(path):
        save_model(path, UsevNet(micro_config()))
        return path.read_bytes()

    @staticmethod
    def _truncations(raw):
        """{offset: what the error must say} for every offset of the magic,
        header, metadata and tensor count and, for each tensor, the first
        byte of each field (name length, name, dtype, shape, payload) and one
        byte inside it. Walks the saved layout."""
        meta_end = 16 + struct.unpack_from("<I", raw, 12)[0]
        cuts = {k: "not a checkpoint file" for k in range(8)}
        for field, start, end in (("header", 8, 16),
                                  ("metadata", 16, meta_end),
                                  ("tensor count", meta_end, meta_end + 4)):
            cuts.update((k, f"truncated {field}:") for k in range(start, end))
        pos = meta_end + 4
        for i in range(struct.unpack_from("<I", raw, meta_end)[0]):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            name = raw[pos + 2 : pos + 2 + name_len].decode()
            ndim = raw[pos + 3 + name_len]
            shape = struct.unpack_from(f"<{ndim}I", raw, pos + 4 + name_len)
            for field, size in ((f"tensor {i} name", 2),
                                (f"tensor {i} name", name_len),
                                (f"{name} dtype", 2), (f"{name} shape", 4 * ndim),
                                (f"{name} payload", 8 * int(np.prod(shape)))):
                cuts.update((k, f"truncated {field}:")
                            for k in range(pos, pos + min(size, 2)))
                pos += size
        assert pos == len(raw)
        return cuts

    def test_every_truncation_names_the_file(self, tmp_path):
        raw = self._micro_checkpoint(tmp_path / "m.ckpt")
        cut = tmp_path / "t.ckpt"
        for k in sorted(self._truncations(raw)):
            cut.write_bytes(raw[:k])
            with pytest.raises(ValueError, match=re.escape(str(cut))):
                load_model(cut)

    def test_every_truncation_names_the_field(self, tmp_path):
        raw = self._micro_checkpoint(tmp_path / "m.ckpt")
        cut = tmp_path / "t.ckpt"
        for k, says in sorted(self._truncations(raw).items()):
            cut.write_bytes(raw[:k])
            with pytest.raises(ValueError, match=re.escape(says)):
                load_checkpoint(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._micro_checkpoint(path) + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,field", [
        (lambda c: {**c, "kernal_len": 4}, "kernal_len"),  # unknown
        (lambda c: {k: v for k, v in c.items() if k != "chunk"}, "chunk"),
        (lambda c: {**c, "kernel_len": "4"}, "kernel_len"),  # mistyped
    ])
    def test_bad_model_config_names_the_file(self, tmp_path, edit, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, UsevNet(micro_config()).state_dict(),
                        {"model_config": edit(micro_config().__dict__)})
        with pytest.raises(ValueError, match=rf"fields \['{field}'\]") as err:
            load_model(path)
        assert str(path) in str(err.value)
