import numpy as np
import pytest

from usev import autodiff as ad
from usev.autodiff import chunk_geometry
from usev.dsp import VISEME_FPS
from usev.gradcheck import MODEL_TOL, micro_config, model_fd_check
from usev.model import UsevConfig, UsevNet

DESK = UsevConfig()  # 8 kHz, N=64, B=16, R=2, K=16


def tiny_inputs(cfg, n_frames=12, seed=0):
    rng = np.random.default_rng(seed)
    n = (n_frames - 1) * cfg.hop + cfg.kernel_len
    spf = cfg.sample_rate // VISEME_FPS
    v_frames = max(1, -(-n // spf))
    return rng.standard_normal(n), rng.uniform(0, 1, (v_frames, cfg.visual_dim))


class TestConfig:
    def test_rejects_odd_kernel(self):
        with pytest.raises(ValueError):
            UsevConfig(kernel_len=41)

    def test_rejects_odd_chunk(self):
        with pytest.raises(ValueError):
            UsevConfig(chunk=15)

    def test_full_scale_values(self):
        cfg = UsevConfig.full_scale()
        assert (cfg.kernel_len, cfg.bottleneck, cfg.encoder_dim,
                cfg.repeats, cfg.chunk) == (40, 64, 256, 6, 100)

    def test_frame_count(self):
        assert UsevConfig(sample_rate=16000).num_frames(16000) == 799

    def test_too_short_clip(self):
        with pytest.raises(ValueError):
            DESK.num_frames(10)


class TestSpeechEncode:
    def test_nonnegative(self):
        net = UsevNet(DESK, seed=1)
        x, _ = tiny_inputs(DESK)
        out = net.speech_encode(x)
        assert np.all(out.data >= 0.0)

    def test_zero_input_zero_bias_gives_zeros(self):
        net = UsevNet(DESK, seed=1)
        net.params["enc.b"].data[:] = 0.0
        out = net.speech_encode(np.zeros(400))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_frame_count_16k(self):
        cfg = UsevConfig(sample_rate=16000)
        net = UsevNet(cfg, seed=0)
        out = net.speech_encode(np.zeros(16000))
        assert out.shape == (cfg.encoder_dim, 799)

    def test_matches_framed_matmul_reference(self):
        cfg = UsevConfig(sample_rate=16000)
        net = UsevNet(cfg, seed=8)
        net.params["enc.b"].data[:] = np.linspace(-0.5, 0.5, cfg.encoder_dim)
        x = np.random.default_rng(8).standard_normal(16000)
        l, hop = cfg.kernel_len, cfg.hop
        want = np.zeros((cfg.encoder_dim, 799))
        for t in range(799):  # one frame at a time, independent of dsp
            want[:, t] = (net.params["enc.w"].data[:, 0, :] @ x[t * hop : t * hop + l]
                          + net.params["enc.b"].data)
        out = net.speech_encode(x).data
        assert out.shape == (cfg.encoder_dim, 799)
        np.testing.assert_allclose(out, np.maximum(want, 0.0), rtol=0, atol=1e-12)


class TestVisualEncode:
    def test_output_length_matches_target(self):
        net = UsevNet(DESK, seed=2)
        rng = np.random.default_rng(0)
        for v_frames in (1, 3, 25, 60):
            v = rng.uniform(0, 1, (v_frames, DESK.visual_dim))
            for t_target in (5, 399, 801):
                out = net.visual_encode(v, t_target)
                assert out.shape == (DESK.encoder_dim, t_target)

    def test_upsampling_repeats_32x_at_16k(self):
        # 25 fps visemes onto 800 embeddings/s -> each frame used 32 times
        cfg = UsevConfig(sample_rate=16000)
        net = UsevNet(cfg, seed=3)
        v = np.random.default_rng(1).uniform(0.1, 1, (25, cfg.visual_dim))
        out = net.visual_encode(v, 799).data
        for t in range(799):
            np.testing.assert_array_equal(out[:, t], out[:, (t // 32) * 32])
        assert not np.array_equal(out[:, 0], out[:, 32])

    def test_frame_on_a_viseme_boundary_takes_that_viseme(self):
        # Desk frames are 20 samples at 8 kHz, 16 per viseme frame. Speech
        # frame 464 starts at 1.16 s, where viseme frame 29 begins; the
        # float time 464 * 20 / 8000 * 25 is 28.999999999999996.
        net = UsevNet(DESK, seed=6)
        v = np.random.default_rng(2).uniform(0.1, 1, (40, DESK.visual_dim))
        out = net.visual_encode(v, 1000).data
        np.testing.assert_array_equal(out[:, 464], out[:, 465])
        assert not np.array_equal(out[:, 463], out[:, 464])
        for t in range(1000):
            np.testing.assert_array_equal(out[:, t], out[:, (t // 16) * 16])

    def test_zero_stream_zero_biases_gives_zeros(self):
        net = UsevNet(DESK, seed=4)
        for name, p in net.params.items():
            if name.endswith((".bias", ".b")) or name.endswith("conv.b"):
                p.data[:] = 0.0
        out = net.visual_encode(np.zeros((10, DESK.visual_dim)), 50)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_wrong_dim_rejected(self):
        net = UsevNet(DESK, seed=5)
        with pytest.raises(ValueError):
            net.visual_encode(np.zeros((10, DESK.visual_dim + 1)), 50)


class TestExtractMask:
    def test_nonnegative_mask(self):
        net = UsevNet(DESK, seed=6)
        x, v = tiny_inputs(DESK)
        speech = net.speech_encode(x)
        visual = net.visual_encode(v, speech.shape[1])
        mask = net.extract_mask(speech, visual)
        assert np.all(mask.data >= 0.0)
        assert mask.shape == speech.shape

    def test_chunk_count_follows_formula(self):
        for t_len in (8, 16, 24, 40):
            _, _, _, num = chunk_geometry(t_len, DESK.chunk)
            if t_len % (DESK.chunk // 2) == 0:
                assert num == 2 * t_len // DESK.chunk + 1

    def test_shape_mismatch_rejected(self):
        net = UsevNet(DESK, seed=7)
        with pytest.raises(ValueError):
            net.extract_mask(ad.Tensor(np.zeros((DESK.encoder_dim, 10))),
                             ad.Tensor(np.zeros((DESK.encoder_dim, 11))))


class TestDecode:
    def test_zero_embeddings_zero_bias_is_silence(self):
        net = UsevNet(DESK, seed=8)
        net.params["dec.b"].data[:] = 0.0
        out = net.decode(ad.Tensor(np.zeros((DESK.encoder_dim, 20))), 420)
        np.testing.assert_array_equal(out.data, 0.0)
        assert out.shape == (420,)

    def test_output_length_always_out_len(self):
        net = UsevNet(DESK, seed=9)
        rng = np.random.default_rng(2)
        emb = ad.Tensor(rng.standard_normal((DESK.encoder_dim, 20)))
        for out_len in (420, 500):
            assert net.decode(emb, out_len).shape == (out_len,)
        # 20 frames at hop 20 and kernel 40 overlap-add to 420 samples.
        for out_len in (300, 400, 401):
            with pytest.raises(ValueError, match=f"420 samples.*{out_len}"):
                net.decode(emb, out_len)

    def test_linearity_with_zero_bias(self):
        net = UsevNet(DESK, seed=10)
        net.params["dec.b"].data[:] = 0.0
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((DESK.encoder_dim, 16))
        one = net.decode(ad.Tensor(emb), 340).data
        three = net.decode(ad.Tensor(3.0 * emb), 340).data
        np.testing.assert_allclose(three, 3.0 * one, atol=1e-12)


class TestForward:
    def test_output_length_equals_input_length(self):
        net = UsevNet(DESK, seed=11)
        for n_frames in (8, 13, 27):
            x, v = tiny_inputs(DESK, n_frames=n_frames)
            assert net.forward(x, v).shape == x.shape

    def test_deterministic(self):
        x, v = tiny_inputs(DESK, seed=5)
        out1 = UsevNet(DESK, seed=12).forward(x, v).data
        out2 = UsevNet(DESK, seed=12).forward(x, v).data
        assert np.array_equal(out1, out2)

    def test_masked_embedding_bound(self):
        net = UsevNet(DESK, seed=13)
        x, v = tiny_inputs(DESK)
        speech = net.speech_encode(x)
        visual = net.visual_encode(v, speech.shape[1])
        mask = net.extract_mask(speech, visual)
        masked = (speech * mask).data
        bound = np.abs(speech.data) * mask.data.max()
        assert np.all(np.abs(masked) <= bound + 1e-12)


class TestParameters:
    def test_full_scale_count_regression(self):
        net = UsevNet(UsevConfig.full_scale(), seed=0)
        # pinned from the architecture definition (visual projection stands
        # in for a full lip-image encoder, so totals are its own)
        assert net.param_count(trainable_only=True) == 3_983_017
        assert net.param_count() - net.param_count(trainable_only=True) == 8 * 256

    def test_count_stable_across_seeds(self):
        a = UsevNet(DESK, seed=0).param_count()
        b = UsevNet(DESK, seed=99).param_count()
        assert a == b

    def test_state_dict_round_trip(self):
        net = UsevNet(DESK, seed=14)
        state = net.state_dict()
        other = UsevNet.from_state_dict(DESK, state)
        x, v = tiny_inputs(DESK, seed=6)
        np.testing.assert_array_equal(net.forward(x, v).data,
                                      other.forward(x, v).data)

    def test_load_rejects_shape_mismatch(self):
        state = UsevNet(DESK, seed=16).state_dict()
        state["enc.w"] = state["enc.w"][:, :, :-2]
        with pytest.raises(ValueError, match="shape mismatch for enc.w"):
            UsevNet.from_state_dict(DESK, state)

    def test_load_rejects_missing_keys(self):
        state = UsevNet(DESK, seed=17).state_dict()
        state.pop("dec.w")
        with pytest.raises(ValueError, match=r"missing \['dec.w'\]"):
            UsevNet.from_state_dict(DESK, state)

    def test_visual_projection_is_frozen(self):
        net = UsevNet(DESK, seed=18)
        assert not net.params["vis.proj"].requires_grad
        assert net.params["enc.w"].requires_grad


def test_micro_gradcheck_quick():
    # single-seed smoke; the acceptance suite runs the full-tolerance check
    assert model_fd_check() <= MODEL_TOL


def test_micro_gradcheck_sees_a_planted_blstm_fault(plant_backward):
    # Enough gradient must reach the DPRNN for a 0.1% BLSTM error to show.
    plant_backward("bilstm", 1.001)
    assert model_fd_check() > MODEL_TOL


def test_micro_config_is_tiny():
    cfg = micro_config()
    net = UsevNet(cfg, seed=0)
    assert net.param_count(trainable_only=True) < 2000
