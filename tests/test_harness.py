import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from usev import autodiff as ad
from usev.checkpoint import load_checkpoint
from usev.config import load_config
from usev.dsp import VISEME_FPS, AudioClip
from usev.harness import (DEFAULT_WEIGHT_GRID, LOSSES, TrainConfig,
                          _clip_loss_graph, _random_crop, crop_samples,
                          evaluate, extraction_pairs, learning_rate,
                          load_model, save_model, sweep_weights, train,
                          train_step)
from usev.losses import LossWeights
from usev.metrics import eval_report
from usev.mixsim import SimConfig, iter_corpus, write_corpus
from usev.model import UsevConfig, UsevNet

TINY_MODEL = UsevConfig(sample_rate=8000, encoder_dim=8, kernel_len=8,
                        bottleneck=4, repeats=1, chunk=8, vtcn_repeats=1,
                        visual_dim=8)
TINY_SIM = SimConfig(clip_s=(0.6, 0.8), utterance_s=(3.0, 4.0),
                     n_utterances=8, n_speakers=4)


@pytest.fixture(scope="module")
def tiny_records():
    return list(iter_corpus(TINY_SIM, 4, seed=31))


def tiny_crops(records, n: int, seed: int = 0):
    """n seeded 0.5 s training crops, cycling through the records."""
    rng = np.random.default_rng(seed)
    n_trunc = crop_samples(TrainConfig(clip_truncate_s=0.5), TINY_MODEL)
    spf = TINY_MODEL.sample_rate // VISEME_FPS
    return [_random_crop(rng, records[i % len(records)], n_trunc, spf)
            for i in range(n)]


def summed_graph_step(cfg, model, opt, crops) -> float:
    """Reference step: every clip's loss graph built first, summed, and
    backpropagated once, then one Adam step."""
    opt.zero_grad()
    terms = [_clip_loss_graph(cfg, model.forward(mix, vis), ref, track)
             for mix, ref, vis, track in crops]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    loss = total * (1.0 / len(terms))
    loss.backward()
    opt.step()
    return loss.item()


class TestTrainConfig:
    def test_lr_schedule_closed_form(self):
        cfg = TrainConfig(lr0=0.001)
        assert learning_rate(cfg, 2) == pytest.approx(0.0009604, abs=1e-12)
        assert learning_rate(cfg, 0) == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_per_epoch=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="mse")


class TestTrainLoop:
    def test_early_stop_after_exact_patience(self, tiny_records, tmp_path):
        # lr 0 -> weights never move -> val loss constant -> epoch 0 is best
        # and every later epoch is non-improving
        cfg = TrainConfig(lr0=0.0, max_epochs=50, patience=3, batch_size=2,
                          clip_truncate_s=0.5, loss="uniform", seed=0)
        result = train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path)
        assert len(result.history) == 1 + 3
        assert load_checkpoint(result.best_checkpoint)[1]["epoch"] == 0

    def test_best_checkpoint_never_worse_than_history(self, tiny_records,
                                                      tmp_path):
        cfg = TrainConfig(lr0=0.001, max_epochs=3, patience=8, batch_size=2,
                          clip_truncate_s=0.5, loss="uniform", seed=1)
        result = train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path)
        assert result.best_val == min(h["val_loss"] for h in result.history)

    def test_logs_have_expected_fields(self, tiny_records, tmp_path):
        cfg = TrainConfig(lr0=0.001, max_epochs=2, patience=8, batch_size=4,
                          clip_truncate_s=0.5, loss="differentiated", seed=2)
        result = train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path)
        lines = result.log_path.read_text().strip().split("\n")
        assert len(lines) == len(result.history)
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "lr", "train_loss", "val_loss",
                              "wall_time_s"}
        loss_lines = result.loss_log_path.read_text().strip().split("\n")
        assert len(loss_lines) == len(lines)

    def test_deterministic_loss_log(self, tiny_records, tmp_path):
        cfg = TrainConfig(lr0=0.001, max_epochs=2, patience=8, batch_size=2,
                          clip_truncate_s=0.5, loss="differentiated", seed=3)
        r1 = train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path / "a")
        r2 = train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path / "b")
        assert r1.loss_log_path.read_bytes() == r2.loss_log_path.read_bytes()

    def test_stage3_resumes_from_stage2_checkpoint(self, tiny_records,
                                                   tmp_path):
        stage2 = TrainConfig(lr0=0.001, max_epochs=1, batch_size=2,
                             clip_truncate_s=0.5, loss="sdr", seed=4)
        r2 = train(stage2, TINY_MODEL, tiny_records, tiny_records,
                   tmp_path / "s2")
        stage3 = TrainConfig(lr0=0.0001, max_epochs=1,
                             batch_size=2, clip_truncate_s=0.5,
                             loss="differentiated", seed=5,
                             init_checkpoint=str(r2.best_checkpoint))
        r3 = train(stage3, None, tiny_records, tiny_records, tmp_path / "s3")
        assert r3.best_checkpoint.exists()
        assert r3.model.cfg == TINY_MODEL

    def test_checkpoint_config_conflict_rejected(self, tiny_records, tmp_path):
        stage2 = TrainConfig(lr0=0.001, max_epochs=1, batch_size=2,
                             clip_truncate_s=0.5, loss="uniform", seed=6)
        r2 = train(stage2, TINY_MODEL, tiny_records, tiny_records,
                   tmp_path / "s2")
        other = UsevConfig(sample_rate=8000, encoder_dim=16, kernel_len=8,
                           bottleneck=4, repeats=1, chunk=8, vtcn_repeats=1,
                           visual_dim=8)
        bad = TrainConfig(init_checkpoint=str(r2.best_checkpoint))
        # The checkpoint fixes the model: a config next to it is rejected,
        # whether it disagrees or repeats it, and so is neither.
        for model_cfg in (other, TINY_MODEL):
            with pytest.raises(ValueError, match="exactly one"):
                train(bad, model_cfg, tiny_records, tiny_records,
                      tmp_path / "s3")
        with pytest.raises(ValueError, match="exactly one"):
            train(stage2, None, tiny_records, tiny_records, tmp_path / "s3")

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train(TrainConfig(), TINY_MODEL, [], [], tmp_path)

    def test_crop_shorter_than_a_viseme_frame_rejected(self, tiny_records,
                                                       tmp_path):
        with pytest.raises(ValueError, match="clip_truncate_s 0.01 s is "
                           "shorter than one viseme frame"):
            train(TrainConfig(clip_truncate_s=0.01), TINY_MODEL, tiny_records,
                  tiny_records, tmp_path)

    def test_non_finite_validation_loss_names_epoch_and_clip(self, tiny_records,
                                                              tmp_path):
        bad = tiny_records[2]
        visemes = bad.viseme_stream.copy()
        visemes[0, 0] = np.nan
        val = [tiny_records[0], replace(bad, viseme_stream=visemes)]
        cfg = TrainConfig(lr0=0.001, max_epochs=2, batch_size=2,
                          clip_truncate_s=0.5, loss="uniform", seed=8)
        with pytest.raises(ValueError, match=re.escape(
                f"epoch 0: non-finite validation loss on clip {bad.clip_id}")):
            train(cfg, TINY_MODEL, tiny_records, val, tmp_path)
        assert not (tmp_path / "best.ckpt").exists()

    def test_non_finite_stops_before_the_adam_step(self, tiny_records,
                                                   tmp_path, monkeypatch):
        # A NaN put into a weight after the first step poisons the second
        # step's loss and gradients; training must stop before Adam sees them.
        seen = {}

        class PoisonAfterFirstStep(ad.Adam):
            def step(self):
                super().step()
                if self.t == 1:
                    seen["opt"] = self
                    seen["snap"] = [(p.data.copy(), m.copy(), v.copy())
                                    for p, m, v in zip(self.params, self._m, self._v)]
                    self.params[0].data.flat[0] = np.nan

        monkeypatch.setattr(ad, "Adam", PoisonAfterFirstStep)
        cfg = TrainConfig(lr0=0.001, max_epochs=2, batch_size=2,
                          clip_truncate_s=0.5, loss="differentiated", seed=7)
        # Epoch 0's order is the first draw of the harness's training rng.
        order = np.random.default_rng([cfg.seed, 99]).permutation(4)
        with pytest.raises(ValueError) as err:
            train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path)
        msg = str(err.value)
        assert msg.startswith("epoch 0 step 1: non-finite loss and gradient of")
        assert str([tiny_records[i].clip_id for i in order[2:]]) in msg
        opt = seen["opt"]
        assert opt.t == 1
        for p, m, v, (p0, m0, v0) in zip(opt.params, opt._m, opt._v, seen["snap"]):
            assert np.array_equal(m, m0) and np.array_equal(v, v0)
            assert np.isfinite(m).all() and np.isfinite(v).all()
            keep = np.isfinite(p.data)
            assert np.array_equal(p.data[keep], p0[keep])
        assert (~np.isfinite(opt.params[0].data)).sum() == 1


    def test_no_graph_outlives_its_step(self, tiny_records, tmp_path,
                                        monkeypatch):
        # Each clip's backward root and model output are tracked through
        # their data arrays, which only the graph holds. Every earlier one
        # must be gone when the next clip's forward starts and at each
        # zero_grad, so a step never holds two clips' graphs.
        graphs, alive = [], []
        backward, zero_grad = ad.Tensor.backward, ad.Adam.zero_grad
        forward = UsevNet.forward

        def tracked_backward(self):
            graphs.append(weakref.ref(self.data))
            backward(self)

        def checked_forward(self, *args):
            alive.append(sum(r() is not None for r in graphs))
            out = forward(self, *args)
            if out.requires_grad:
                graphs.append(weakref.ref(out.data))
            return out

        def checked_zero_grad(self):
            alive.append(sum(r() is not None for r in graphs))
            zero_grad(self)

        monkeypatch.setattr(ad.Tensor, "backward", tracked_backward)
        monkeypatch.setattr(UsevNet, "forward", checked_forward)
        monkeypatch.setattr(ad.Adam, "zero_grad", checked_zero_grad)
        cfg = TrainConfig(lr0=0.001, max_epochs=2, batch_size=2,
                          clip_truncate_s=0.5, loss="uniform", seed=3)
        train(cfg, TINY_MODEL, tiny_records, tiny_records, tmp_path)
        # 2 epochs x 2 steps x 2 clips, each with a root and an output.
        assert len(graphs) == 2 * 8
        # 4 zero_grads, 8 training and 8 validation forwards.
        assert alive == [0] * 20

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_step_matches_summed_graph_bit_for_bit(self, tiny_records, loss,
                                                   batch):
        # From batch 3 on, the parameters' gradient sums show the order in
        # which the clips are backpropagated.
        cfg = TrainConfig(loss=loss)
        crops = tiny_crops(tiny_records, batch, seed=batch)
        nets = [UsevNet(TINY_MODEL, seed=4) for _ in range(2)]
        opts = [ad.Adam(net.trainable_params(), lr=0.001) for net in nets]
        got = train_step(cfg, nets[0], opts[0], crops, 0, 0, list(range(batch)))
        want = summed_graph_step(cfg, nets[1], opts[1], crops)
        assert got == want
        for name, p in nets[1].params.items():
            q = nets[0].params[name]
            if p.grad is None:
                assert q.grad is None, name
                continue
            np.testing.assert_array_equal(q.grad, p.grad, err_msg=name)
            np.testing.assert_array_equal(q.data, p.data, err_msg=name)

    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_mixture_names_its_clip(self, tiny_records, position):
        cfg = TrainConfig(loss="differentiated")
        net = UsevNet(TINY_MODEL, seed=5)
        opt = ad.Adam(net.trainable_params(), lr=0.001)
        crops = tiny_crops(tiny_records, 2)
        train_step(cfg, net, opt, crops, 0, 0, ["a", "b"])
        snap = [(p.data.copy(), m.copy(), v.copy())
                for p, m, v in zip(opt.params, opt._m, opt._v)]
        mix = crops[position][0].copy()
        mix[100] = np.nan
        crops[position] = (mix,) + crops[position][1:]
        ids = ["c", "d"]
        with pytest.raises(ValueError) as err:
            train_step(cfg, net, opt, crops, 0, 1, ids)
        msg = str(err.value)
        assert msg.startswith("epoch 0 step 1: non-finite loss and gradient of")
        assert msg.endswith(f"on clip {ids[position]} of clips {ids}")
        assert opt.t == 1
        for p, m, v, (p0, m0, v0) in zip(opt.params, opt._m, opt._v, snap):
            assert np.array_equal(m, m0) and np.array_equal(v, v0)
            assert np.array_equal(p.data, p0)


class TestSaveLoadModel:
    def test_round_trip(self, tmp_path):
        net = UsevNet(TINY_MODEL, seed=7)
        save_model(tmp_path / "m.ckpt", net, extra_meta={"epoch": 3})
        back, meta = load_model(tmp_path / "m.ckpt")
        assert meta["epoch"] == 3
        assert back.cfg == TINY_MODEL
        for k, v in net.state_dict().items():
            np.testing.assert_array_equal(back.state_dict()[k], v)

    def test_load_copies_the_checkpoint_without_a_random_init(
            self, tmp_path, monkeypatch):
        net = UsevNet(TINY_MODEL, seed=9)
        save_model(tmp_path / "m.ckpt", net)
        saved, _ = load_checkpoint(tmp_path / "m.ckpt")

        def no_init(*args, **kwargs):
            raise AssertionError("load_model drew a random initialisation")

        monkeypatch.setattr(UsevNet, "__init__", no_init)
        back, _ = load_model(tmp_path / "m.ckpt")
        assert list(back.params) == list(net.params)
        for k, t in back.params.items():
            assert t.data.dtype == np.float64
            assert t.data.tobytes() == saved[k].astype(np.float64).tobytes()
            assert t.data.tobytes() == net.params[k].data.tobytes()
            assert t.requires_grad == net.params[k].requires_grad


class TestEvaluate:
    def test_oracle_and_zero_extractors(self, tiny_records):
        # oracle extractor: output := target truth
        pairs = [(r, r.target_truth) for r in tiny_records]
        report = eval_report(pairs)
        if "TA" in report.clip_means:
            assert report.clip_means["TA"] == pytest.approx(-80.0, abs=1e-9)
        # zero extractor: silent output
        sr = tiny_records[0].mixture.sample_rate
        silent = [(r, AudioClip(np.zeros(len(r.mixture)), sr))
                  for r in tiny_records]
        report0 = eval_report(silent)
        for kind in ("QQ", "QS"):
            if kind in report0.kind_means:
                assert report0.kind_means[kind] == pytest.approx(-80.0,
                                                                 abs=1e-9)
        # si_sdr of silence: zero projection, so the metric floors at
        # 10*log10(eps) = -80 (unlike the sdr loss, which reads ~0 there)
        for kind in ("SQ", "SS"):
            if kind in report0.kind_means:
                assert report0.kind_means[kind] == pytest.approx(-80.0,
                                                                 abs=1e-6)

    def test_report_matches_recomputation(self, tiny_records, tmp_path):
        net = UsevNet(TINY_MODEL, seed=8)
        save_model(tmp_path / "m.ckpt", net)
        reports = evaluate(tmp_path / "m.ckpt", tiny_records, tmp_path)
        report = reports["model"]
        pairs = extraction_pairs(net, tiny_records)
        again = eval_report(pairs)
        assert report.kind_means == again.kind_means
        assert report.clip_means == again.clip_means
        assert (tmp_path / "model" / "report.txt").exists()
        assert (tmp_path / "mixture" / "report.txt").exists()

    def test_report_means_recomputable_from_dumped_records(self, tiny_records,
                                                           tmp_path):
        import csv
        save_model(tmp_path / "m.ckpt", UsevNet(TINY_MODEL, seed=8))
        report = evaluate(tmp_path / "m.ckpt", tiny_records, tmp_path)["model"]
        with open(tmp_path / "model" / "records.csv") as f:
            rows = list(csv.DictReader(f))
        tp = [float(r["clip_metric"]) for r in rows if r["class"] == "TP"]
        if "average" in report.clip_means:
            assert report.clip_means["average"] == pytest.approx(np.mean(tp),
                                                                 rel=1e-12)
        for kind in ("QQ", "SQ", "SS", "QS"):
            vals = [float(r[f"{kind}_metric"]) for r in rows
                    if r[f"{kind}_metric"]]
            if kind in report.kind_means:
                assert report.kind_means[kind] == pytest.approx(
                    np.mean(vals), rel=1e-12)

    def test_evaluate_from_checkpoint_path(self, tiny_records, tmp_path):
        net = UsevNet(TINY_MODEL, seed=9)
        save_model(tmp_path / "m.ckpt", net)
        reports = evaluate(tmp_path / "m.ckpt", tiny_records, tmp_path / "out",
                           mixture_baseline=False)
        assert "model" in reports and "mixture" not in reports

    def test_empty_test_set_rejected_before_out_dir(self, tmp_path):
        save_model(tmp_path / "m.ckpt", UsevNet(TINY_MODEL, seed=9))
        with pytest.raises(ValueError, match="^empty test set$"):
            evaluate(tmp_path / "m.ckpt", [], tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_single_tuple_matches_grid_size(self, tiny_records, tmp_path):
        base = TrainConfig(lr0=0.001, max_epochs=1, batch_size=2,
                           clip_truncate_s=0.5, seed=10)
        rows = sweep_weights(base, TINY_MODEL, [LossWeights(0.005, 1, 1, 0.005)],
                             tiny_records, tiny_records, tmp_path)
        assert len(rows) == 1
        txt = (tmp_path / "sweep.txt").read_text()
        assert len(txt.strip().split("\n")) == 2  # header + one row

    def test_row_scores_best_checkpoint_through_evaluate(self, tiny_records,
                                                         tmp_path):
        # Validation loss rises after epoch 0, so best.ckpt holds epoch 0's
        # weights, not the last epoch's; the row must score best.ckpt.
        base = TrainConfig(lr0=0.05, max_epochs=3, batch_size=2,
                           clip_truncate_s=0.5, seed=10)
        [row] = sweep_weights(base, TINY_MODEL, [LossWeights()], tiny_records,
                              tiny_records, tmp_path)
        with open(tmp_path / "system0" / "train_log.jsonl") as f:
            val = [json.loads(line)["val_loss"] for line in f]
        assert len(val) == 3 and int(np.argmin(val)) == 0
        report = evaluate(tmp_path / "system0" / "best.ckpt", tiny_records,
                          tmp_path / "again", mixture_baseline=False)["model"]
        assert report.kind_means
        for kind in ("QQ", "SQ", "SS", "QS"):
            assert row[kind] == report.kind_means.get(kind)

    @pytest.mark.parametrize("loss", ["sdr", "uniform"])
    def test_other_loss_rejected_before_any_training(self, tiny_records,
                                                     tmp_path, loss):
        with pytest.raises(ValueError, match=f"got loss = '{loss}'"):
            sweep_weights(TrainConfig(loss=loss), TINY_MODEL, [LossWeights()],
                          tiny_records, tiny_records, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_default_grid_contains_published_tuple(self):
        assert LossWeights(0.005, 1.0, 1.0, 0.005) in DEFAULT_WEIGHT_GRID
        assert all(isinstance(w, LossWeights) for w in DEFAULT_WEIGHT_GRID)

    def test_empty_grid_rejected(self, tiny_records, tmp_path):
        with pytest.raises(ValueError):
            sweep_weights(TrainConfig(), TINY_MODEL, [], tiny_records,
                          tiny_records, tmp_path)

    @pytest.mark.parametrize("last", [(1, 1, 1), (0.005, 1, 1, 0.005, 1),
                                      (0.005, 1, 1, 0.005)],
                             ids=["three", "five", "plain_tuple"])
    def test_bad_last_tuple_rejected_before_any_training(self, tiny_records,
                                                         tmp_path, last):
        # Only LossWeights entries are accepted; text tuples are parsed by
        # config.parse_weights before they reach the sweep.
        with pytest.raises(ValueError, match="weight grid entry 1"):
            sweep_weights(TrainConfig(), TINY_MODEL, [LossWeights(), last],
                          tiny_records, tiny_records, tmp_path)
        assert not (tmp_path / "system0").exists()


class TestTrainFromManifest:
    def test_train_and_evaluate_via_files(self, tmp_path):
        manifest = write_corpus(TINY_SIM, 3, seed=32, out_dir=tmp_path / "data")
        cfg = TrainConfig(lr0=0.001, max_epochs=1, batch_size=2,
                          clip_truncate_s=0.5, loss="uniform", seed=11)
        result = train(cfg, TINY_MODEL, manifest, manifest, tmp_path / "run")
        reports = evaluate(result.best_checkpoint, manifest, tmp_path / "eval")
        assert reports["model"].records


class TestKvConfig:
    def test_parse_and_build(self, tmp_path):
        (tmp_path / "run.cfg").write_text(
            "# run config\n"
            "sample_rate = 8000\n"
            "encoder_dim = 8\n"
            "kernel_len = 8\n"
            "bottleneck = 4\n"
            "repeats = 1\n"
            "chunk = 8\n"
            "vtcn_repeats = 1\n"
            "visual_dim = 8\n"
            "clip_s = 0.6,0.8\n"
            "noisy = true\n"
            "lr0 = 0.0005\n"
            "loss = differentiated\n"
            "weights = 0.005,1,1,0.005\n"
            "patience = 4\n")
        run = load_config(tmp_path / "run.cfg")
        assert run.sim.noisy is True and run.sim.clip_s == (0.6, 0.8)
        assert run.model == TINY_MODEL
        assert run.train.lr0 == 0.0005 and run.train.patience == 4
        assert run.train.weights == LossWeights(0.005, 1, 1, 0.005)

    def test_no_file_gives_defaults(self):
        run = load_config()
        assert (run.sim, run.model, run.train) == (SimConfig(), UsevConfig(),
                                                  TrainConfig())

    def test_init_checkpoint_leaves_model_to_checkpoint(self, tmp_path):
        # The checkpoint need not exist yet: train reads it, and checks the
        # crop against its model.
        (tmp_path / "run.cfg").write_text("init_checkpoint = pre.ckpt\n"
                                          "sample_rate = 16000\n"
                                          "clip_truncate_s = 0.01\n")
        run = load_config(tmp_path / "run.cfg")
        assert run.model is None
        assert run.sim.sample_rate == 16000
        assert run.train.init_checkpoint == "pre.ckpt"

    def test_bad_line_reports_number(self, tmp_path):
        (tmp_path / "run.cfg").write_text("lr0 = 1\nnonsense line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_config(tmp_path / "run.cfg")
