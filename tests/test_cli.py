import json

import numpy as np
import pytest

from usev.cli import main
from usev.mixsim import read_manifest


def run(args):
    return main([str(a) for a in args])


def test_simulate_stats_round_trip(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("clip_s = 1.0,1.4\nutterance_s = 3.0,4.0\n"
                   "n_utterances = 10\nn_speakers = 5\n")
    out = tmp_path / "corpus"
    assert run(["simulate", "--config", cfg, "--out", out, "--count", 3,
                "--seed", 5]) == 0
    rows = read_manifest(out / "manifest.jsonl")
    assert len(rows) == 3
    assert run(["stats", "--manifest", out / "manifest.jsonl"]) == 0
    captured = capsys.readouterr().out
    assert "clips by overlap bucket" in captured


def test_simulate_with_occlusion_flag(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("clip_s = 1.0,1.4\nutterance_s = 3.0,4.0\n"
                   "n_utterances = 10\nn_speakers = 5\nnoisy = true\n")
    out = tmp_path / "corpus"
    assert run(["simulate", "--config", cfg, "--out", out, "--count", 2,
                "--seed", 6, "--occlusion", "0.4,0.6"]) == 0
    rows = read_manifest(out / "manifest.jsonl")
    assert any(r["occlusion_spans"] for r in rows)
    assert all(r["noise_snr_db"] is not None for r in rows)



def test_overlapped_with_occlusion_gives_param_exit_code(tmp_path, capsys):
    # Overlapped clips are never occluded, so the flag must not pass silently.
    out = tmp_path / "ov"
    assert run(["simulate", "--out", out, "--count", 2, "--seed", 0,
                "--overlapped", "--occlusion", "0.5,0.5"]) == 2
    assert "--occlusion" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw,message", [
    ("0.2", "--occlusion '0.2': expected 2 comma-separated numbers"),
    ("a,b", "--occlusion 'a,b': could not convert string to float: 'a'"),
    ("0.6,0.2", "--occlusion '0.6,0.2': low occlusion fraction 0.6 exceeds "
                "the high one 0.2"),
    ("0.2,1.5", "--occlusion '0.2,1.5': high occlusion fraction 1.5 lies "
                "outside [0, 1]"),
], ids=["one-number", "not-numbers", "low-above-high", "high-above-one"])
def test_malformed_occlusion_flag_gives_param_exit_code(tmp_path, capsys, raw,
                                                        message):
    out = tmp_path / "o"
    assert run(["simulate", "--out", out, "--count", 1, "--occlusion", raw]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_overlapped_clips_are_noisy_without_noisy_flag(tmp_path):
    out = tmp_path / "ov"
    assert run(["simulate", "--out", out, "--count", 2, "--seed", 0,
                "--overlapped"]) == 0
    rows = read_manifest(out / "manifest.jsonl")
    assert all(r["noise_snr_db"] is not None for r in rows)
    assert not any(r["occlusion_spans"] for r in rows)

TINY_RUN = ("sample_rate = 8000\nencoder_dim = 8\nkernel_len = 8\n"
            "bottleneck = 4\nrepeats = 1\nchunk = 8\nvtcn_repeats = 1\n"
            "visual_dim = 8\n"
            "lr0 = 0.001\nmax_epochs = 1\nbatch_size = 2\n"
            "clip_truncate_s = 0.5\nloss = uniform\n")


def test_train_evaluate_pipeline(tmp_path, capsys):
    simcfg = tmp_path / "sim.cfg"
    simcfg.write_text("clip_s = 0.6,0.8\nutterance_s = 3.0,4.0\n"
                      "n_utterances = 8\nn_speakers = 4\n")
    data = tmp_path / "corpus"
    assert run(["simulate", "--config", simcfg, "--out", data, "--count", 3,
                "--seed", 7]) == 0
    runcfg = tmp_path / "run.cfg"
    runcfg.write_text(TINY_RUN)
    manifest = data / "manifest.jsonl"
    assert run(["train", "--config", runcfg, "--train-manifest", manifest,
                "--val-manifest", manifest, "--out", tmp_path / "run"]) == 0
    ckpt = tmp_path / "run" / "best.ckpt"
    assert ckpt.exists()
    assert run(["evaluate", "--checkpoint", ckpt, "--test-manifest", manifest,
                "--out", tmp_path / "eval"]) == 0
    assert "mixture" in capsys.readouterr().out


def test_gradcheck_command(capsys):
    assert run(["gradcheck", "--scope", "ops", "--seeds", 1]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max_rel_err" in out


@pytest.mark.parametrize("args,message", [
    (["simulate", "--count", -3, "--seed", 0],
     "count must be at least 1, got -3"),
    (["gradcheck", "--scope", "ops", "--seeds", 0],
     "seeds must be at least 1, got 0"),
], ids=["simulate-count", "gradcheck-seeds"])
def test_count_below_one_gives_param_exit_code(tmp_path, capsys, args,
                                               message):
    if args[0] == "simulate":
        args = args + ["--out", tmp_path / "o"]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


@pytest.mark.parametrize("grid,bad", [
    ("0.1,1,1", "0.1,1,1"),
    ("0.1,1,1,1,1", "0.1,1,1,1,1"),
    ("0.005,1,1,0.005;nan,1,1,1", "nan,1,1,1"),
], ids=["three", "five", "nan"])
def test_sweep_grid_tuple_not_four_finite_numbers_gives_param_exit_code(
        tmp_path, capsys, grid, bad):
    missing = tmp_path / "none.jsonl"
    assert run(["sweep", "--train-manifest", missing, "--val-manifest",
                missing, "--out", tmp_path / "o", "--grid", grid]) == 2
    assert f"--grid tuple {bad!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_manifest_gives_io_exit_code(tmp_path):
    assert run(["stats", "--manifest", tmp_path / "nope.jsonl"]) == 3


def test_bad_config_gives_param_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("clip_s = 9.0,9.5\nutterance_s = 3.0,4.0\n")
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o",
                "--count", 1, "--seed", 0]) == 2


SIM_OK = "clip_s = 1.0,1.4\nutterance_s = 3.0,4.0\n"


@pytest.mark.parametrize("command,text,message", [
    ("train", "lr = 0.5\n", "unknown config key 'lr'; did you mean 'lr0'?"),
    ("train", "batchsize = 9\n", "did you mean 'batch_size'?"),
    ("simulate", SIM_OK + "noisey = true\n", "did you mean 'noisy'?"),
    ("simulate", SIM_OK + "zzz = 1\n", "unknown config key 'zzz'"),
    ("simulate", SIM_OK + "noisy = maybe\n", "'noisy': expected a boolean"),
    ("simulate", SIM_OK + "noisy = 2\n", "'noisy': expected a boolean"),
    ("simulate", "clip_s = 1.0\nutterance_s = 3.0,4.0\n",
     "'clip_s': expected 2 comma-separated numbers"),
    ("train", "weights = 1,1,1\n",
     "'weights': expected 4 comma-separated numbers"),
    ("train", "weights = nan,1,1,1\n",
     "line 1: config key 'weights': loss weights must be finite"),
    ("train", "max_epochs = many\n", "'max_epochs'"),
    ("train", "kernel_len = 41\n", "encoder kernel_len must be even and positive"),
    ("simulate", "clip_s = 9.0,9.5\nutterance_s = 3.0,4.0\n",
     "utterances must be at least as long as the longest clip"),
    ("simulate", "clip_s = 1.0,1.4\nutterance_s = 2.0,4.0\n",
     "utterance_s must start at or above 3.0 s"),
    ("train", "stage = train_general\n", "line 1: unknown config key 'stage'"),
    ("simulate", SIM_OK + "max_tries = 40\n",
     "line 3: unknown config key 'max_tries'"),
    ("simulate", SIM_OK + "utterance_rms = 0.1\n",
     "line 3: unknown config key 'utterance_rms'"),
    ("simulate", SIM_OK + "min_utterance_s = 3.0\n",
     "line 3: unknown config key 'min_utterance_s'"),
    ("simulate", SIM_OK + "speech_span_s = 0.5,1.8\n",
     "line 3: unknown config key 'speech_span_s'"),
    # The simulator's fixed target-absent rate, reference level and
    # overlap-bucket mix are module constants, not settings.
    ("simulate", SIM_OK + 'bucket_weights = {"0%": 1.0}\n',
     "line 3: unknown config key 'bucket_weights'"),
    ("simulate", SIM_OK + "ta_prob = 0.5\n",
     "line 3: unknown config key 'ta_prob'"),
    ("simulate", SIM_OK + "ta_reference_rms = 0.2\n",
     "line 3: unknown config key 'ta_reference_rms'"),
    ("train", "lr0 = 0.01\nencoder_dim = 32\ninit_checkpoint = run/best.ckpt\n",
     "line 2: model key 'encoder_dim' next to init_checkpoint"),
    ("simulate", SIM_OK + "n_speakers = 0\n", "n_speakers must be at least 2, got 0"),
    ("simulate", SIM_OK + "n_speakers = -3\n",
     "n_speakers must be at least 2, got -3"),
    # The viseme frame rate is the constant dsp.VISEME_FPS, not a setting.
    ("simulate", SIM_OK + "viseme_fps = 25\n",
     "line 3: unknown config key 'viseme_fps'"),
    ("simulate", SIM_OK + "sample_rate = 8010\n",
     "sample_rate must be a positive multiple of 25, got 8010"),
    ("simulate", SIM_OK + "snr_db = nan,1\n",
     "snr_db must be a finite range lo,hi with lo <= hi, got nan, 1.0"),
    ("simulate", SIM_OK + "noise_snr_db = 5,-5\n",
     "noise_snr_db must be a finite range lo,hi with lo <= hi, got 5.0, -5.0"),
    ("simulate", "clip_s = -2,1\nutterance_s = 3.0,4.0\n",
     "clip_s must start at or above one viseme frame (0.04 s), got -2.0"),
    ("simulate", "clip_s = 0,0.01\nutterance_s = 3.0,4.0\n",
     "clip_s must start at or above one viseme frame (0.04 s), got 0.0"),
    ("train", "lr0 = -0.01\n", "lr0 must be finite and >= 0, got -0.01"),
    ("train", "lr0 = nan\n", "lr0 must be finite and >= 0, got nan"),
    ("train", "clip_truncate_s = nan\n",
     "clip_truncate_s must be finite and positive, got nan"),
    ("train", "clip_truncate_s = 0\n",
     "clip_truncate_s must be finite and positive, got 0.0"),
    ("train", "clip_truncate_s = -1\n",
     "clip_truncate_s must be finite and positive, got -1.0"),
    ("train", "clip_truncate_s = 0.01\n", "clip_truncate_s 0.01 s is shorter "
     "than one viseme frame (320 samples at 8000 Hz)"),
])
def test_malformed_config_gives_param_exit_code(tmp_path, capsys, command,
                                                text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    if command == "simulate":
        args = ["simulate", "--config", cfg, "--out", tmp_path / "o",
                "--count", 1, "--seed", 0]
    else:
        missing = tmp_path / "none.jsonl"
        args = ["train", "--config", cfg, "--train-manifest", missing,
                "--val-manifest", missing, "--out", tmp_path / "o"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert str(cfg) in err


@pytest.mark.parametrize("damage", ["truncate", "trailing", "unknown_key",
                                    "bad_shape", "float32", "viseme_fps"])
def test_malformed_checkpoint_gives_param_exit_code(tmp_path, capsys, damage):
    from usev.checkpoint import save_checkpoint
    from usev.gradcheck import micro_config
    from usev.model import UsevNet

    ckpt = tmp_path / "m.ckpt"
    meta = {"model_config": dict(micro_config().__dict__)}
    if damage == "unknown_key":
        meta["model_config"]["kernal_len"] = 4
    elif damage == "viseme_fps":  # a header written while the rate was a field
        meta["model_config"]["viseme_fps"] = 25
    state = UsevNet(micro_config()).state_dict()
    if damage == "bad_shape":
        state["enc.w"] = state["enc.w"][..., :2]
    save_checkpoint(ckpt, state, meta)
    raw = ckpt.read_bytes()
    if damage == "truncate":
        ckpt.write_bytes(raw[:-3])
    elif damage == "trailing":
        ckpt.write_bytes(raw + b"\x00")
    elif damage == "float32":  # the retired float32 dtype code 0
        at = raw.index(b"enc.w") + len(b"enc.w")
        assert raw[at] == 1
        ckpt.write_bytes(raw[:at] + b"\x00" + raw[at + 1:])
    assert run(["evaluate", "--checkpoint", ckpt, "--test-manifest",
                tmp_path / "none.jsonl", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err
    if damage == "float32":
        assert "unknown dtype code 0 for enc.w" in err
    if damage == "viseme_fps":
        assert "model_config fields ['viseme_fps'] are unknown" in err


DELETE = object()  # the field is left out of the row


@pytest.mark.parametrize("field,value", [
    pytest.param("mixture_path", DELETE, id="mixture_path-None"),
    ("target_path", ""), ("visemes_path", 7),
    ("effective_visual_ratio", None), ("effective_visual_ratio", 1.5),
    ("effective_visual_ratio", -0.1), ("effective_visual_ratio", True),
    ("track", 5),
    pytest.param("track", [[0, 10, "XX"]], id="track-bad_kind"),
    pytest.param("track", [["0", 10, "QQ"]], id="track-text_start"),
    pytest.param("track", [[10, 0, "QQ"]], id="track-reversed"),
    pytest.param("track", [[0, 5, "QQ"]], id="track-short_cover"),
    pytest.param("track", [[0, 5, "QQ"], [5, 10, "QQ"]],
                 id="track-adjacent_same_kind"),
    ("occlusion_spans", 5),
    pytest.param("occlusion_spans", [[0]], id="occlusion_spans-one_end"),
    ("clip_len", None), ("clip_len", 0), ("sample_rate", "8000"),
    ("clip_id", 3)])
def test_malformed_manifest_gives_param_exit_code(tmp_path, capsys, field,
                                                  value):
    from usev.gradcheck import micro_config
    from usev.harness import save_model
    from usev.model import UsevNet

    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, UsevNet(micro_config()))
    good = {"clip_id": "a", "sample_rate": 8000, "clip_len": 10,
            "track": [[0, 10, "QQ"]], "effective_visual_ratio": 1.0,
            "mixture_path": "m.wav", "target_path": "t.wav",
            "visemes_path": "v.bin"}
    bad = dict(good, clip_id="b")
    if value is DELETE:
        del bad[field]
    else:
        bad[field] = value
    manifest = tmp_path / "man.jsonl"
    manifest.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    commands = [["evaluate", "--checkpoint", ckpt, "--test-manifest", manifest,
                 "--out", tmp_path / "o"]]
    if not field.endswith("_path"):  # stats reads no data file
        commands.append(["stats", "--manifest", manifest])
    for args in commands:
        assert run(args) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "line 2" in err and field in err


def _small_corpus(out, sample_rate=8000, visual_dim=8):
    from usev.mixsim import SimConfig, write_corpus

    sim = SimConfig(sample_rate=sample_rate, clip_s=(0.6, 0.8),
                    utterance_s=(3.0, 4.0), n_utterances=8, n_speakers=4,
                    visual_dim=visual_dim)
    return write_corpus(sim, 2, 7, out)


def _train_or_evaluate(command, tmp_path, manifest):
    """Arguments that train or evaluate an 8 kHz model on the manifest."""
    from usev.gradcheck import micro_config
    from usev.harness import save_model
    from usev.model import UsevNet

    if command == "train":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        return ["train", "--config", cfg, "--train-manifest", manifest,
                "--val-manifest", manifest, "--out", tmp_path / "run"]
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, UsevNet(micro_config()))
    return ["evaluate", "--checkpoint", ckpt, "--test-manifest", manifest,
            "--out", tmp_path / "o"]


def test_missing_data_file_gives_param_exit_code(tmp_path, capsys,
                                                 monkeypatch):
    from usev import audio_io

    manifest = _small_corpus(tmp_path / "corpus")
    (tmp_path / "corpus" / read_manifest(manifest)[1]["target_path"]).unlink()

    def no_read(*args, **kwargs):
        raise AssertionError("a data file was opened before the check")

    monkeypatch.setattr(audio_io, "read_wav", no_read)
    assert run(_train_or_evaluate("evaluate", tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "line 2" in err and "target_path" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("field", ["mixture_path", "target_path",
                                   "visemes_path"])
def test_clip_disagreeing_with_its_row_gives_param_exit_code(
        tmp_path, capsys, command, field):
    from usev import audio_io
    from usev.dsp import AudioClip
    from usev.mixsim import read_visemes, write_visemes

    manifest = _small_corpus(tmp_path / "corpus")
    path = tmp_path / "corpus" / read_manifest(manifest)[1][field]
    if field == "visemes_path":
        write_visemes(path, read_visemes(path)[:-1])
    else:
        clip = audio_io.read_wav(path)
        if field == "target_path":  # 640 samples short
            clip = AudioClip(clip.samples[:-640], clip.sample_rate)
        else:  # another rate than the row's
            clip = AudioClip(clip.samples, 16000)
        audio_io.write_wav(path, clip)
    assert run(_train_or_evaluate(command, tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "line 2" in err and field in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_truncated_wav_header_gives_param_exit_code(tmp_path, capsys,
                                                    command):
    manifest = _small_corpus(tmp_path / "corpus")
    path = tmp_path / "corpus" / read_manifest(manifest)[1]["mixture_path"]
    path.write_bytes(path.read_bytes()[:30])
    assert run(_train_or_evaluate(command, tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "line 2" in err and str(path) in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_clip_at_another_rate_than_the_model_gives_param_exit_code(
        tmp_path, capsys, command):
    manifest = _small_corpus(tmp_path / "corpus", sample_rate=16000)
    assert run(_train_or_evaluate(command, tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert "clip clip-000000: sample rate 16000 Hz" in err
    assert "the model runs at 8000 Hz" in err


@pytest.mark.parametrize("command,model_dim", [("train", 8), ("evaluate", 2)])
def test_clip_of_another_viseme_width_than_the_model_gives_param_exit_code(
        tmp_path, capsys, command, model_dim):
    manifest = _small_corpus(tmp_path / "corpus", visual_dim=4)
    assert run(_train_or_evaluate(command, tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert "clip clip-000000: viseme width 4" in err
    assert f"the model takes {model_dim}" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("header", [(0, 8, 25), (0, 8, 0), (5, 8, 0), (5, 8, 50)],
                         ids=["no-frames", "no-frames-no-fps", "no-fps",
                              "50-fps"])
def test_viseme_header_without_frames_or_fps_gives_param_exit_code(
        tmp_path, capsys, command, header):
    import struct

    manifest = _small_corpus(tmp_path / "corpus")
    path = tmp_path / "corpus" / read_manifest(manifest)[1]["visemes_path"]
    path.write_bytes(b"VISM" + struct.pack("<III", *header)
                     + bytes(4 * header[0] * header[1]))
    assert run(_train_or_evaluate(command, tmp_path, manifest)) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "line 2" in err and str(path) in err
    assert f"{header[0]} frames at {header[2]} fps" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_clip_shorter_than_the_encoder_kernel_gives_param_exit_code_and_no_out_dir(
        tmp_path, capsys, command):
    # 0.04-s clips at 8 kHz hold 320 samples, under a 400-sample kernel.
    from dataclasses import replace

    from usev.gradcheck import micro_config
    from usev.harness import save_model
    from usev.mixsim import SimConfig, write_corpus
    from usev.model import UsevNet

    sim = SimConfig(clip_s=(0.04, 0.04), utterance_s=(3.0, 4.0),
                    n_utterances=8, n_speakers=4)
    manifest = write_corpus(sim, 2, 7, tmp_path / "corpus")
    args = _train_or_evaluate(command, tmp_path, manifest)
    if command == "train":
        (tmp_path / "run.cfg").write_text(
            TINY_RUN.replace("kernel_len = 8", "kernel_len = 400"))
    else:
        save_model(tmp_path / "m.ckpt",
                   UsevNet(replace(micro_config(), kernel_len=400, visual_dim=8)))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert ("clip clip-000000: 320 samples, shorter than the encoder kernel "
            "(400)") in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_value_error_in_a_worker_gives_param_exit_code(tmp_path, capsys,
                                                       monkeypatch, command):
    import os

    from usev import workers
    from usev.model import UsevNet

    # The train config's model takes 8 viseme features, the evaluated one 2.
    manifest = _small_corpus(tmp_path / "corpus",
                             visual_dim=8 if command == "train" else 2)
    args = _train_or_evaluate(command, tmp_path, manifest)
    main_pid, forward = os.getpid(), UsevNet.forward

    def fails_in_a_worker(self, *clip):
        if os.getpid() != main_pid:
            raise ValueError("planted failure in a worker")
        return forward(self, *clip)

    monkeypatch.setattr(workers, "worker_count", lambda n: min(2, n))
    monkeypatch.setattr(UsevNet, "forward", fails_in_a_worker)
    assert run(args) == 2
    assert "error: planted failure in a worker" in capsys.readouterr().err


def test_sweep_from_checkpoint_of_another_model(tmp_path, capsys):
    # The checkpoint's header fixes the model; the sweep must not hold it
    # against the default model of a config that names none.
    from usev.gradcheck import micro_config
    from usev.harness import save_model
    from usev.model import UsevNet

    manifest = _small_corpus(tmp_path / "corpus", visual_dim=2)
    ckpt = tmp_path / "pre.ckpt"
    save_model(ckpt, UsevNet(micro_config()))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"init_checkpoint = {ckpt}\nmax_epochs = 1\n"
                   "batch_size = 2\nclip_truncate_s = 0.5\n")
    assert run(["sweep", "--config", cfg, "--train-manifest", manifest,
                "--val-manifest", manifest, "--out", tmp_path / "sweep",
                "--grid", "0.005,1,1,0.005"]) == 0
    assert (tmp_path / "sweep" / "system0" / "best.ckpt").exists()
    assert "0.005-1.0-1.0-0.005" in capsys.readouterr().out


@pytest.mark.parametrize("loss", ["sdr", "uniform"])
def test_sweep_of_another_loss_gives_param_exit_code(tmp_path, capsys, loss):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"loss = {loss}\n")
    missing = tmp_path / "none.jsonl"
    assert run(["sweep", "--config", cfg, "--train-manifest", missing,
                "--val-manifest", missing, "--out", tmp_path / "o"]) == 2
    assert f"got loss = {loss!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_test_manifest_gives_param_exit_code_and_no_out_dir(tmp_path,
                                                                  capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    args = _train_or_evaluate("evaluate", tmp_path, manifest)
    assert run(args) == 2
    assert f"{manifest}: empty test set" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "sweep", "evaluate"])
@pytest.mark.parametrize("missing", ["manifest", "checkpoint"])
def test_missing_input_gives_io_exit_code_and_no_out_dir(tmp_path, command,
                                                         missing):
    # Every input is loaded before --out is made, so a failed run leaves
    # no empty folder behind.
    from usev.gradcheck import micro_config
    from usev.harness import save_model
    from usev.model import UsevNet

    ckpt, manifest = tmp_path / "none.ckpt", tmp_path / "none.jsonl"
    if missing == "manifest":
        ckpt = tmp_path / "m.ckpt"
        save_model(ckpt, UsevNet(micro_config()))
    else:
        manifest = _small_corpus(tmp_path / "corpus", visual_dim=2)
    if command == "evaluate":
        args = ["evaluate", "--checkpoint", ckpt, "--test-manifest", manifest]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"init_checkpoint = {ckpt}\nmax_epochs = 1\n")
        args = [command, "--config", cfg, "--train-manifest", manifest,
                "--val-manifest", manifest]
    out = tmp_path / "o"
    assert run(args + ["--out", out]) == 3
    assert not out.exists()
