import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import usev
from usev.audio_io import read_wav, write_wav
from usev.dsp import (AudioClip, add_frames, energy, gather_frames,
                      measure_snr_db, snr_gain)


def clip(samples, sr=16000):
    return AudioClip(np.asarray(samples, dtype=np.float64), sr)


class TestAudioClip:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)

    def test_duration(self):
        assert clip(np.zeros(8000), 16000).duration_s == 0.5


class TestFramingKernels:
    def test_frame_count_16k(self):
        assert gather_frames(np.zeros(16000), 40, 20).shape == (799, 40)

    def test_frame_count_8k(self):
        assert gather_frames(np.zeros(8000), 40, 20).shape == (399, 40)

    def test_contents(self):
        frames = gather_frames(np.array([1.0, 2, 3, 4]), 2, 1)
        assert frames.tolist() == [[1, 2], [2, 3], [3, 4]]

    def test_trailing_samples_dropped(self):
        frames = gather_frames(np.array([1.0, 2, 3, 4, 5]), 2, 2)
        assert frames.tolist() == [[1, 2], [3, 4]]

    def test_single_frame(self):
        frames = gather_frames(np.array([1.0, 2, 3]), 3, 1)
        assert add_frames(frames, 2).tolist() == [1, 2, 3]

    def test_two_frames(self):
        frames = gather_frames(np.array([1.0, 1, 1]), 2, 1)
        assert add_frames(frames, 1).tolist() == [1, 2, 1]

    def test_adjoint_identity(self):
        # <frame(x), Y> == <x, ola(Y)> for random shapes
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(16, 400))
            flen = int(rng.integers(2, min(n, 32) + 1))
            hop = int(rng.integers(1, flen + 1))
            x = rng.standard_normal(n)
            frames = gather_frames(x, flen, hop)
            y = rng.standard_normal(frames.shape)
            lhs = float(np.sum(frames * y))
            ola = add_frames(y, hop)
            rhs = float(np.dot(x[: len(ola)], ola))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_leading_axes_match_row_by_row(self):
        rng = np.random.default_rng(8)
        frames = rng.standard_normal((2, 3, 7, 10))
        out = add_frames(frames, 5)
        assert out.shape == (2, 3, 6 * 5 + 10)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], add_frames(frames[i, j], 5))
        x = rng.standard_normal((2, 3, 40))
        got = gather_frames(x, 10, 5)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], gather_frames(x[i, j], 10, 5))

    def test_hop_not_dividing_frame_len_is_exact(self):
        # Integer data sums exactly, so the kernel must equal the
        # frame-by-frame definition bit for bit.
        rng = np.random.default_rng(9)
        for flen, hop in ((7, 3), (10, 4), (5, 2), (3, 5)):
            frames = rng.integers(-50, 50, size=(6, flen)).astype(np.float64)
            want = np.zeros(5 * hop + flen)
            for t in range(6):
                want[t * hop : t * hop + flen] += frames[t]
            assert np.array_equal(add_frames(frames, hop), want)


class TestEnergy:
    def test_zero(self):
        assert energy(clip(np.zeros(100))) == 0.0

    def test_three_four(self):
        assert energy(clip([3.0, 4.0])) == 25.0

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(10, 5000)))
            want = math.fsum(v * v for v in x.tolist())
            got = energy(x)
            assert abs(got - want) <= 1e-12 * want

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(512)
        a = 3.7
        assert energy(a * x) == pytest.approx(a * a * energy(x), rel=1e-12)


class TestSnrGain:
    def test_equal_energy_zero_db(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(256)
        b = a[::-1].copy()
        assert snr_gain(energy(a), energy(b), 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_equal_energy_ten_db(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(256)
        b = a[::-1].copy()
        g = snr_gain(energy(a), energy(b), 10.0)
        assert g == pytest.approx(10 ** -0.5, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for snr in (-10.0, -3.3, 0.0, 7.7, 10.0):
            a = rng.standard_normal(1000)
            b = rng.standard_normal(777)
            scaled = snr_gain(energy(a), energy(b), snr) * b
            assert measure_snr_db(a, scaled) == pytest.approx(snr, abs=1e-9)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            snr_gain(0.0, 64.0, 0.0)
        with pytest.raises(ValueError):
            snr_gain(64.0, 0.0, 0.0)


class TestFileIO:
    def test_wav_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = AudioClip(rng.uniform(-0.9, 0.9, 500), 8000)
        write_wav(tmp_path / "a.wav", a)
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 8000
        np.testing.assert_allclose(back.samples, a.samples, atol=1e-7)

    def test_wav_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        a = AudioClip(rng.uniform(-0.9, 0.9, 500), 16000)
        pcm = np.rint(a.samples * 32767.0).astype("<i2")
        wavfile.write(tmp_path / "a.wav", a.sample_rate, pcm)
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, a.samples, atol=1.0 / 32767)

    def test_wav_write_deterministic(self, tmp_path):
        rng = np.random.default_rng(11)
        a = AudioClip(rng.uniform(-0.9, 0.9, 500), 8000)
        write_wav(tmp_path / "a.wav", a)
        write_wav(tmp_path / "b.wav", a)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def _riff(*chunks):
    """A RIFF/WAVE file of (id, body) chunks, each padded to even length."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b + b"\0" * (len(b) % 2)
                    for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _fmt(tag, bits, channels=1, rate=8000, ext=b""):
    align = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align,
                                align, bits) + ext


def _extensible_float32(rate):
    guid = struct.pack("<I", 3) + bytes.fromhex("00001000800000aa00389b71")
    ext = struct.pack("<HHI", 22, 32, 4) + guid
    return _fmt(0xFFFE, 32, rate=rate, ext=ext)


_F32 = np.random.default_rng(12).uniform(-0.9, 0.9, 800).astype("<f4").tobytes()


class TestWavFormat:
    """scipy.io.wavfile is the reference here only; usev reads and writes
    WAVs with its own RIFF code."""

    @pytest.mark.parametrize("n", [1, 777, 8000])
    def test_write_matches_scipy_bytes(self, tmp_path, n):
        a = AudioClip(np.random.default_rng(n).uniform(-0.9, 0.9, n), 8000)
        write_wav(tmp_path / "a.wav", a)
        wavfile.write(tmp_path / "b.wav", 8000, a.samples.astype("<f4"))
        assert ((tmp_path / "a.wav").read_bytes()
                == (tmp_path / "b.wav").read_bytes())

    @pytest.mark.parametrize("kind", ["float32", "float64", "pcm16",
                                      "extensible_float32"])
    def test_read_matches_scipy(self, tmp_path, kind):
        x = np.random.default_rng(13).uniform(-0.9, 0.9, 777)
        path = tmp_path / "a.wav"
        if kind == "extensible_float32":  # with an odd-sized chunk to skip
            path.write_bytes(_riff(_extensible_float32(16000),
                                   (b"LIST", b"abc"),
                                   (b"data", x.astype("<f4").tobytes())))
        else:
            dtype = {"float32": "<f4", "float64": "<f8", "pcm16": "<i2"}[kind]
            data = np.rint(x * 32767) if kind == "pcm16" else x
            wavfile.write(path, 16000, data.astype(dtype))
        rate, ref = wavfile.read(path)
        ref = ref.astype(np.float64) / (32767.0 if kind == "pcm16" else 1.0)
        back = read_wav(path)
        assert back.sample_rate == rate == 16000
        np.testing.assert_array_equal(back.samples, ref)

    @pytest.mark.parametrize("wav,message", [
        (b"RIFX" + _riff(_fmt(3, 32), (b"data", _F32))[4:], "not a RIFF WAVE"),
        (_riff(_fmt(3, 32), (b"data", _F32))[:30], "truncated 'fmt ' chunk"),
        (_riff((b"data", _F32)), "no 'fmt ' chunk before the 'data' chunk"),
        (_riff(_fmt(3, 32, channels=2), (b"data", _F32)), "2 channels"),
        (_riff(_fmt(1, 8), (b"data", bytes(800))), "8-bit integer"),
        (_riff(_fmt(1, 24), (b"data", bytes(2400))), "24-bit integer"),
        (_riff(_fmt(1, 32), (b"data", bytes(3200))), "32-bit integer"),
        (_riff(_fmt(3, 32), (b"data", _F32 + b"\0\0")),
         "3202 bytes is not a whole number of 4-byte samples"),
        (_riff(_fmt(3, 32), (b"data", _F32))[:-100], "truncated 'data' chunk"),
        (_riff(_fmt(3, 32), (b"data", np.array([0, np.nan], "<f4").tobytes())),
         "'data' chunk: samples must be finite"),
    ], ids=["not-riff", "cut-header", "no-fmt", "stereo", "int8", "int24",
            "int32", "partial-sample", "cut-data", "nan"])
    def test_malformed_wav_names_the_file(self, tmp_path, wav, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(wav)
        with pytest.raises(ValueError, match=message) as e:
            read_wav(path)
        assert str(e.value).startswith(f"{path}: ")

    def test_usev_imports_no_scipy(self):
        src = str(Path(usev.__file__).parents[1])
        code = ("import sys, usev, usev.cli, usev.harness; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"
