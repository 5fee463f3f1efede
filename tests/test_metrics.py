import math
import re

import numpy as np
import pytest

from usev.dsp import AudioClip
from usev.metrics import (EPS, eval_report, power_db_per_s, si_sdr,
                          write_report)
from usev.mixsim import MixtureRecord
from usev.scenario import label_scenarios


def fsum_sq(x):
    return math.fsum(v * v for v in np.asarray(x).tolist())


def fsum_dot(a, b):
    return math.fsum((x * y for x, y in zip(np.asarray(a).tolist(),
                                            np.asarray(b).tolist())))


def oracle_si_sdr(est, ref):
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    scale = fsum_dot(est, ref) / (fsum_sq(ref) + 1e-8)
    proj = scale * ref
    return 10.0 * math.log10(fsum_sq(proj) / (fsum_sq(est - proj) + 1e-8) + 1e-8)


def oracle_power(est, sr):
    return 10.0 * math.log10(fsum_sq(est) / (len(est) / sr) + 1e-8)


def make_record(clip_id, mixture, target, t_mask, i_mask, sr=1000, evr=1.0):
    return MixtureRecord(
        clip_id=clip_id,
        mixture=AudioClip(mixture, sr),
        target_truth=AudioClip(target, sr),
        viseme_stream=np.zeros((max(1, len(mixture) // (sr // 25)), 4)),
        track=label_scenarios(t_mask, i_mask),
        spec=None, occlusion_spans=[], effective_visual_ratio=evr)


class TestSiSdr:
    def test_scale_invariance(self):
        # The projection absorbs positive scaling; with the eps guards this
        # holds whenever the residual energy dwarfs eps, i.e. for any
        # realistically noisy estimate.
        rng = np.random.default_rng(0)
        s = rng.standard_normal(4000)
        s /= np.sqrt(np.dot(s, s))
        noise = rng.standard_normal(4000)
        noise /= np.sqrt(np.dot(noise, noise))
        est = s + noise
        base = si_sdr(est, s)
        for a in (0.5, 2.0, 10.0):
            assert abs(si_sdr(a * est, s) - base) <= 1e-6

    def test_perfect_reconstruction(self):
        s = np.zeros(64)
        s[3] = 1.0
        got = si_sdr(s, s)
        expect = 10 * math.log10((1 / (1 + 1e-8)) ** 2 /
                                 ((1 - 1 / (1 + 1e-8)) ** 2 + 1e-8) + 1e-8)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got == pytest.approx(80.0, abs=1e-3)

    def test_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(100, 3000))
            est = rng.standard_normal(n)
            ref = rng.standard_normal(n)
            want = oracle_si_sdr(est, ref)
            assert si_sdr(est, ref) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            si_sdr(np.zeros(4), np.zeros(5))


class TestPower:
    def test_silence_is_minus_80(self):
        assert power_db_per_s(np.zeros(12345), 8000) == pytest.approx(-80.0,
                                                                      abs=1e-12)

    def test_unit_energy_one_second(self):
        x = np.zeros(8000)
        x[0] = 1.0
        assert power_db_per_s(x, 8000) == pytest.approx(0.0, abs=1e-7)

    def test_unit_energy_two_seconds(self):
        x = np.zeros(16000)
        x[0] = 1.0
        assert power_db_per_s(x, 8000) == pytest.approx(-10 * math.log10(2.0),
                                                        abs=1e-7)
        assert power_db_per_s(x, 8000) == pytest.approx(-3.0103, abs=1e-4)

    def test_duration_normalized(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000)
        once = power_db_per_s(x, 5000)
        twice = power_db_per_s(np.concatenate([x, x]), 5000)
        assert abs(once - twice) <= 1e-9

    def test_zero_duration(self):
        with pytest.raises(ValueError):
            power_db_per_s(np.zeros(0), 8000)


class TestEvalReport:
    def test_single_ta_clip_silent_output(self):
        n = 2000
        rec = make_record("ta0", np.random.default_rng(3).standard_normal(n),
                          np.zeros(n), np.zeros(n, bool),
                          np.ones(n, bool))
        report = eval_report([(rec, AudioClip(np.zeros(n), 1000))])
        assert report.clip_means["TA"] == pytest.approx(-80.0, abs=1e-12)
        assert list(report.clip_means) == ["TA"]
        assert report.clip_counts == {"TA": 1}

    def test_single_all_ss_oracle_extractor(self):
        # the ~80 dB ceiling of si_sdr(s, s) holds for unit-energy targets
        rng = np.random.default_rng(4)
        n = 2000
        target = rng.standard_normal(n)
        target /= np.sqrt(np.dot(target, target))
        rec = make_record("tp0", target + rng.standard_normal(n), target,
                          np.ones(n, bool), np.ones(n, bool))
        report = eval_report([(rec, rec.target_truth)])
        assert report.clip_counts == {"(80,100]%": 1, "average": 1}
        assert report.clip_means["average"] == pytest.approx(80.0, abs=0.01)
        assert report.kind_means["SS"] == pytest.approx(80.0, abs=0.01)

    def test_hand_computed_means(self):
        rng = np.random.default_rng(5)
        pairs = []
        expected_tp = []
        expected_ta = []
        for k in range(10):
            n = 1000
            ta = k % 5 == 0
            t = np.zeros(n, bool) if ta else (rng.random(n) < 0.6)
            i = rng.random(n) < 0.5
            if not ta and not t.any():
                t[0] = True
            target = np.where(t, rng.standard_normal(n), 0.0)
            mix = target + np.where(i, rng.standard_normal(n), 0.0)
            rec = make_record(f"c{k}", mix, target, t, i)
            est = rng.standard_normal(n) * 0.1 + target
            pairs.append((rec, AudioClip(est, 1000)))
            if ta:
                expected_ta.append(oracle_power(est, 1000))
            else:
                expected_tp.append(oracle_si_sdr(est, target))
        report = eval_report(pairs)
        assert report.clip_means["TA"] == pytest.approx(np.mean(expected_ta),
                                                        rel=1e-9)
        assert report.clip_means["average"] == pytest.approx(
            np.mean(expected_tp), rel=1e-9)

    def test_kind_view_uses_concatenated_samples(self):
        rng = np.random.default_rng(6)
        n = 1200
        t = rng.random(n) < 0.5
        i = rng.random(n) < 0.5
        target = np.where(t, rng.standard_normal(n), 0.0)
        mix = target + np.where(i, rng.standard_normal(n), 0.0)
        rec = make_record("c0", mix, target, t, i)
        est = rng.standard_normal(n)
        report = eval_report([(rec, AudioClip(est, 1000))])
        ss = rec.track.kind_mask("SS")
        assert report.kind_means["SS"] == pytest.approx(
            oracle_si_sdr(est[ss], target[ss]), rel=1e-9)
        qq = rec.track.kind_mask("QQ")
        assert report.kind_means["QQ"] == pytest.approx(
            oracle_power(est[qq], 1000), rel=1e-9)

    def test_visual_bins_cover_5_percent_steps(self):
        rng = np.random.default_rng(7)
        pairs = []
        for k, evr in enumerate((0.02, 0.07, 0.5, 0.98, 1.0)):
            n = 1000
            t = rng.random(n) < 0.5
            t[0] = True
            target = np.where(t, rng.standard_normal(n), 0.0)
            rec = make_record(f"c{k}", target, target, t,
                              rng.random(n) < 0.5, evr=evr)
            pairs.append((rec, rec.target_truth))
        report = eval_report(pairs)
        assert len(report.visual_bins) == 20
        assert report.visual_bins[0]["count"] == 1  # 0.02 -> [0, 5%]
        assert report.visual_bins[1]["count"] == 1  # 0.07 -> (5, 10]
        assert report.visual_bins[9]["count"] == 1  # 0.5 -> (45, 50]
        assert report.visual_bins[19]["count"] == 2  # 0.98 and 1.0

    @pytest.mark.parametrize("evr", [1.5, -0.1, float("nan")])
    def test_visual_ratio_outside_unit_interval_names_the_clip(self, evr):
        rec = make_record("odd-clip", np.ones(100), np.ones(100),
                          np.ones(100, bool), np.zeros(100, bool), evr=evr)
        with pytest.raises(ValueError, match=re.escape(
                f"clip odd-clip: effective_visual_ratio {evr} outside [0, 1]")):
            eval_report([(rec, rec.target_truth)])

    def test_length_mismatch_reports_clip_id(self):
        rec = make_record("bad-clip", np.zeros(100), np.zeros(100),
                          np.zeros(100, bool), np.ones(100, bool))
        with pytest.raises(ValueError, match="bad-clip"):
            eval_report([(rec, AudioClip(np.zeros(99), 1000))])

    def test_write_report_files(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 1000
        t = rng.random(n) < 0.5
        t[0] = True
        target = np.where(t, rng.standard_normal(n), 0.0)
        rec = make_record("c0", target, target, t, rng.random(n) < 0.5)
        report = eval_report([(rec, rec.target_truth)])
        write_report(report, tmp_path)
        for name in ("report.txt", "clip_view.csv", "kind_view.csv",
                     "power_hist.csv", "visual_bins.csv"):
            assert (tmp_path / name).exists()

    def test_write_report_bytes(self, tmp_path):
        # Exact bytes of the rendered views over hand-built clips: two TA
        # clips (one all QQ), one clip each in the 0%, (40,60]% and
        # (80,100]% buckets, and visual ratios 0.0, 0.05, 0.5 and 1.0.
        n = 40
        idx = np.arange(n)
        quarters = (idx % 7 - 3) / 4.0
        pairs = []
        for clip_id, t, i, evr, err in (
                ("ta", idx < 0, idx < 20, 0.0, 0.5),
                ("quiet", idx < 0, idx < 0, 0.05, 0.0),
                ("solo", idx < 30, idx < 0, 1.0, 0.25),
                ("half", idx < 30, idx >= 10, 0.5, 0.5),
                ("full", idx >= 0, idx >= 0, 1.0, 0.75)):
            target = np.where(t, quarters, 0.0)
            rec = make_record(clip_id, target + 0.5 * i, target, t, i, evr=evr)
            pairs.append((rec, AudioClip(target + err * (idx % 3 == 1), 1000)))
        write_report(eval_report(pairs), tmp_path)
        empty = "0,,,,\n"
        want = {
            "report.txt":
                "    bucket      n    SI-SDR\n"
                "        TA      2    -30.45 (power dB/s)\n"
                "        0%      1      9.59\n"
                "  (40,60]%      1      3.28\n"
                " (80,100]%      1      0.89\n"
                "   average      3      4.58\n"
                "\n"
                "  kind      n    metric\n"
                "    QQ      3    -16.17 (power dB/s)\n"
                "    SQ      2      7.47 (SI-SDR dB)\n"
                "    SS      2      2.80 (SI-SDR dB)\n"
                "    QS      2     19.09 (power dB/s)\n",
            "clip_view.csv":
                "bucket,count,mean_metric\n"
                "TA,2,-30.45088315147818\n"
                "0%,1,9.590146905010373\n"
                '"(40,60]%",1,3.277556876458311\n'
                '"(80,100]%",1,0.8871795883729914\n'
                "average,3,4.584961123280558\n",
            "kind_view.csv":
                "kind,count,mean_metric,metric\n"
                "QQ,3,-16.173124880850107,power\n"
                "SQ,2,7.468803612303452,si_sdr\n"
                "SS,2,2.8031900859008623,si_sdr\n"
                "QS,2,19.085346582607762,power\n",
            "visual_bins.csv":
                "lo,hi,count,QQ,SQ,SS,QS\n"
                "0.0,0.05,2,-30.624693682751968,,,19.420080530719467\n"
                "0.05,0.1," + empty
                + "0.1,0.15000000000000002," + empty
                + "0.15000000000000002,0.2," + empty
                + "0.2,0.25," + empty
                + "0.25,0.30000000000000004," + empty
                + "0.30000000000000004,0.35000000000000003," + empty
                + "0.35000000000000003,0.4," + empty
                + "0.4,0.45," + empty
                + "0.45,0.5,1,,4.195051493095753,4.719200583428734,"
                  "18.75061263449606\n"
                + "0.5,0.55," + empty
                + "0.55,0.6000000000000001," + empty
                + "0.6000000000000001,0.65," + empty
                + "0.65,0.7000000000000001," + empty
                + "0.7000000000000001,0.75," + empty
                + "0.75,0.8," + empty
                + "0.8,0.8500000000000001," + empty
                + "0.8500000000000001,0.9," + empty
                + "0.9,0.9500000000000001," + empty
                + "0.9500000000000001,1.0,2,12.730012722953614,"
                  "10.742555731511152,0.8871795883729914,\n",
        }
        for name, text in want.items():
            assert (tmp_path / name).read_text() == text, name

    def test_eps_constant(self):
        assert EPS == 1e-8
