import numpy as np
import pytest

from usev.scenario import (KINDS, ScenarioTrack, classify_clip,
                           clip_bucket, crop_track, label_scenarios,
                           overlap_bucket, overlap_ratio)

SR = 1000  # tests use 1 kHz so second-based examples stay readable


def brute_force_kinds(target, interference):
    """Per-sample classifier, the oracle for label_scenarios."""
    out = []
    for t, i in zip(target, interference):
        out.append({(0, 0): "QQ", (1, 0): "SQ", (1, 1): "SS", (0, 1): "QS"}
                   [(int(t), int(i))])
    return out


def track_to_per_sample(track):
    out = [None] * track.clip_len
    for start, end, kind in track.to_triples():
        for j in range(start, end):
            out[j] = kind
    return out


def seconds_mask(n_s, spans):
    mask = np.zeros(int(n_s * SR), dtype=bool)
    for a, b in spans:
        mask[int(a * SR) : int(b * SR)] = True
    return mask


class TestLabelScenarios:
    def test_spec_example(self):
        target = seconds_mask(4, [(0, 2)])
        interf = seconds_mask(4, [(1, 3)])
        track = label_scenarios(target, interf)
        assert track.to_triples() == [
            (0, SR, "SQ"), (SR, 2 * SR, "SS"),
            (2 * SR, 3 * SR, "QS"), (3 * SR, 4 * SR, "QQ")]

    def test_all_false(self):
        track = label_scenarios(np.zeros(50, bool), np.zeros(50, bool))
        assert track.to_triples() == [(0, 50, "QQ")]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            t = rng.random(n) < rng.uniform(0.1, 0.9)
            i = rng.random(n) < rng.uniform(0.1, 0.9)
            track = label_scenarios(t, i)
            assert track_to_per_sample(track) == brute_force_kinds(t, i)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            label_scenarios(np.zeros(3, bool), np.zeros(4, bool))

    def test_idempotent_under_mask_rederivation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            t = rng.random(n) < 0.5
            i = rng.random(n) < 0.5
            track = label_scenarios(t, i)
            again = label_scenarios(track.target_mask(), track.interference_mask())
            assert again.to_triples() == track.to_triples()

    def test_durations_match_mask_counts(self):
        rng = np.random.default_rng(2)
        t = rng.random(500) < 0.4
        i = rng.random(500) < 0.6
        d = label_scenarios(t, i).durations()
        assert d["SS"] == int(np.sum(t & i))
        assert d["SQ"] == int(np.sum(t & ~i))
        assert d["QS"] == int(np.sum(~t & i))
        assert d["QQ"] == int(np.sum(~t & ~i))


class TestOverlapRatio:
    def test_half(self):
        track = label_scenarios(seconds_mask(4, [(0, 3)]),
                                seconds_mask(4, [(1, 3), (3, 4)]))
        # SS [1,3) = 2s, SQ [0,1) = 1s, QS [3,4) = 1s
        assert overlap_ratio(track) == pytest.approx(0.5)

    def test_zero_with_speech(self):
        track = label_scenarios(seconds_mask(3, [(0, 3)]), seconds_mask(3, []))
        assert overlap_ratio(track) == 0.0

    def test_all_quiet_undefined(self):
        track = label_scenarios(np.zeros(100, bool), np.zeros(100, bool))
        assert overlap_ratio(track) is None

    def test_invariant_to_added_silence(self):
        t = seconds_mask(4, [(0, 2)])
        i = seconds_mask(4, [(1, 3)])
        r1 = overlap_ratio(label_scenarios(t, i))
        pad = np.zeros(2 * SR, dtype=bool)
        r2 = overlap_ratio(label_scenarios(np.concatenate([t, pad]),
                                           np.concatenate([i, pad])))
        assert r1 == r2


class TestClassifyClip:
    def test_qq_qs_only_is_ta(self):
        track = label_scenarios(np.zeros(200, bool), seconds_mask(0.2, [(0, 0.1)]))
        assert classify_clip(track) == "TA"

    def test_any_ss_is_tp(self):
        track = label_scenarios(seconds_mask(1, [(0.5, 0.6)]),
                                seconds_mask(1, [(0.5, 1.0)]))
        assert classify_clip(track) == "TP"

    def test_sq_only_is_tp_with_zero_ratio(self):
        track = label_scenarios(seconds_mask(1, [(0, 1)]), seconds_mask(1, []))
        assert classify_clip(track) == "TP"
        assert overlap_ratio(track) == 0.0


class TestOverlapBucket:
    def test_boundaries(self):
        assert overlap_bucket(0.20) == "(0,20]%"
        assert overlap_bucket(0.2000001) == "(20,40]%"
        assert overlap_bucket(None) == "TA"
        assert overlap_bucket(0.0) == "0%"
        assert overlap_bucket(1.0) == "(80,100]%"
        assert overlap_bucket(1e-9) == "(0,20]%"
        assert overlap_bucket(0.8) == "(60,80]%"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            overlap_bucket(1.5)

    def test_clip_bucket_sends_ta_with_interference_to_ta(self):
        # ratio is a defined 0.0 here, but the clip is still target-absent
        track = label_scenarios(np.zeros(100, bool),
                                seconds_mask(0.1, [(0, 0.05)]))
        assert overlap_ratio(track) == 0.0
        assert clip_bucket(track) == "TA"

    def test_clip_bucket_tp_uses_ratio(self):
        track = label_scenarios(seconds_mask(1, [(0, 1)]),
                                seconds_mask(1, [(0, 0.3)]))
        assert clip_bucket(track) == "(20,40]%"


class TestScenarioTrack:
    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="gap at 2"):
            ScenarioTrack.from_triples([(0, 2, "QQ"), (3, 4, "SS")], 4)

    def test_rejects_adjacent_same_kind(self):
        with pytest.raises(ValueError, match="adjacent segments share kind QQ"):
            ScenarioTrack.from_triples([(0, 2, "QQ"), (2, 4, "QQ")], 4)

    def test_rejects_wrong_cover(self):
        with pytest.raises(ValueError, match=r"cover \[0, 2\), clip_len is 4"):
            ScenarioTrack.from_triples([(0, 2, "QQ")], 4)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario kind 'XX'"):
            ScenarioTrack.from_triples([(0, 2, "QQ"), (2, 4, "XX")], 4)

    @pytest.mark.parametrize("triples", [[(0, 0, "QQ"), (0, 4, "SS")],
                                         [(0, 2, "QQ"), (4, 2, "SS")]],
                             ids=["zero_length", "reversed"])
    def test_rejects_empty_segment(self, triples):
        with pytest.raises(ValueError, match="empty segment"):
            ScenarioTrack.from_triples(triples, 4)

    def test_codes_are_target_plus_twice_interference(self):
        t = np.array([0, 1, 1, 0, 0], bool)
        i = np.array([0, 0, 1, 1, 0], bool)
        track = label_scenarios(t, i)
        assert track.codes.dtype == np.int8
        assert track.codes.tolist() == [0, 1, 3, 2, 0]
        assert track.target_mask().tolist() == t.tolist()
        assert track.interference_mask().tolist() == i.tolist()
        assert track.durations() == {"QQ": 2, "SQ": 1, "SS": 1, "QS": 1}

    def test_kind_mask(self):
        track = label_scenarios(np.array([1, 1, 0, 0], bool),
                                np.array([0, 1, 1, 0], bool))
        assert track.kind_mask("SS").tolist() == [False, True, False, False]

    def test_triples_round_trip(self):
        track = label_scenarios(np.array([1, 0], bool), np.array([0, 1], bool))
        again = ScenarioTrack.from_triples(track.to_triples(), track.clip_len)
        assert again.to_triples() == track.to_triples()


class TestCropTrack:
    def test_crop_matches_mask_crop(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 300))
            t = rng.random(n) < 0.5
            i = rng.random(n) < 0.5
            track = label_scenarios(t, i)
            a = int(rng.integers(0, n - 1))
            b = int(rng.integers(a + 1, n + 1))
            want = label_scenarios(t[a:b], i[a:b])
            assert crop_track(track, a, b).to_triples() == want.to_triples()

    def test_bad_bounds(self):
        track = label_scenarios(np.zeros(10, bool), np.zeros(10, bool))
        with pytest.raises(ValueError):
            crop_track(track, 5, 5)


def test_all_kinds_enumerated():
    assert KINDS == ("QQ", "SQ", "SS", "QS")
