"""Tests of the benchmark itself: each check rejects a planted fault, and a
smallest-size run of each workload passes every check.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import run  # pins BLAS threads before numpy loads

run._import_usev()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from usev import autodiff as ad  # noqa: E402
from usev import losses, metrics, mixsim  # noqa: E402

SEED = 5


class PlantedFaults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        w = workloads.WORKLOADS["corpus"]
        cls.sim = w.sim
        cls.records = list(mixsim.iter_corpus(w.sim, 6, SEED, occlusion=w.occlusion))
        rng = np.random.default_rng(SEED)
        # A stand-in extraction: part target, part mixture, a little noise.
        cls.ests = [0.7 * r.target_truth.samples + 0.2 * r.mixture.samples
                    + 1e-3 * rng.standard_normal(len(r.mixture)) for r in cls.records]
        cls.tmp = tempfile.TemporaryDirectory()
        cls.base = Path(cls.tmp.name)
        cls.manifest = mixsim.write_corpus(w.sim, 6, SEED, cls.base,
                                           occlusion=w.occlusion)
        cls.rows = mixsim.read_manifest(cls.manifest)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_report_rejects_scaled_estimate(self):
        pairs = list(zip(self.records, self.ests))
        self.assertEqual(checks.check_report(metrics.eval_report(pairs), pairs, "ok"), [])
        scaled = metrics.eval_report([(r, 1.01 * e) for r, e in pairs])
        self.assertNotEqual(checks.check_report(scaled, pairs, "scaled"), [])

    def test_loss_rejects_scaled_estimate_and_wrong_weight(self):
        recs, ests = self.records[:4], self.ests[:4]
        self.assertEqual(checks.check_loss(workloads.batch_loss(ests, recs), ests, recs), [])
        scaled = workloads.batch_loss([1.01 * e for e in ests], recs)
        self.assertNotEqual(checks.check_loss(scaled, ests, recs), [])
        wrong = workloads.batch_loss(ests, recs, losses.LossWeights(0.05, 1.0, 1.0, 0.005))
        self.assertNotEqual(checks.check_loss(wrong, ests, recs), [])

    def test_mixture_rejects_flipped_sample(self):
        self.assertEqual(checks.check_mixtures(self.records, self.sim.ta_reference_rms), [])
        rec = self.records[0]
        bad = dataclasses.replace(rec, mixture=dataclasses.replace(
            rec.mixture, samples=rec.mixture.samples.copy()))
        k = int(np.flatnonzero(bad.mixture.samples)[0])
        bad.mixture.samples[k] = -bad.mixture.samples[k]
        self.assertNotEqual(checks.check_mixtures([bad], self.sim.ta_reference_rms), [])
        errs = checks.check_files([bad] + self.records[1:], self.rows, self.base,
                                  self.sim.viseme_fps)
        self.assertEqual(len(errs), 1)

    def test_mixture_rejects_wrong_snr(self):
        rec = self.records[1]
        spec = dataclasses.replace(rec.spec, snr_db=[s + 1e-6 for s in rec.spec.snr_db])
        bad = dataclasses.replace(rec, spec=spec)
        self.assertNotEqual(checks.check_mixtures([bad], self.sim.ta_reference_rms), [])

    def test_files_match_and_reject_a_changed_viseme(self):
        fps = self.sim.viseme_fps
        self.assertEqual(checks.check_files(self.records, self.rows, self.base, fps), [])
        rec = self.records[2]
        vis = rec.viseme_stream.copy()
        vis[0, 0] += 1.0
        bad = dataclasses.replace(rec, viseme_stream=vis)
        self.assertNotEqual(checks.check_files([bad], self.rows[2:3], self.base, fps), [])

    def test_buckets_reject_count_off_by_one(self):
        stats = mixsim.corpus_stats(self.manifest)
        self.assertEqual(checks.check_buckets(self.rows, stats), [])
        bucket = next(b for b, n in stats.clip_counts.items() if n)
        stats.clip_counts[bucket] += 1
        self.assertNotEqual(checks.check_buckets(self.rows, stats), [])

    def test_encoder_and_decoder_reject_scaled_output(self):
        w = workloads.WORKLOADS["train_desk"]
        model = workloads.UsevNet(w.model, seed=SEED)
        params = {k: t.data for k, t in model.params.items()}
        cfg, x = model.cfg, self.records[0].mixture.samples
        with ad.no_grad(model.params.values()):
            enc = model.speech_encode(x).data
            dec = model.decode(ad.Tensor(enc), len(x)).data
        want_enc = checks.reference_encode(params, x, cfg.kernel_len, cfg.hop)
        want_dec = checks.reference_decode(params, enc, cfg.hop, len(x))
        self.assertEqual(checks.check_tensor("enc", enc, want_enc), [])
        self.assertEqual(checks.check_tensor("dec", dec, want_dec), [])
        self.assertNotEqual(checks.check_tensor("enc", 1.01 * enc, want_enc), [])
        self.assertNotEqual(checks.check_tensor("dec", 1.01 * dec, want_dec), [])

    def test_training_properties(self):
        self.assertEqual(checks.check_val_drop([{"val_loss": 1.0}, {"val_loss": 0.5}]), [])
        self.assertNotEqual(checks.check_val_drop([{"val_loss": 1.0}, {"val_loss": 1.0}]), [])
        self.assertNotEqual(
            checks.check_val_drop([{"val_loss": 1.0}, {"val_loss": float("nan")}]), [])
        state = {"a": np.arange(3.0)}
        self.assertEqual(checks.check_state("s", state, {"a": np.arange(3.0)}), [])
        nudged = {"a": np.nextafter(np.arange(3.0), 9.0)}
        self.assertNotEqual(checks.check_state("s", nudged, state), [])

    def test_outputs_reject_short_or_nonfinite(self):
        rec = self.records[0]
        self.assertEqual(checks.check_outputs([(rec, self.ests[0])]), [])
        self.assertNotEqual(checks.check_outputs([(rec, self.ests[0][:-1])]), [])
        bad = self.ests[0].copy()
        bad[3] = np.inf
        self.assertNotEqual(checks.check_outputs([(rec, bad)]), [])


# Smallest sizes at which each workload still exercises every stage and check.
SMOKE = {
    "train_desk": dict(corpora=1, clips=4, n_train=4, n_eval=2, epochs=2,
                       reload_passes=1),
    "evaluate_full": dict(corpora=1, clips=1, n_eval=1, reload_passes=1),
    "corpus": dict(corpora=2, clips=2, n_train=1, n_eval=1, batch_size=1,
                   reload_passes=1),
}


class SmokeRuns(unittest.TestCase):
    def _run(self, name: str, trace: int) -> dict:
        full = workloads.WORKLOADS[name]
        workloads.WORKLOADS[name] = dataclasses.replace(full, **SMOKE[name])
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(SEED),
                                 "--seconds", "0", "--trace", str(trace)])
        finally:
            workloads.WORKLOADS[name] = full
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def _check(self, name: str):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                res = self._run(name, trace)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(set(res["metrics"]), {m["name"] for m in spec[key]})
                for m in spec[key]:
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_train_desk(self):
        self._check("train_desk")

    def test_evaluate_full(self):
        self._check("evaluate_full")

    def test_corpus(self):
        self._check("corpus")


if __name__ == "__main__":
    sys.exit(unittest.main())
