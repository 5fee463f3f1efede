import math

import numpy as np
import pytest

from usev import autodiff as ad
from usev.losses import (EPS, LossWeights, loss_differentiated,
                         tensor_loss_differentiated, tensor_loss_energy,
                         tensor_loss_sdr, tensor_loss_uniform)
from usev.scenario import label_scenarios


# Independent oracles: exact summation via math.fsum, formulas spelled out.

def fsum_sq(x):
    return math.fsum(v * v for v in np.asarray(x).tolist())


def oracle_uniform(est, ref):
    return -10.0 * math.log10((fsum_sq(ref) + 1e-8) /
                              (fsum_sq(np.asarray(est) - np.asarray(ref)) + 1e-8))


def oracle_sdr(est, ref):
    return -10.0 * math.log10(
        fsum_sq(ref) / (fsum_sq(np.asarray(est) - np.asarray(ref)) + 1e-8) + 1e-8)


def oracle_energy(est):
    return 10.0 * math.log10(fsum_sq(est) + 1e-8)


def oracle_differentiated(est, ref, track, w):
    total = 0.0
    per_kind = {k: ([], []) for k in ("QQ", "SQ", "SS", "QS")}
    for start, end, kind in track.to_triples():
        per_kind[kind][0].extend(np.asarray(est)[start:end].tolist())
        per_kind[kind][1].extend(np.asarray(ref)[start:end].tolist())
    for kind, weight in (("QQ", w.alpha), ("SQ", w.beta),
                         ("SS", w.gamma), ("QS", w.delta)):
        e, r = per_kind[kind]
        if not e:
            continue
        if kind in ("SQ", "SS"):
            total += weight * oracle_sdr(np.array(e), np.array(r))
        else:
            total += weight * oracle_energy(np.array(e))
    return total


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestClosedForms:
    def test_uniform_all_zero(self):
        assert tensor_loss_uniform(ad.Tensor(np.zeros(10)), np.zeros(10)).item() == 0.0

    def test_uniform_eps_numerator(self):
        est = np.zeros(4)
        est[0] = 1e-4  # ||est||^2 = 1e-8
        got = tensor_loss_uniform(ad.Tensor(est), np.zeros(4)).item()
        assert got == pytest.approx(-10 * math.log10(0.5), abs=1e-9)
        assert got == pytest.approx(3.0103, abs=1e-4)

    def test_sdr_perfect(self):
        ref = np.zeros(16)
        ref[0] = 1.0
        got = tensor_loss_sdr(ad.Tensor(ref.copy()), ref).item()
        assert got == pytest.approx(-10 * math.log10(1e8 + 1e-8), abs=1e-9)
        assert got == pytest.approx(-80.0, abs=1e-6)

    def test_sdr_silent_estimate(self):
        ref = np.zeros(16)
        ref[0] = 1.0
        got = tensor_loss_sdr(ad.Tensor(np.zeros(16)), ref).item()
        assert got == pytest.approx(-10 * math.log10(1 / (1 + 1e-8) + 1e-8),
                                    abs=1e-12)
        assert abs(got) < 1e-6

    def test_energy_silence(self):
        assert tensor_loss_energy(ad.Tensor(np.zeros(100))).item() == pytest.approx(
            -80.0, abs=1e-12)

    def test_energy_unit(self):
        x = np.zeros(5)
        x[2] = 1.0
        assert tensor_loss_energy(ad.Tensor(x)).item() == pytest.approx(0.0, abs=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tensor_loss_uniform(ad.Tensor(np.zeros(3)), np.zeros(4))
        with pytest.raises(ValueError):
            tensor_loss_sdr(ad.Tensor(np.zeros(3)), np.zeros(4))
        track = label_scenarios(np.ones(4, bool), np.zeros(4, bool))
        with pytest.raises(ValueError, match="length mismatch"):
            loss_differentiated(np.ones(3), np.ones(4), track)


class TestOracleEquivalence:
    def test_uniform_sdr_energy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(50, 2000))
            est = rng.standard_normal(n)
            ref = rng.standard_normal(n)
            e = ad.Tensor(est)
            assert rel_close(tensor_loss_uniform(e, ref).item(), oracle_uniform(est, ref))
            assert rel_close(tensor_loss_sdr(e, ref).item(), oracle_sdr(est, ref))
            assert rel_close(tensor_loss_energy(e).item(), oracle_energy(est))

    def test_differentiated_slicing_oracle(self):
        rng = np.random.default_rng(1)
        w = LossWeights()
        for _ in range(30):
            n = int(rng.integers(50, 1500))
            t = rng.random(n) < 0.6
            i = rng.random(n) < 0.5
            track = label_scenarios(t, i)
            ref = np.where(t, rng.standard_normal(n), 0.0)
            est = rng.standard_normal(n)
            if not (t.any()):
                continue
            got = loss_differentiated(est, ref, track, w)
            want = oracle_differentiated(est, ref, track, w)
            assert rel_close(got, want)


class TestDifferentiated:
    def test_all_ss_reduces_to_sdr(self):
        rng = np.random.default_rng(2)
        n = 400
        track = label_scenarios(np.ones(n, bool), np.ones(n, bool))
        est, ref = rng.standard_normal(n), rng.standard_normal(n)
        w = LossWeights(0.5, 2.0, 3.0, 0.25)
        assert loss_differentiated(est, ref, track, w) == pytest.approx(
            3.0 * tensor_loss_sdr(ad.Tensor(est), ref).item(), rel=1e-12)

    def test_all_qq_silent_estimate(self):
        n = 256
        track = label_scenarios(np.zeros(n, bool), np.zeros(n, bool))
        got = loss_differentiated(np.zeros(n), np.zeros(n), track, LossWeights())
        assert got == pytest.approx(0.005 * -80.0, abs=1e-12)
        assert got == pytest.approx(-0.4, abs=1e-12)

    def test_absent_kinds_contribute_zero(self):
        n = 100
        track = label_scenarios(np.ones(n, bool), np.zeros(n, bool))  # all SQ
        est = np.random.default_rng(3).standard_normal(n)
        ref = np.ones(n)
        w = LossWeights(0.005, 1.0, 1.0, 0.005)
        assert loss_differentiated(est, ref, track, w) == pytest.approx(
            tensor_loss_sdr(ad.Tensor(est), ref).item(), rel=1e-12)

    def test_zero_energy_reference_on_speech_segment_raises(self):
        n = 50
        track = label_scenarios(np.ones(n, bool), np.zeros(n, bool))  # all SQ
        with pytest.raises(ValueError):
            loss_differentiated(np.ones(n), np.zeros(n), track, LossWeights())
        # The check runs for every present SQ/SS kind, weighted or not.
        unweighted = LossWeights(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="zero-energy reference on a SQ"):
            loss_differentiated(np.ones(n), np.zeros(n), track, unweighted)
        with pytest.raises(ValueError, match="zero-energy reference on a SQ"):
            tensor_loss_differentiated(ad.Tensor(np.ones(n), requires_grad=True),
                                       np.zeros(n), track, unweighted)

    def test_sdr_monotone_in_error(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(300)
        noise = rng.standard_normal(300)
        last = None
        for a in (1.0, 0.5, 0.25, 0.1, 0.01):
            val = tensor_loss_sdr(ad.Tensor(ref + a * noise), ref).item()
            if last is not None:
                assert val < last
            last = val


class TestLossWeights:
    def test_default_tuple(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma, w.delta) == (0.005, 1.0, 1.0, 0.005)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 1, 1, 0.005)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LossWeights(bad, 1, 1, 0.005)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            LossWeights(0, 0, 0, 0)

    def test_eps_constant(self):
        assert EPS == 1e-8


class TestTensorRoute:
    def test_matches_numpy_route(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(50, 800))
            t = rng.random(n) < 0.6
            i = rng.random(n) < 0.4
            track = label_scenarios(t, i)
            ref = np.where(t, rng.standard_normal(n), 0.0)
            est_np = rng.standard_normal(n)
            est = ad.Tensor(est_np, requires_grad=True)
            const = ad.Tensor(est_np)
            pairs = [
                (tensor_loss_uniform(est, ref).item(),
                 tensor_loss_uniform(const, ref).item()),
                (tensor_loss_sdr(est, ref).item(), tensor_loss_sdr(const, ref).item()),
                (tensor_loss_energy(est).item(), tensor_loss_energy(const).item()),
            ]
            if t.any():
                pairs.append((
                    tensor_loss_differentiated(est, ref, track).item(),
                    loss_differentiated(est_np, ref, track)))
            for got, want in pairs:
                assert rel_close(got, want)

    def test_gradient_selectivity_quiet_weights_zero(self):
        # alpha = delta = 0 -> exactly zero gradient on QQ/QS samples
        rng = np.random.default_rng(6)
        n = 500
        t = rng.random(n) < 0.5
        i = rng.random(n) < 0.5
        track = label_scenarios(t, i)
        ref = np.where(t, rng.standard_normal(n), 0.0)
        est = ad.Tensor(rng.standard_normal(n), requires_grad=True)
        loss = tensor_loss_differentiated(est, ref, track,
                                          LossWeights(0.0, 1.0, 1.0, 0.0))
        loss.backward()
        quiet = track.kind_mask("QQ") | track.kind_mask("QS")
        assert np.all(est.grad[quiet] == 0.0)
        assert np.any(est.grad[~quiet] != 0.0)

    def test_gradient_selectivity_speech_weights_zero(self):
        rng = np.random.default_rng(7)
        n = 500
        t = rng.random(n) < 0.5
        i = rng.random(n) < 0.5
        track = label_scenarios(t, i)
        ref = np.where(t, rng.standard_normal(n), 0.0)
        est = ad.Tensor(rng.standard_normal(n), requires_grad=True)
        loss = tensor_loss_differentiated(est, ref, track,
                                          LossWeights(1.0, 0.0, 0.0, 1.0))
        loss.backward()
        speech = track.kind_mask("SQ") | track.kind_mask("SS")
        assert np.all(est.grad[speech] == 0.0)
        assert np.any(est.grad[~speech] != 0.0)
