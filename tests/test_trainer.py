from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gls_adapt.cli import main
from gls_adapt.datagen import Dataset, make_shift_task, write_dataset_csv
from gls_adapt import losses, network, trainer
from gls_adapt.errors import ConfigInvalid, InvalidValue, NonFiniteValue, ShapeMismatch
from gls_adapt.network import init_model_state
from gls_adapt.trainer import (
    ALGORITHMS,
    TrainConfig,
    evaluate,
    make_bound_hook,
    train,
)


def tiny_task(seed=0, k=3, n=400, **kwargs):
    return make_shift_task(
        k=k,
        n_source=n,
        n_target=n,
        sigma=0.3,
        p_source=[0.5, 0.3, 0.2] if k == 3 else None,
        p_target=[0.2, 0.3, 0.5] if k == 3 else None,
        seed=seed,
        **kwargs,
    )


def tiny_config(**kwargs):
    base = dict(
        algorithm="iwdan",
        epochs=3,
        batches_per_epoch=5,
        batch_size=32,
        lr=0.05,
        momentum=0.9,
        seed=0,
        feature_dim=8,
        g_hidden=(16,),
        d_hidden=(8,),
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestEvaluate:
    def test_perfect_classifier_identity_confusion(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=2, k=3, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(0))
        cfg = tiny_config(algorithm="none", epochs=8, batches_per_epoch=20)
        state, _ = train(cfg, src, src)
        acc, conf = evaluate(state, src)
        assert acc > 0.97
        assert np.all(np.diag(conf) > 0.9)
        assert np.max(np.abs(conf.sum(axis=1) - 1.0)) < 1e-9

    def test_constant_classifier(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=2, k=3, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(1))
        state.h.weights[0][:] = 0.0
        state.h.biases[0][:] = np.array([5.0, 0.0, 0.0])
        acc, conf = evaluate(state, src)
        p0 = src.label_distribution().probs[0]
        assert acc == pytest.approx(p0, abs=1e-12)
        assert np.allclose(conf[:, 0], 1.0)

    def test_random_net_on_balanced_binary(self):
        accs = []
        for seed in range(8):
            src, _ = make_shift_task(k=2, n_source=1500, n_target=100, sigma=0.3, seed=seed)
            state = init_model_state(input_dim=2, k=2, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(seed))
            acc, _ = evaluate(state, src)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.5) < 0.15

    def test_dimension_mismatch(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=5, k=3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatch, match="data dim 2 != model input dim 5"):
            evaluate(state, src)


class TestTrainBasics:
    def test_all_algorithms_run_and_trace(self):
        src, tgt = tiny_task()
        for alg in ALGORITHMS:
            cfg = tiny_config(algorithm=alg, epochs=2)
            state, trace = train(cfg, src, tgt)
            assert len(trace) == 2
            rec = trace.records[-1]
            assert np.isfinite([rec.acc_src, rec.acc_tgt, rec.loss_c, rec.loss_da]).all()
            assert rec.w.shape == (3,)

    def test_lambda_zero_keeps_unit_weights(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="iwdan", ema_lambda=0.0, epochs=3)
        _, trace = train(cfg, src, tgt)
        for rec in trace.records:
            assert np.array_equal(rec.w, np.ones(3))

    def test_oracle_distance_identically_zero(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="iwdan_o", epochs=3)
        _, trace = train(cfg, src, tgt)
        for rec in trace.records:
            assert rec.w_dist == 0.0

    def test_reproducible_trace(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="iwdan", epochs=3)
        _, a = train(cfg, src, tgt)
        _, b = train(cfg, src, tgt)
        for ra, rb in zip(a.records, b.records):
            assert ra.acc_src == rb.acc_src
            assert ra.acc_tgt == rb.acc_tgt
            assert ra.loss_da == rb.loss_da
            assert np.array_equal(ra.w, rb.w)

    def test_none_skips_adversarial_loss(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="none", epochs=2)
        _, trace = train(cfg, src, tgt)
        assert all(rec.loss_da == 0.0 for rec in trace.records)

    def test_best_accuracy_is_max_over_epochs(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="dann", epochs=4)
        _, trace = train(cfg, src, tgt)
        assert trace.best_target_accuracy() == max(r.acc_tgt for r in trace.records)

    def test_weight_update_period(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="iwdan", epochs=4, weight_update_period=2)
        _, trace = train(cfg, src, tgt)
        # no update after epochs 0 and 2 (1-indexed periods), weights move
        # only after epochs 1 and 3
        assert np.array_equal(trace.records[0].w, np.ones(3))
        assert not np.array_equal(trace.records[1].w, trace.records[0].w)
        assert np.array_equal(trace.records[2].w, trace.records[1].w)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(algorithm="nope").validated()
        with pytest.raises(ConfigInvalid):
            tiny_config(ema_lambda=1.5).validated()
        with pytest.raises(ConfigInvalid):
            tiny_config(epochs=0).validated()

    def test_dimension_mismatch_between_domains(self):
        src, tgt = tiny_task()
        bad_tgt = Dataset(np.zeros((50, 3)), np.zeros(50, dtype=int), 3)
        with pytest.raises(ShapeMismatch, match="feature dims differ: 2 vs 3"):
            train(tiny_config(), src, bad_tgt)

    def test_zero_source_class(self):
        feats = np.random.default_rng(0).normal(size=(60, 2))
        labels = np.zeros(60, dtype=int)
        src = Dataset(feats, labels, 2)
        tgt = Dataset(feats, 1 - labels, 2)
        with pytest.raises(InvalidValue, match="every class needs at least one source sample"):
            train(tiny_config(algorithm="dann"), src, tgt)


class TestAblationIdentity:
    def test_unweighted_iwdan_is_bitwise_dann(self):
        src, tgt = tiny_task()
        cfg_dann = tiny_config(algorithm="dann", epochs=3)
        cfg_iw = tiny_config(
            algorithm="iwdan", epochs=3, weight_da_loss=False, weight_c_loss=False
        )
        state_a, trace_a = train(cfg_dann, src, tgt)
        state_b, trace_b = train(cfg_iw, src, tgt)
        for ra, rb in zip(trace_a.records, trace_b.records):
            assert ra.acc_src == rb.acc_src
            assert ra.acc_tgt == rb.acc_tgt
            assert ra.loss_da == rb.loss_da
            assert ra.loss_c == rb.loss_c
            assert np.array_equal(ra.w, rb.w)
        for name in ("g", "h", "d"):
            for wa, wb in zip(state_a.net(name).weights, state_b.net(name).weights):
                assert np.array_equal(wa, wb)

    def test_flags_change_the_trajectory(self):
        src, tgt = tiny_task()
        base = tiny_config(algorithm="iwdan_o", epochs=3)
        _, t_full = train(base, src, tgt)
        _, t_da = train(replace(base, weight_c_loss=False), src, tgt)
        _, t_c = train(replace(base, weight_da_loss=False), src, tgt)
        assert not np.allclose(t_full.records[-1].acc_tgt, t_da.records[-1].acc_tgt) or not np.allclose(
            t_full.records[-1].loss_c, t_da.records[-1].loss_c
        )
        assert t_c.records[-1].loss_da != t_da.records[-1].loss_da


class TestOracleSmoothProgress:
    def test_oracle_target_accuracy_nondecreasing_smoothed(self):
        src, tgt = make_shift_task(
            k=3,
            n_source=3000,
            n_target=3000,
            sigma=0.35,
            p_source=[0.6, 0.2, 0.2],
            p_target=[0.2, 0.2, 0.6],
            seed=0,
        )
        cfg = TrainConfig(algorithm="iwdan_o", epochs=30, seed=0, reversal_coeff=20.0)
        _, trace = train(cfg, src, tgt)
        acc = np.array([r.acc_tgt for r in trace.records])
        smooth = np.convolve(acc, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) >= -0.02)


class TestWeightContractionTrace:
    def test_estimates_contract_up_to_batch_noise(self):
        # per-class distance to the true ratios shrinks epoch over epoch,
        # up to a 0.02 pad absorbing the per-epoch estimation noise
        src, tgt = make_shift_task(
            k=3,
            n_source=3000,
            n_target=3000,
            sigma=0.35,
            p_source=[0.6, 0.2, 0.2],
            p_target=[0.2, 0.2, 0.6],
            seed=0,
            exact_counts=True,
        )
        from gls_adapt.estimator import true_weights

        w_true = true_weights(src.label_distribution(), tgt.label_distribution()).w
        for seed in (0, 1):
            cfg = TrainConfig(
                algorithm="iwdan", epochs=30, seed=seed, reversal_coeff=20.0, batch_size=128
            )
            _, trace = train(cfg, src, tgt)
            fracs = []
            for a, b in zip(trace.records[:-1], trace.records[1:]):
                flags = np.abs(b.w - w_true) <= np.abs(a.w - w_true) + 0.02
                fracs.append(flags.mean())
            last_third = fracs[-(len(fracs) // 3):]
            assert np.mean(last_third) >= 0.7


class TestMmdFamily:
    def test_iwjan_estimates_weights(self):
        src, tgt = tiny_task(n=900)
        cfg = tiny_config(algorithm="iwjan", epochs=6, batches_per_epoch=10)
        _, trace = train(cfg, src, tgt)
        assert trace.records[-1].w_dist < trace.records[0].w_dist + 0.5

    def test_jan_da_loss_is_negative_discrepancy(self):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm="jan", epochs=2)
        _, trace = train(cfg, src, tgt)
        assert all(rec.loss_da <= 1e-9 for rec in trace.records)


class TestNonFiniteLoss:
    def test_error_names_epoch_and_batch(self, monkeypatch):
        real = losses.cross_entropy_loss_grads
        calls = []

        def nan_on_eighth_call(preds, labels):
            value, grad = real(preds, labels)
            calls.append(value)
            return (float("nan") if len(calls) == 8 else value), grad

        monkeypatch.setattr(losses, "cross_entropy_loss_grads", nan_on_eighth_call)
        with pytest.raises(NonFiniteValue, match="epoch 1 batch 2"):
            train(tiny_config(algorithm="dann", epochs=2, batches_per_epoch=5), *tiny_task())


class TestTraceCsv:
    def test_columns(self, tmp_path):
        # the CLI's full-precision trace holds exactly the records train() returns
        src, tgt = tiny_task()
        write_dataset_csv(src, tmp_path / "source.csv")
        write_dataset_csv(tgt, tmp_path / "target.csv")
        opts = dict(epochs=2, batches_per_epoch=5, batch_size=32, feature_dim=8)
        argv = ["train", "--full-precision", "--seed", "0", "--out", str(tmp_path)]
        argv += ["--source", str(tmp_path / "source.csv"), "--target", str(tmp_path / "target.csv")]
        for name, value in opts.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert main(argv) == 0
        lines = (tmp_path / "trace_iwdan_seed0.raw.csv").read_text().splitlines()
        assert lines[0] == "epoch,acc_src,acc_tgt,loss_da,loss_c,w_0,w_1,w_2,w_dist,jsd_label"
        _, trace = train(TrainConfig(algorithm="iwdan", seed=0, **opts), src, tgt)
        assert len(lines) == 1 + len(trace) == 3
        for line, r in zip(lines[1:], trace.records):
            values = (r.acc_src, r.acc_tgt, r.loss_da, r.loss_c, *r.w, r.w_dist, r.jsd_label)
            assert line == ",".join([str(r.epoch), *(repr(float(v)) for v in values)])


class TestBoundHook:
    def test_hook_collects_reports_per_epoch(self):
        src, tgt = tiny_task(n=900)
        sink = []
        cfg = tiny_config(epochs=2, batches_per_epoch=8)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink, min_count=30))
        epochs = sorted({ep for ep, _ in sink})
        assert epochs == [0, 1]
        checks = {r.check for _, r in sink}
        assert checks == {"lower_bound", "error_decomposition", "joint_error", "sufficiency"}

    def test_hook_logs_both_divergence_routes(self):
        src, tgt = tiny_task(n=900)
        sink = []
        cfg = tiny_config(epochs=1, batches_per_epoch=8)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink, min_count=30))
        suff = next(r for _, r in sink if r.check == "sufficiency")
        assert "jsd_weighted_disc" in suff.components
        assert suff.components["jsd_weighted_disc"] >= 0.0
        assert np.isfinite(suff.components["jsd_route_discrepancy"])

    def test_hook_handles_outer_product_discriminator(self):
        src, tgt = tiny_task(n=900)
        sink = []
        cfg = tiny_config(algorithm="iwcdan", epochs=1, batches_per_epoch=8)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink, min_count=30))
        assert any(r.check == "sufficiency" for _, r in sink)


class TestFullDataPasses:
    """Deterministic counts of full-dataset passes; a perf regression shows here without timing."""

    @pytest.mark.parametrize("algorithm", ["iwdan", "iwcdan"])
    def test_one_evaluation_per_epoch(self, monkeypatch, algorithm):
        src, tgt = tiny_task(n=900)
        counts = Counter()
        real_forward, real_evaluate = network.forward, trainer.evaluate

        def forward(state, x, *args, **kwargs):
            counts["full_forward"] += len(x) in (src.n, tgt.n)
            return real_forward(state, x, *args, **kwargs)

        def evaluate(state, data):
            counts["evaluate"] += 1
            return real_evaluate(state, data)

        monkeypatch.setattr(network, "forward", forward)
        monkeypatch.setattr(trainer, "evaluate", evaluate)
        cfg = tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=3)
        train(cfg, src, tgt)
        assert counts == {"evaluate": 2 * 2, "full_forward": 2 * 2}

        counts.clear()
        bound_hook = make_bound_hook(src, tgt, [], min_count=30)

        def hook(epoch, state, record):
            before = counts["evaluate"]
            bound_hook(epoch, state, record)
            assert counts["evaluate"] == before

        train(cfg, src, tgt, epoch_hook=hook)
        assert counts == {"evaluate": 2 * 2, "full_forward": 2 * 4}


class TestStepPasses:
    """Deterministic counts of batch passes per SGD step; a regression shows here without timing."""

    @pytest.mark.parametrize("algorithm", ["none", "dann", "iwdan", "iwcdan", "iwjan"])
    def test_one_stacked_forward_and_backward_per_step(self, monkeypatch, algorithm):
        src, tgt = tiny_task()
        counts = Counter()

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        real_forward = network.forward

        def forward(state, x, *args, **kwargs):
            counts["full_forward" if len(x) == src.n else "batch_forward"] += 1
            return real_forward(state, x, *args, **kwargs)

        monkeypatch.setattr(network, "forward", forward)
        monkeypatch.setattr(network, "backward", counting("backward", network.backward))
        monkeypatch.setattr(losses, "weighted_mmd_loss_grads", counting("mmd", losses.weighted_mmd_loss_grads))
        monkeypatch.setattr(losses, "median_heuristic_bandwidths", counting("mmd", losses.median_heuristic_bandwidths))
        cfg = tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=3)
        train(cfg, src, tgt)
        steps = 2 * 3
        assert counts["batch_forward"] == 2 * steps  # one before the update, one after
        assert counts["backward"] == steps
        assert counts["mmd"] == (steps if algorithm == "iwjan" else 0)
        assert counts["full_forward"] == 2 * 2

    def test_kernel_bandwidths_are_the_median_heuristic(self, monkeypatch):
        src, tgt = tiny_task()
        real_loss, real_median = losses.weighted_mmd_loss_grads, losses._median_bandwidths
        feats, used = [], []

        def loss(feats_src, labels_src, feats_tgt, w, bandwidths=None):
            feats.append((feats_src.copy(), feats_tgt.copy()))
            return real_loss(feats_src, labels_src, feats_tgt, w, bandwidths)

        def median(*blocks):
            used.append(real_median(*blocks))
            return used[-1]

        monkeypatch.setattr(losses, "weighted_mmd_loss_grads", loss)
        monkeypatch.setattr(losses, "_median_bandwidths", median)
        train(tiny_config(algorithm="iwjan", epochs=1, batches_per_epoch=4), src, tgt)
        monkeypatch.undo()
        assert len(used) == len(feats) == 4
        for (zs, zt), bws in zip(feats, used):
            assert bws == losses.median_heuristic_bandwidths(zs, zt)
