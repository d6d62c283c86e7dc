import concurrent.futures
import os
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gls_adapt.cli import main
from gls_adapt.datagen import Dataset, make_shift_task, write_dataset_csv
from gls_adapt import estimator, losses, network, trainer
from gls_adapt.estimator import ConfusionAccumulator, solve_qp
from gls_adapt.errors import ConfigInvalid, InvalidValue, NonFiniteValue, ShapeMismatch
from gls_adapt.network import init_model_state
from gls_adapt.trainer import (
    ALGORITHMS,
    TrainConfig,
    evaluate,
    make_bound_hook,
    train,
    train_many,
)

from _oracles import REFERENCE_ALGORITHMS, train_reference


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


def features_buffer(state, data):
    """The (n, feature_dim) array evaluate writes the features into."""
    return np.empty((data.n, state.feature_dim))


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
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestEvaluate:
    def test_perfect_classifier_identity_confusion(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=2, k=3, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(0))
        cfg = tiny_config(algorithm="none", epochs=8, batches_per_epoch=20)
        state, _ = train(cfg, src, src)
        acc, conf = evaluate(state, src, features_buffer(state, src))
        assert acc > 0.97
        assert np.all(np.diag(conf) > 0.9)
        assert np.max(np.abs(conf.sum(axis=1) - 1.0)) < 1e-9

    def test_constant_classifier(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=2, k=3, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(1))
        state.h.weights[0][:] = 0.0
        state.h.biases[0][:] = np.array([5.0, 0.0, 0.0])
        acc, conf = evaluate(state, src, features_buffer(state, src))
        p0 = src.label_distribution().probs[0]
        assert acc == pytest.approx(p0, abs=1e-12)
        assert np.allclose(conf[:, 0], 1.0)

    def test_random_net_on_balanced_binary(self):
        accs = []
        for seed in range(8):
            src, _ = make_shift_task(k=2, n_source=1500, n_target=100, sigma=0.3, seed=seed)
            state = init_model_state(input_dim=2, k=2, feature_dim=8, g_hidden=(16,), rng=np.random.default_rng(seed))
            acc, _ = evaluate(state, src, features_buffer(state, src))
            accs.append(acc)
        assert abs(np.mean(accs) - 0.5) < 0.15

    def test_warm_call_on_3000_rows_allocates_under_1_mib(self):
        # blocked forwards need one block's temporaries; one unblocked
        # forward over the 3,000 rows needed 4.5 MiB
        src, _ = make_shift_task(k=3, n_source=3000, n_target=100, sigma=0.35, seed=0)
        assert src.n == 3000
        state = init_model_state(input_dim=2, k=3, rng=np.random.default_rng(0))
        feats = features_buffer(state, src)
        evaluate(state, src, feats)
        tracemalloc.start()
        try:
            evaluate(state, src, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    # output names which of evaluate's results is checked: the features written
    # into features_out, or the accuracy and confusion it scores
    @pytest.mark.parametrize("output", ["features", "classify"])
    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("n", [1, trainer.BLOCK_ROWS, trainer.BLOCK_ROWS + 1, 3000])
    def test_scores_the_blocks_it_forwards(self, monkeypatch, conditional, output, n):
        # the default training model; every check compares evaluate with the
        # forwards it made, so it holds under any BLAS
        state = init_model_state(input_dim=2, k=3, conditional=conditional, rng=np.random.default_rng(n))
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(scale=2.0, size=(n, 2)), rng.integers(0, 3, size=n), 3)
        blocks = []
        real_forward = network.forward

        def recording(state, x, discriminate=False):
            z, cache = real_forward(state, x, discriminate)
            blocks.append((x.copy(), z.copy(), cache["p"].copy()))
            return z, cache

        monkeypatch.setattr(network, "forward", recording)
        feats = np.full((n, state.feature_dim), np.nan)
        acc, conf = evaluate(state, data, feats)
        # every block goes through the module's forward, none longer than
        # BLOCK_ROWS, and together they are the rows in order
        rows, z, p = (np.concatenate(part) for part in zip(*blocks))
        assert max(len(x) for x, _, _ in blocks) <= trainer.BLOCK_ROWS
        assert rows.tobytes() == data.features.tobytes()
        if output == "features":
            assert feats.tobytes() == z.tobytes()
        else:
            hard = p.argmax(axis=1)
            assert acc == np.count_nonzero(hard == data.labels) / n
            want = np.zeros((3, 3))
            for y, yhat in zip(data.labels, hard):
                want[y, yhat] += 1
            for row in want:
                if row.sum() > 0:
                    row /= row.sum()
            assert conf.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        src, _ = tiny_task()
        state = init_model_state(input_dim=5, k=3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatch, match="data dim 2 != model input dim 5"):
            evaluate(state, src, features_buffer(state, src))

    @pytest.mark.parametrize("shape", [(400, 32), (200, 32), (300, 8)], ids=["more-rows", "fewer-rows", "narrower"])
    def test_features_out_of_another_shape_is_refused(self, shape):
        # numpy's broadcast error came out instead, naming only a block's shapes
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(300, 2)), rng.integers(0, 3, size=300), 3)
        state = init_model_state(input_dim=2, k=3, rng=rng)
        message = f"features_out has shape {shape}, expected (300, 32)"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            evaluate(state, data, np.zeros(shape))


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

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(algorithm="nope")
        with pytest.raises(ConfigInvalid):
            tiny_config(ema_lambda=1.5)
        with pytest.raises(ConfigInvalid):
            tiny_config(epochs=0)
        with pytest.raises(ConfigInvalid, match="^epochs, batches_per_epoch and batch_size must be >= 1$"):
            replace(tiny_config(), epochs=0)
        with pytest.raises(ConfigInvalid, match="^seed must be >= 0, got -1$"):
            tiny_config(seed=-1)
        with pytest.raises(ConfigInvalid, match="^feature_dim must be >= 1, got 0$"):
            tiny_config(feature_dim=0)

    def test_kernel_loss_needs_two_rows_per_batch(self):
        # the adversarial losses take a one-row batch; the kernel loss pairs rows
        assert tiny_config(algorithm="iwdan", batch_size=1).batch_size == 1
        assert tiny_config(algorithm="jan", batch_size=2).batch_size == 2
        with pytest.raises(ConfigInvalid, match="^iwjan's kernel loss pairs rows, so batch_size must be >= 2, got 1$"):
            tiny_config(algorithm="iwjan", batch_size=1)

    @pytest.mark.parametrize("field", ["lr", "reversal_coeff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_step_sizes_are_rejected(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"^{field} must be finite, got {value!r}$"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("-inf")])
    def test_non_positive_lr_keeps_its_message(self, lr):
        with pytest.raises(ConfigInvalid, match=r"^need lr > 0 and momentum in \[0, 1\)$"):
            tiny_config(lr=lr)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: train(tiny_config(), tiny_task()[0], Dataset(np.zeros((4, 2)), [0, 1, 0, 1], 2)),
                ShapeMismatch, "class counts differ: 3 vs 2", id="train-class-counts",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

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
            for wa, wb in zip(getattr(state_a, name).weights, getattr(state_b, name).weights):
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


# The reference trainer's worst norm-wise relative gap to train(), over the 10 algorithms, data
# seed 0 and run seeds 0-3, was 1.6e-13 with OpenBLAS's SkylakeX kernels and 3.3e-13 under the
# README's Haswell command (w_dist of a CDAN run, a small difference of nearly equal vectors);
# the bound leaves a margin of 300x over the larger.
REFERENCE_RTOL = 1e-10
TRACE_COLUMNS = ("acc_src", "acc_tgt", "loss_da", "loss_c", "w", "w_dist", "jsd_label", "conf_src", "conf_tgt")

# Over the configuration space the two sides drift further apart, by rounding alone: in each
# case below, moving every input feature by one ulp moved the library's own trace by as much
# as the reference did. Measured over 4,300 draws of test_agrees_over_the_configuration_space's
# space (1,300 under README's Haswell command), then checked against these bounds over 1,000
# fresh draws (500 under that command), none failing:
# - 12 steps at reversal 20 and momentum 0.85 grew a gap of 1.6e-10 (iwjan_o's loss_da), so
#   SPACE_RTOL leaves a margin of 60x;
# - the weight estimate is fixed only to about kappa^2 rounding units, kappa the condition
#   number of the confusion estimate the QP solves (its normal matrix has kappa^2); the
#   largest gap was 7.3e-16 kappa^2 (4.4e-8 at kappa 1.8e4, feature_dim 1 and k 9), so
#   QP_RTOL_PER_KAPPA2 leaves a margin of 14x. A singular estimate bounds nothing;
# - the kernel loss's gradient grows as 1 / bandwidth, and at reversal 20 saturated features
#   can drive the median-heuristic bandwidth toward 1e-12. Below BW_RESOLVED gaps reached 0.4
#   relative, so such a run's trajectory bounds nothing; 5% of the fresh draws fell there.
SPACE_RTOL = 1e-8
QP_RTOL_PER_KAPPA2 = 1e-14
BW_RESOLVED = 1e-3


def assert_close(lib, ref, what, rtol=REFERENCE_RTOL):
    """|lib - ref| <= rtol * max|lib|, over the whole array; equal arrays pass at any rtol."""
    lib, ref = np.asarray(lib, dtype=float), np.asarray(ref, dtype=float)
    gap = float(np.max(np.abs(lib - ref)))
    assert gap == 0.0 or gap <= rtol * float(np.max(np.abs(lib))), f"{what}: gap {gap:.3g}"


def shifted_task(k, seed, n=120):
    """A label-shift pair with exact class counts: source mass rising over the classes, target mass falling."""
    p = np.linspace(1.0, 2.0, k)
    p /= p.sum()
    return make_shift_task(
        k=k, n_source=n, n_target=n, sigma=0.3, p_source=p, p_target=p[::-1], seed=seed, exact_counts=True
    )


class TestReferenceTrainer:
    """train() agrees with the plain loop of tests/_oracles.py, which stacks nothing and shares no kernel."""

    def test_covers_every_algorithm(self):
        assert REFERENCE_ALGORITHMS == ALGORITHMS

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_trace_and_parameters_agree(self, algorithm):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=5, batch_size=16)
        state, trace = train(cfg, src, tgt)
        params, records = train_reference(cfg, src, tgt)
        assert len(records) == len(trace.records) == 2
        for record, ref in zip(trace.records, records):
            assert record.epoch == ref["epoch"]
            for column in TRACE_COLUMNS:
                assert_close(getattr(record, column), ref[column], f"epoch {record.epoch} {column}")
        for name in ("g", "h", "d"):
            assert_close(getattr(state, name).params, params[name], f"{name}'s parameters")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        algorithm=st.sampled_from(list(ALGORITHMS)),
        k=st.integers(2, 10),
        epochs=st.integers(1, 3),
        batches=st.integers(1, 4),
        batch_size=st.integers(2, 33),
        feature_dim=st.sampled_from([1, 8, 32]),
        ema_lambda=st.floats(0.0, 1.0),
        flags=st.tuples(st.booleans(), st.booleans()),
        reversal=st.sampled_from([0.0, 1.0, 20.0]),
        momentum=st.floats(0.0, 0.95),
        seed=st.integers(0, 999),
    )
    def test_agrees_over_the_configuration_space(
        self, algorithm, k, epochs, batches, batch_size, feature_dim, ema_lambda, flags, reversal, momentum, seed
    ):
        cfg = TrainConfig(
            algorithm=algorithm, epochs=epochs, batches_per_epoch=batches, batch_size=batch_size, momentum=momentum,
            ema_lambda=ema_lambda, seed=seed, weight_da_loss=flags[0],
            weight_c_loss=flags[1], feature_dim=feature_dim, reversal_coeff=reversal,
        )
        src, tgt = shifted_task(k, seed)
        # the condition number of each confusion estimate train solves, and the smallest
        # bandwidth of each step's kernel loss, in order
        kappas, bandwidths = [], []
        median_bandwidths = losses._median_bandwidths

        def recording_qp(c, mu, p_source):
            kappas.append(np.linalg.cond(c))
            return solve_qp(c, mu, p_source)

        def recording_bandwidths(sq):
            bws = median_bandwidths(sq)
            bandwidths.append(min(bws))
            return bws

        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            # both sides warn when a class gets no prediction mass
            warnings.filterwarnings("ignore", "confusion matrix has all-zero columns", RuntimeWarning)
            patch.setattr(trainer, "solve_qp", recording_qp)
            patch.setattr(losses, "_median_bandwidths", recording_bandwidths)
            state, trace = train(cfg, src, tgt)
            params, records = train_reference(cfg, src, tgt)
        # whether the estimates feed the losses, and so every later value
        fed = ALGORITHMS[algorithm][1] == "estimated" and (cfg.weight_da_loss or cfg.weight_c_loss)
        for record, ref in zip(trace.records, records, strict=True):
            assert record.epoch == ref["epoch"]
            done = record.epoch + 1
            resolved = min(bandwidths[: done * batches], default=np.inf) >= BW_RESOLVED
            trajectory = SPACE_RTOL if resolved else np.inf
            estimate = max(trajectory, QP_RTOL_PER_KAPPA2 * max(kappas[:done], default=1.0) ** 2)
            for column in TRACE_COLUMNS:
                rtol = estimate if fed or column in ("w", "w_dist") else trajectory
                assert_close(getattr(record, column), ref[column], f"epoch {record.epoch} {column}", rtol)
        for name in ("g", "h", "d"):
            assert_close(getattr(state, name).params, params[name], f"{name}'s parameters", estimate if fed else trajectory)


class TestRunBuffers:
    """A run trains its own parameter and velocity vectors and shares neither with another run."""

    @pytest.mark.parametrize("algorithm", ["iwdan", "iwcdan", "iwjan"])
    def test_a_second_run_leaves_the_first_runs_state(self, algorithm):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm=algorithm, epochs=2)
        first, _ = train(cfg, src, tgt)
        kept = (first.params.tobytes(), first.velocity.tobytes())
        second, _ = train(replace(cfg, seed=1), src, tgt)
        assert (first.params.tobytes(), first.velocity.tobytes()) == kept
        for a in (first.params, first.velocity):
            for b in (second.params, second.velocity):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("algorithm", ["none", "jan", "iwjan", "iwjan_o"])
    def test_d_stays_at_its_initial_values_without_an_adversarial_loss(self, algorithm):
        src, tgt = tiny_task()
        cfg = tiny_config(algorithm=algorithm, epochs=2)
        state, _ = train(cfg, src, tgt)
        initial = init_model_state(input_dim=src.dim, k=src.k, feature_dim=cfg.feature_dim, rng=np.random.default_rng(cfg.seed))
        assert state.d.params.tobytes() == initial.d.params.tobytes()
        g, h, d = state.split(state.velocity)
        assert not d.any()
        assert g.any() and h.any()


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


class TestNonFiniteLoss:
    def test_error_names_epoch_and_batch(self, monkeypatch):
        # the step calls the classification loss's kernel, not the public loss
        real = losses._nll
        calls = []

        def nan_on_eighth_call(p, labels, class_coeff, grad):
            value = real(p, labels, class_coeff, grad)
            calls.append(value)
            return float("nan") if len(calls) == 8 else value

        monkeypatch.setattr(losses, "_nll", nan_on_eighth_call)
        with pytest.raises(NonFiniteValue, match="epoch 1 batch 2"):
            train(tiny_config(algorithm="dann", epochs=2, batches_per_epoch=5), *tiny_task())

    def test_a_nan_feature_row_stops_the_kernel_loss(self, monkeypatch):
        # NaN features give NaN median-heuristic bandwidths, so the loss is NaN too
        real = network.forward
        calls = []

        def nan_row_on_eighth_step(state, x, discriminate=False):
            out, cache = real(state, x, discriminate)
            if len(x) == 64:  # a training step's stacked batch; evaluate's blocks are longer
                calls.append(len(x))
                if len(calls) == 8:
                    out[3] = np.nan
            return out, cache

        monkeypatch.setattr(network, "forward", nan_row_on_eighth_step)
        with pytest.raises(NonFiniteValue, match=r"^epoch 1 batch 2: loss_da=nan, loss_c="):
            train(tiny_config(algorithm="iwjan", epochs=2, batches_per_epoch=5), *tiny_task())


class TestStepChecks:
    """A step makes one check, after its backward, and each failure names the epoch and the batch:
    both losses must be finite, every prediction must be finite, and d must not be saturated."""

    S = 32  # tiny_config's batch_size

    @staticmethod
    def poison_g_after(monkeypatch, steps):
        """From the update of step ``steps`` on, g's parameters are NaN, as in a diverged run."""
        real = network.sgd_step
        done = []

        def sgd_step(state, grads, lr, momentum):
            real(state, grads, lr, momentum)
            done.append(state.version)
            if len(done) == steps:
                state.g.params[:] = np.nan
            return state

        monkeypatch.setattr(network, "sgd_step", sgd_step)
        return done

    @staticmethod
    def patch_step_forward(monkeypatch, edit):
        """``edit(out, cache)`` on the forward of every training step; evaluate's forwards pass untouched."""
        real = network.forward

        def forward(state, x, discriminate=False):
            out, cache = real(state, x, discriminate)
            if len(x) == 2 * TestStepChecks.S:  # a training step's stacked batch; evaluate's blocks are longer
                edit(out, cache)
            return out, cache

        monkeypatch.setattr(network, "forward", forward)

    @pytest.mark.parametrize(
        "algorithm, error, message",
        [
            ("iwdan", NonFiniteValue, r"epoch 1 batch 2: loss_da=nan, loss_c=nan"),
            ("iwcdan", NonFiniteValue, r"epoch 1 batch 2: loss_da=nan, loss_c=nan"),
            ("iwjan", NonFiniteValue, r"epoch 1 batch 2: loss_da=nan, loss_c=nan"),
            ("none", NonFiniteValue, r"epoch 1 batch 2: loss_da=0\.0, loss_c=nan"),
        ],
    )
    def test_a_diverging_run_fails_at_the_same_check(self, monkeypatch, algorithm, error, message):
        done = self.poison_g_after(monkeypatch, 7)
        with pytest.raises(error, match=f"^{message}$"):
            train(tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=5), *tiny_task())
        assert len(done) == 7  # the eighth step raised before its update

    @pytest.mark.parametrize("half", [0, 1])
    def test_a_nan_logit_in_either_half_stops_the_step(self, monkeypatch, half):
        def edit(out, cache):
            out[half * self.S + 3] = np.nan

        self.patch_step_forward(monkeypatch, edit)
        with pytest.raises(NonFiniteValue, match=r"^epoch 0 batch 0: loss_da=nan, loss_c=[0-9.]+$"):
            train(tiny_config(algorithm="iwdan", epochs=1, batches_per_epoch=2), *tiny_task())

    def test_nan_target_predictions_alone_stop_the_step(self, monkeypatch):
        # under none no loss reads the target rows, so both losses stay finite
        def edit(out, cache):
            cache["p"][self.S + 5] = np.nan

        self.patch_step_forward(monkeypatch, edit)
        with pytest.raises(NonFiniteValue, match=r"^epoch 0 batch 0: the predictions are not finite$"):
            train(tiny_config(algorithm="none", epochs=1, batches_per_epoch=2), *tiny_task())

    @pytest.mark.parametrize("algorithm", ["iwdan", "iwcdan"])
    def test_a_saturated_discriminator_stops_the_step(self, monkeypatch, algorithm):
        # every |logit| just past -log(LOG_EPS) = 27.63, with both signs, from the third step on
        steps = []

        def edit(out, cache):
            steps.append(None)
            if len(steps) >= 3:
                out[: self.S] = 28.0
                out[self.S :] = -28.0
                out[::5] *= -1.0

        self.patch_step_forward(monkeypatch, edit)
        with pytest.raises(InvalidValue) as info:
            train(tiny_config(algorithm=algorithm, epochs=1, batches_per_epoch=5), *tiny_task())
        assert str(info.value) == "epoch 0 batch 2: the discriminator is saturated, min |logit| 28 > 27.63"

    def test_one_logit_inside_the_bound_is_not_saturation(self, monkeypatch):
        def edit(out, cache):
            out[:] = 28.0
            out[7] = 27.6

        self.patch_step_forward(monkeypatch, edit)
        _, trace = train(tiny_config(algorithm="iwdan", epochs=1, batches_per_epoch=3), *tiny_task())
        assert len(trace) == 1


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
    @staticmethod
    def assert_reports_per_epoch(algorithm):
        src, tgt = tiny_task(n=900)
        sink = []
        cfg = tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=8)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink))
        epochs = sorted({ep for ep, _ in sink})
        assert epochs == [0, 1]
        checks = {r.check for _, r in sink}
        assert checks == {"lower_bound", "error_decomposition", "joint_error", "sufficiency"}

    def test_hook_collects_reports_per_epoch(self):
        self.assert_reports_per_epoch("iwdan")

    def test_hook_handles_outer_product_discriminator(self):
        # an outer-product and a kernel run; the hook reads g alone in each
        for algorithm in ("iwcdan", "iwjan"):
            self.assert_reports_per_epoch(algorithm)

    @pytest.mark.parametrize("algorithm", ["iwdan", "iwcdan"])
    def test_hook_features_equal_a_features_pass_bit_for_bit(self, algorithm):
        src, tgt = tiny_task(n=900)
        seen = []

        def hook(epoch, state, record):
            for feats, data in ((record.feats_src, src), (record.feats_tgt, tgt)):
                expected = network.forward(state, data.features)[0]
                assert feats.shape == expected.shape
                assert feats.tobytes() == expected.tobytes()
                assert not feats.flags.writeable
            seen.append(epoch)

        train(tiny_config(algorithm=algorithm, epochs=3, batches_per_epoch=4), src, tgt, epoch_hook=hook)
        assert seen == [0, 1, 2]

    def test_hook_built_on_other_datasets_names_both_counts(self):
        src, tgt = tiny_task(n=600)
        other_src, other_tgt = tiny_task(n=500)
        hook = make_bound_hook(other_src, other_tgt, [])
        with pytest.raises(ShapeMismatch, match="^600 source feature rows but 500 source labels$"):
            train(tiny_config(epochs=1), src, tgt, epoch_hook=hook)

    def test_trace_records_hold_no_features(self):
        src, tgt = tiny_task(n=900)
        hook = make_bound_hook(src, tgt, [])
        state, trace = train(tiny_config(epochs=2), src, tgt, epoch_hook=hook)
        assert len(trace) == 2
        for r in trace.records:
            assert r.feats_src is None and r.feats_tgt is None
            assert not any(isinstance(v, np.ndarray) and v.shape[0] == src.n for v in vars(r).values())
        # so the hook cannot check a kept record
        with pytest.raises(InvalidValue, match="record holds no features"):
            hook(1, state, trace.records[-1])


class PassCounter:
    """Counts forwards by caller: inside ``trainer.evaluate`` or the bound hook, or a training step's.

    Keys: ``evaluate`` and ``hook`` calls, ``<caller>_rows`` full-data rows
    (none of which may run d), ``batch_forward`` calls and their
    ``batch_rows``, ``max_full_block`` (the most rows one full-data forward
    saw) and ``<outer>><inner>`` for a nested call.
    """

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.callers = []
        real_forward = network.forward

        def forward(state, x, discriminate=False):
            if self.callers:
                assert not discriminate
                self.counts[f"{self.callers[-1]}_rows"] += len(x)
                self.counts["max_full_block"] = max(self.counts["max_full_block"], len(x))
            else:
                self.counts["batch_forward"] += 1
                self.counts["batch_rows"] += len(x)
            return real_forward(state, x, discriminate)

        monkeypatch.setattr(network, "forward", forward)
        monkeypatch.setattr(trainer, "evaluate", self.within("evaluate", trainer.evaluate))

    def within(self, name, fn):
        def wrapped(*args):
            if self.callers:
                self.counts[f"{self.callers[-1]}>{name}"] += 1
            self.counts[name] += 1
            self.callers.append(name)
            try:
                return fn(*args)
            finally:
                self.callers.pop()

        return wrapped

    def full_data_counts(self):
        """The counts without the batch forwards, after checking the block size."""
        assert 0 < self.counts["max_full_block"] <= trainer.BLOCK_ROWS
        return {k: v for k, v in self.counts.items() if k not in ("batch_forward", "batch_rows", "max_full_block")}


class TestFullDataPasses:
    """Deterministic counts of full-dataset passes; a perf regression shows here without timing."""

    @pytest.mark.parametrize("algorithm", ["iwdan", "iwcdan"])
    def test_one_evaluation_per_epoch(self, monkeypatch, algorithm):
        src, tgt = tiny_task(n=900)
        assert src.n == tgt.n == 900
        epochs = 2
        passes = PassCounter(monkeypatch)
        cfg = tiny_config(algorithm=algorithm, epochs=epochs, batches_per_epoch=3)
        train(cfg, src, tgt)
        # 2n full-data rows per epoch, in blocks of BLOCK_ROWS
        assert passes.full_data_counts() == {"evaluate": 2 * epochs, "evaluate_rows": epochs * 2 * 900}

        passes.counts.clear()
        train(cfg, src, tgt, epoch_hook=passes.within("hook", make_bound_hook(src, tgt, [])))
        # still 2n with the hook: it reads the features of evaluate's pass,
        # so it makes no pass of its own and calls no evaluate (no
        # "hook_rows" or "hook>evaluate" key)
        assert passes.full_data_counts() == {
            "evaluate": 2 * epochs,
            "evaluate_rows": epochs * 2 * 900,
            "hook": epochs,
        }


    def test_hooked_evaluate_allocates_no_feature_matrix(self, monkeypatch):
        # a fresh (n, feature_dim) z per call would be page-faulted in every epoch;
        # train allocates the features once per run, before evaluate runs, so
        # evaluate's peak grows with n by far less than a feature row per row
        # (its block temporaries are a fixed cost, so the baseline is a smaller n)
        cfg = tiny_config(epochs=3, batches_per_epoch=2, feature_dim=32)
        real_evaluate = trainer.evaluate
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                return real_evaluate(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(trainer, "evaluate", traced)
        peak = {}
        for n in (3000, 6000):
            src, tgt = tiny_task(n=n)
            peaks.clear()
            feats = []
            train(cfg, src, tgt, epoch_hook=lambda epoch, state, record: feats.append(record.feats_src))
            assert len(peaks) == 2 * cfg.epochs
            peak[n] = max(peaks)
            # and every epoch's features live in the same run-long buffer
            assert all(np.shares_memory(f, feats[0]) for f in feats[1:])
        assert peak[6000] - peak[3000] < 3000 * cfg.feature_dim * 8 // 2


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

        passes = PassCounter(monkeypatch)
        monkeypatch.setattr(network, "backward", counting("backward", network.backward))
        monkeypatch.setattr(network, "sgd_step", counting("sgd_step", network.sgd_step))
        # the step calls the alignment losses' kernels; the public losses only check and call them
        monkeypatch.setattr(losses, "_mmd", counting("mmd", losses._mmd))
        monkeypatch.setattr(losses, "median_heuristic_bandwidths", counting("mmd", losses.median_heuristic_bandwidths))
        monkeypatch.setattr(losses, "_da", counting("adv", losses._da))
        epochs = 2
        cfg = tiny_config(algorithm=algorithm, epochs=epochs, batches_per_epoch=3)
        train(cfg, src, tgt)
        steps = epochs * 3
        # one stacked forward of 2s rows, before the update; none stacks the target rows too
        assert passes.counts["batch_forward"] == steps
        assert passes.counts["batch_rows"] == steps * 2 * cfg.batch_size
        assert counts["backward"] == counts["sgd_step"] == steps
        assert counts["mmd"] == (steps if algorithm == "iwjan" else 0)
        assert counts["adv"] == (steps if algorithm in ("dann", "iwdan", "iwcdan") else 0)
        assert passes.full_data_counts() == {"evaluate": 2 * epochs, "evaluate_rows": epochs * (src.n + tgt.n)}

    @pytest.mark.parametrize("algorithm", ["none", "dann", "iwdan", "iwcdan", "iwjan"])
    def test_each_batch_array_is_checked_once_per_step(self, monkeypatch, algorithm):
        # the step's guard sees the stacked predictions and, when d ran, its stacked logits once;
        # no label, row or discriminator check runs inside a step
        src, tgt = tiny_task()
        seen = Counter()

        def recording(kind, fn):
            def wrapped(arr, *args):
                seen[kind, np.shape(arr)] += 1
                return fn(arr, *args)

            return wrapped

        def guard(epoch, batch, loss_da, loss_c, preds, logits):
            seen["preds", preds.shape] += 1
            if logits is not None:
                seen["logits", logits.shape] += 1
            return real_guard(epoch, batch, loss_da, loss_c, preds, logits)

        real_guard = trainer._check_step
        for module in (losses, estimator):
            monkeypatch.setattr(module, "check_labels", recording("labels", module.check_labels))
        monkeypatch.setattr(estimator, "check_rows", recording("rows", estimator.check_rows))
        monkeypatch.setattr(losses, "_check_discriminator", recording("d", losses._check_discriminator))
        monkeypatch.setattr(trainer, "_check_step", guard)
        cfg = tiny_config(algorithm=algorithm, epochs=2, batches_per_epoch=3)
        train(cfg, src, tgt)
        steps, s = 2 * 3, cfg.batch_size
        want = {("preds", (2 * s, src.k)): steps}
        if algorithm in ("dann", "iwdan", "iwcdan"):
            want["logits", (2 * s, 1)] = steps
        assert dict(seen) == want

    def test_kernel_bandwidths_are_the_median_heuristic(self, monkeypatch):
        src, tgt = tiny_task()
        real_loss, real_median = losses._mmd, losses._median_bandwidths
        feats, used = [], []

        def loss(fs, ft, ws, bandwidths=None):
            feats.append((fs.copy(), ft.copy()))
            return real_loss(fs, ft, ws, bandwidths)

        def median(sq):
            used.append(real_median(sq))
            return used[-1]

        monkeypatch.setattr(losses, "_mmd", loss)
        monkeypatch.setattr(losses, "_median_bandwidths", median)
        train(tiny_config(algorithm="iwjan", epochs=1, batches_per_epoch=4), src, tgt)
        monkeypatch.undo()
        assert len(used) == len(feats) == 4
        for (zs, zt), bws in zip(feats, used):
            assert bws == losses.median_heuristic_bandwidths(zs, zt)


class TestConfusionAccumulation:
    """The ratio estimate reads each step's own forward, and each epoch makes its own estimate."""

    @pytest.mark.parametrize("algorithm", ["none", "iwdan"])
    def test_reads_each_steps_pre_update_predictions(self, monkeypatch, algorithm):
        src, tgt = tiny_task()
        real_backward = network.backward
        real_accumulate, real_finalize = ConfusionAccumulator._accumulate, ConfusionAccumulator.finalize
        step_preds, accumulated, finalized = [], [], []

        def backward(state, cache, *args):
            # the step's forward cache, copied before network.sgd_step runs
            step_preds.append(cache["p"].copy())
            return real_backward(state, cache, *args)

        def accumulate(self, source_preds, source_labels, target_preds):
            accumulated.append((np.array(source_preds), np.array(target_preds)))
            return real_accumulate(self, source_preds, source_labels, target_preds)

        def finalize(self):
            finalized.append((self.n_source, self.n_target))
            return real_finalize(self)

        monkeypatch.setattr(network, "backward", backward)
        # the step checks its predictions itself and calls the accumulator's kernel
        monkeypatch.setattr(ConfusionAccumulator, "_accumulate", accumulate)
        monkeypatch.setattr(ConfusionAccumulator, "finalize", finalize)
        cfg = tiny_config(algorithm=algorithm, epochs=4, batches_per_epoch=3)
        train(cfg, src, tgt)
        s = cfg.batch_size
        assert len(accumulated) == len(step_preds) == cfg.epochs * cfg.batches_per_epoch
        for p, (p_src, p_tgt) in zip(step_preds, accumulated):
            assert p.shape == (2 * s, src.k)
            assert p_src.tobytes() == p[:s].tobytes()
            assert p_tgt.tobytes() == p[s:].tobytes()
        rows = cfg.batches_per_epoch * s
        assert finalized == [(rows, rows)] * cfg.epochs


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def assert_identical(a, b):
    """Two records or two bound reports agree field by field, to the bit."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert repr(x) == repr(y), f.name  # a float's repr round-trips its bits


class FakePool:
    """Stands in for ProcessPoolExecutor: records how it was built and maps in this process."""

    def __init__(self, seen, max_workers, mp_context):
        seen.append((max_workers, mp_context.get_start_method(), {v: os.environ.get(v) for v in BLAS_THREAD_VARS}))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def fake_pool(monkeypatch, cpus):
    """Every pool train_many builds is a FakePool, in a process allowed ``cpus`` of 64 CPUs; returns their records."""
    seen = []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a, **kw: FakePool(seen, *a, **kw))
    return seen


class TestTrainMany:
    @staticmethod
    def runs(count=3, n=600):
        """Runs that differ in algorithm, seed and datasets, so a mixed-up order shows."""
        tasks = [tiny_task(seed=0, n=n), tiny_task(seed=1, n=n)]
        algorithms = ["iwdan", "dann", "iwcdan", "none"]
        return [
            (tiny_config(algorithm=algorithms[i % 4], seed=i, epochs=2, batches_per_epoch=3), *tasks[i % 2])
            for i in range(count)
        ]

    @pytest.mark.parametrize("bounds", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_direct_train_calls_in_input_order(self, jobs, bounds):
        runs = self.runs()
        environ = dict(os.environ)
        results = train_many(runs, bounds=bounds, jobs=jobs)
        assert dict(os.environ) == environ
        assert len(results) == len(runs)
        for (cfg, src, tgt), (trace, reports) in zip(runs, results):
            sink = []
            _, expected = train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink) if bounds else None)
            assert len(trace) == len(expected) == cfg.epochs
            for got, want in zip(trace.records, expected.records):
                assert_identical(got, want)
            assert len(reports) == len(sink) == (4 * cfg.epochs if bounds else 0)
            for (ep, got), (ep_want, want) in zip(reports, sink):
                assert ep == ep_want
                assert_identical(got, want)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_run_too_small_to_check_raises_with_environ_restored(self, jobs):
        # class 2 holds 20 of the 100 rows, fewer than the bound suite needs
        small = tiny_task(n=100)
        runs = self.runs(count=2) + [(tiny_config(epochs=1), *small)]
        environ = dict(os.environ)
        with pytest.raises(InvalidValue, match=r"^class \d: \d+ source / \d+ target samples, need 50$"):
            train_many(runs, bounds=True, jobs=jobs)
        assert dict(os.environ) == environ

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [(5000, 3, 2, 2), (5000, 3, 8, 3), (2, 5, 8, 2), (5000, 1, 8, None), (1, 3, 8, None)],
    )
    def test_workers_are_capped_at_runs_and_cpus(self, monkeypatch, jobs, count, cpus, workers):
        seen = fake_pool(monkeypatch, cpus)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")  # one pinned variable set beforehand, the others not
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        runs = self.runs(count=count, n=300)
        environ = dict(os.environ)
        results = train_many(runs, jobs=jobs)
        assert dict(os.environ) == environ
        if workers is None:  # one worker trains in this process
            assert seen == []
        else:
            assert seen == [(workers, "spawn", dict.fromkeys(BLAS_THREAD_VARS, "1"))]
        for (cfg, src, tgt), (trace, reports) in zip(runs, results):
            assert reports == []
            for got, want in zip(trace.records, train(cfg, src, tgt)[1].records):
                assert_identical(got, want)

    def test_without_affinity_the_cap_is_the_cpu_count(self, monkeypatch):
        seen = fake_pool(monkeypatch, cpus=8)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        train_many(self.runs(count=3, n=300), jobs=5000)
        assert [workers for workers, _, _ in seen] == [2]

    def test_sweep_jobs_is_capped_at_its_runs(self, monkeypatch, tmp_path):
        # one task is two runs, so --jobs 5000 builds a pool of two workers
        seen = fake_pool(monkeypatch, cpus=64)
        argv = ["sweep-jsd", "--tasks", "1", "--jobs", "5000", "--n", "300", "--epochs", "1"]
        argv += ["--batches-per-epoch", "2", "--feature-dim", "8", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        assert [workers for workers, _, _ in seen] == [2]
