"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). Training-based criteria share session fixtures so the five
seed runs and the divergence sweep execute once, each fixture's runs in
one ``train_many`` call on two workers that turn warnings into errors,
as this process does.
"""

import time
import warnings

import numpy as np
import pytest

from gls_adapt import losses, network
from gls_adapt.datagen import Dataset, jsd_task_suite, make_shift_task
from gls_adapt.distributions import Categorical
from gls_adapt.estimator import WeightVector, solve_qp
from gls_adapt.network import backward, forward, init_model_state
from gls_adapt.trainer import TrainConfig, train_many

from _oracles import (
    check_discriminator_optimum,
    finite_difference_gradient,
    flatten_net_params,
    logit,
    qp_grid_oracle,
    qp_objective,
    random_categorical,
    rbf_kernel,
    set_net_params,
)


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def random_confusion(rng, k, diag_boost=0.6):
    cond = rng.dirichlet(np.ones(k), size=k).T
    cond = diag_boost * np.eye(k) + (1.0 - diag_boost) * cond
    p_s = random_categorical(rng, k)
    return cond * p_s[None, :], p_s


# ---------------------------------------------------------------------------
# shared training runs
# ---------------------------------------------------------------------------

SHIFT_TASK = dict(
    k=3,
    n_source=3000,
    n_target=3000,
    sigma=0.35,
    p_source=[0.6, 0.2, 0.2],
    p_target=[0.2, 0.2, 0.6],
    seed=0,
    exact_counts=True,  # realizes the stated class ratios exactly
)
RUN_SEEDS = (0, 1, 2, 3, 4)


def shift_config(algorithm, seed, **kwargs):
    return TrainConfig(
        algorithm=algorithm,
        epochs=30,
        seed=seed,
        reversal_coeff=20.0,
        batch_size=128,
        **kwargs,
    )


def train_pooled(runs, bounds=False):
    """``train_many`` on two workers; PYTHONWARNINGS carries this process's "error" filter into them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONWARNINGS", "error")
        return train_many(runs, bounds=bounds, jobs=2)


class WarningDataset(Dataset):
    """A dataset whose label distribution warns when a run reads it."""

    def label_distribution(self):
        warnings.warn("read the label distribution", RuntimeWarning)
        return super().label_distribution()


def test_a_warning_in_a_pooled_run_fails():
    src, tgt = make_shift_task(k=3, n_source=300, n_target=300, seed=0)
    run = (TrainConfig(algorithm="dann", epochs=1, batches_per_epoch=1), WarningDataset(src.features, src.labels, src.k), tgt)
    with pytest.raises(RuntimeWarning, match="read the label distribution"):
        train_pooled([run, run], bounds=True)


@pytest.fixture(scope="session")
def shift_runs():
    """Criterion-4 runs: dann / iwdan / iwdan_o over 5 seeds, bounds logged."""
    src, tgt = make_shift_task(**SHIFT_TASK)
    keys = [(alg, seed) for alg in ("dann", "iwdan", "iwdan_o") for seed in RUN_SEEDS]
    start = time.perf_counter()
    results = train_pooled([(shift_config(*key), src, tgt) for key in keys], bounds=True)
    return {
        "elapsed": time.perf_counter() - start,
        "runs": {key: trace for key, (trace, _) in zip(keys, results)},
        "bounds": [b for _, reports in results for b in reports],
    }


@pytest.fixture(scope="session")
def ablation_runs():
    """Criterion-9 runs: oracle weights with exactly one loss reweighted."""
    src, tgt = make_shift_task(**SHIFT_TASK)
    ablations = {"da_only": dict(weight_c_loss=False), "c_only": dict(weight_da_loss=False)}
    runs = [
        (shift_config("iwdan_o", seed, **flags), src, tgt)
        for flags in ablations.values()
        for seed in RUN_SEEDS
    ]
    traces = [trace for trace, _ in train_pooled(runs)]
    n = len(RUN_SEEDS)
    return {name: traces[i * n:(i + 1) * n] for i, name in enumerate(ablations)}


@pytest.fixture(scope="session")
def sweep_runs():
    """Criterion-5 runs: 24 generated tasks, dann vs iwdan, bounds logged."""
    base_src, base_tgt = make_shift_task(
        k=3, n_source=2400, n_target=2400, sigma=0.35, seed=100
    )
    tasks = jsd_task_suite(base_src, base_tgt, count=24, seed=7)
    start = time.perf_counter()
    runs = [
        (TrainConfig(algorithm=alg, epochs=20, seed=5, reversal_coeff=20.0), source, target)
        for source, target in tasks
        for alg in ("dann", "iwdan")
    ]
    results = train_pooled(runs, bounds=True)
    elapsed = time.perf_counter() - start
    traces = [trace for trace, _ in results]
    # each task's divergence is the one its dann run's trace records
    rows = [
        (da.records[0].jsd_label, iw.best_target_accuracy() - da.best_target_accuracy())
        for da, iw in zip(traces[::2], traces[1::2])
    ]
    bounds = [b for _, reports in results for b in reports]
    return {"rows": np.array(rows), "bounds": bounds, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_w = 0.0
    worst_obj = 0.0
    for trial in range(500):
        k = 2 + trial % 2
        c, p_s = random_confusion(rng, k)
        mu = random_categorical(rng, k)
        w = solve_qp(c, Categorical(mu), Categorical(p_s)).w
        w_oracle, obj_oracle = qp_grid_oracle(c, mu, p_s)
        worst_w = max(worst_w, float(np.max(np.abs(w - w_oracle))))
        worst_obj = max(worst_obj, abs(qp_objective(c, w, mu) - obj_oracle))
    elapsed = time.perf_counter() - start
    ok = worst_w < 1e-4 and worst_obj < 1e-8 and elapsed < 30
    report(
        1,
        ok,
        f"500 problems, max |w - oracle| = {worst_w:.2e}, "
        f"max obj gap = {worst_obj:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ratio_recovery():
    rng = np.random.default_rng(43)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        c, p_s = random_confusion(rng, k)
        p_t = random_categorical(rng, k)
        w_star = p_t / p_s
        mu = Categorical.normalize(c @ w_star)
        w = solve_qp(c, mu, Categorical(p_s)).w
        worst = max(worst, float(np.max(np.abs(w - w_star))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10
    report(2, ok, f"100 instances k<=10, max |w - w*| = {worst:.2e}, {elapsed:.1f}s")


def _relative_gradient_error(state, net_name, loss_fn, analytic):
    net = getattr(state, net_name)
    flat0 = flatten_net_params(net)

    def value(flat):
        saved = flatten_net_params(net)
        set_net_params(net, flat)
        state.version += 1
        try:
            return loss_fn()
        finally:
            set_net_params(net, saved)
            state.version += 1

    fd = finite_difference_gradient(value, flat0)
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10))


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    worst = 0.0
    for point in range(10):
        state = init_model_state(
            input_dim=3, k=3, feature_dim=4, g_hidden=(5,), d_hidden=(5,),
            conditional=True, rng=np.random.default_rng(1000 + point),
        )
        xs = rng.normal(size=(5, 3))
        xt = rng.normal(size=(5, 3))
        ys = rng.integers(0, 3, size=5)
        p_s = Categorical(np.array([0.5, 0.3, 0.2]))
        w = WeightVector(rng.uniform(0.3, 2.5, size=3))
        bw = [0.8, 1.7]

        def ce_value():
            return losses.weighted_classification_loss(forward(state, xs)[1]["p"], ys, p_s)

        _, cache = forward(state, xs)
        _, gpred = losses.weighted_classification_loss_grads(cache["p"], ys, p_s)
        g = backward(state, cache, None, gpred)
        worst = max(worst, _relative_gradient_error(state, "g", ce_value, g.g))
        worst = max(worst, _relative_gradient_error(state, "h", ce_value, g.h))

        def da_value():
            ds, _ = forward(state, xs, discriminate=True)
            dt, _ = forward(state, xt, discriminate=True)
            return losses.weighted_da_loss(ds.ravel(), ys, dt.ravel(), w)

        ds, cs = forward(state, xs, discriminate=True)
        dt, ct = forward(state, xt, discriminate=True)
        _, gs, gt = losses.weighted_da_loss_grads(ds.ravel(), ys, dt.ravel(), w)
        bs = backward(state, cs, gs[:, None])
        bt = backward(state, ct, gt[:, None])
        worst = max(
            worst,
            _relative_gradient_error(state, "g", da_value, bs.g + bt.g),
            _relative_gradient_error(state, "h", da_value, bs.h + bt.h),
            _relative_gradient_error(state, "d", da_value, bs.d + bt.d),
        )

        def mmd_value():
            zs, _ = forward(state, xs)
            zt, _ = forward(state, xt)
            return losses.weighted_mmd_loss(zs, ys, zt, w, bw)

        zs, czs = forward(state, xs)
        zt, czt = forward(state, xt)
        _, g_zs, g_zt = losses.weighted_mmd_loss_grads(zs, ys, zt, w, bw)
        bzs = backward(state, czs, g_zs)
        bzt = backward(state, czt, g_zt)
        worst = max(
            worst,
            _relative_gradient_error(state, "g", mmd_value, bzs.g + bzt.g),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30
    report(3, ok, f"10 points x 3 losses, worst rel error = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_end_to_end_weight_estimation(shift_runs):
    runs = shift_runs["runs"]
    w_star = np.array([1.0 / 3.0, 1.0, 3.0])
    iw_dists = np.array(
        [np.linalg.norm(runs[("iwdan", s)].records[-1].w - w_star) for s in RUN_SEEDS]
    )
    da_dists = np.array(
        [np.linalg.norm(runs[("dann", s)].records[-1].w - w_star) for s in RUN_SEEDS]
    )
    acc_oracle = np.mean([runs[("iwdan_o", s)].best_target_accuracy() for s in RUN_SEEDS])
    acc_dann = np.mean([runs[("dann", s)].best_target_accuracy() for s in RUN_SEEDS])
    # the exact-count task makes the trace's logged distance the same quantity
    trace_dist = runs[("iwdan", 0)].records[-1].w_dist
    ok = (
        (iw_dists < 0.15).all()
        and (iw_dists < da_dists).all()
        and acc_oracle > acc_dann
        and shift_runs["elapsed"] < 180
        and abs(trace_dist - iw_dists[0]) < 1e-12
    )
    report(
        4,
        ok,
        f"iwdan |w-w*| = {np.round(iw_dists, 3).tolist()} (cap 0.15), "
        f"dann = {np.round(da_dists, 3).tolist()}, oracle acc {acc_oracle:.4f} "
        f"> dann acc {acc_dann:.4f}, {shift_runs['elapsed']:.0f}s",
    )


def test_criterion_5_divergence_gain_trend(sweep_runs):
    rows = sweep_runs["rows"]
    jsds = rows[:, 0]
    gains = rows[:, 1]
    corr = float(np.corrcoef(jsds, gains)[0, 1])
    order = np.argsort(jsds)
    quartile = gains[order[-(len(rows) // 4):]]
    ok = (
        len(rows) >= 20
        and jsds.min() < 0.01
        and jsds.max() > 0.05
        and corr > 0
        and quartile.mean() > 0
        and sweep_runs["elapsed"] < 900
    )
    report(
        5,
        ok,
        f"{len(rows)} tasks, jsd in [{jsds.min():.4f}, {jsds.max():.4f}], "
        f"pearson = {corr:.3f}, top-quartile mean gain = {quartile.mean():.4f}, "
        f"{sweep_runs['elapsed']:.0f}s",
    )


def test_criterion_6_bound_suite(shift_runs, sweep_runs):
    failures = []
    total = 0
    for epoch, rep in shift_runs["bounds"] + sweep_runs["bounds"]:
        total += 1
        if not rep.holds:
            failures.append((rep.check, epoch, rep.lhs, rep.rhs))
    ok = total > 0 and not failures
    report(6, ok, f"{total} epoch checks, {len(failures)} violations {failures[:3]}")


def test_criterion_7_discriminator_optimum():
    """d* = p_w / (p_w + q) attains log 4 - 2 JSD in ``losses.weighted_da_loss_grads`` and no perturbation beats it.

    q is realized by 100 target rows, so its masses are multiples of 1/100.
    """
    rng = np.random.default_rng(46)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 40))
        p = Categorical(random_categorical(rng, k, floor=0.0))
        q_counts = rng.multinomial(100, random_categorical(rng, k, floor=0.0))
        rep = check_discriminator_optimum(p, q_counts, perturbations=100, seed=int(rng.integers(1e9)))
        worst = max(worst, rep.lhs)
        if not rep.holds:
            break
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5
    report(7, ok, f"100 pairs, worst defect/improvement = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_base_version_collapse():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(50):
        s = int(rng.integers(2, 17))
        k = int(rng.integers(2, 5))
        ones = WeightVector(np.ones(k))
        ds = rng.uniform(0.02, 0.98, size=s)
        dt = rng.uniform(0.02, 0.98, size=s)
        ys = rng.integers(0, k, size=s)
        base_dann = float(-(np.sum(np.log(ds)) + np.sum(np.log(1.0 - dt))) / s)
        worst = max(worst, abs(losses.weighted_da_loss(logit(ds), ys, logit(dt), ones) - base_dann))

        feats = rng.normal(size=(s, 3))
        preds = rng.dirichlet(np.ones(k), size=s)
        u = network.outer_map(preds, feats)
        a_of_u = u.sum(axis=1)  # stand-in discriminator's logit
        d_of_u = 1.0 / (1.0 + np.exp(-a_of_u))
        base_cdan = float(-(np.sum(np.log(d_of_u)) + np.sum(np.log(1.0 - d_of_u))) / s)
        worst = max(
            worst, abs(losses.weighted_da_loss(a_of_u, ys, a_of_u, ones) - base_cdan)
        )

        ft = rng.normal(size=(s, 3))
        bw = [0.9, 2.1]
        # the unweighted linear-time estimate over the row pairs (2i, 2i + 1)
        a, b = slice(0, s - 1, 2), slice(1, s, 2)
        pair = [np.diag(rbf_kernel(x[a], y[b], bw)) for x, y in ((feats, feats), (ft, ft), (feats, ft), (ft, feats))]
        base_jan = float(-(pair[0] + pair[1] - pair[2] - pair[3]).sum() / (s // 2))
        worst = max(
            worst, abs(losses.weighted_mmd_loss(feats, ys, ft, ones, bw) - base_jan)
        )

        p_uniform = Categorical(np.full(k, 1.0 / k))
        base_ce = float(-np.mean(np.log(preds[np.arange(s), ys])))
        plain = losses.cross_entropy_loss(preds, ys)
        balanced = losses.weighted_classification_loss(preds, ys, p_uniform, ones)
        worst = max(worst, abs(plain - base_ce), abs(balanced - base_ce))
    ok = worst < 1e-12
    report(8, ok, f"max |weighted(w=1) - base| = {worst:.2e}")


def test_criterion_9_ablation_direction(shift_runs, ablation_runs):
    acc_dann = np.mean(
        [shift_runs["runs"][("dann", s)].best_target_accuracy() for s in RUN_SEEDS]
    )
    gain_da = np.mean([t.best_target_accuracy() for t in ablation_runs["da_only"]]) - acc_dann
    gain_c = np.mean([t.best_target_accuracy() for t in ablation_runs["c_only"]]) - acc_dann
    ok = gain_da > gain_c
    report(
        9,
        ok,
        f"oracle-weight ablation: adversarial-only gain {gain_da:.4f} "
        f"> classification-only gain {gain_c:.4f}",
    )
