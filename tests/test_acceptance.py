"""Acceptance suite: each criterion runs at its stated tolerance and prints
one PASS/FAIL line. Criterion 10 is the long one (ten full twin-arm
experiments); everything else is seconds.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from conftest import randomize_params
from reference_ops import finite_diff_check
from xtf import numerics as nm
from xtf.data import gen_synth, subseed, tokenize
from xtf.filtering import FilterConfig, apply_filters, filter_kn, filter_ri, multi_otsu
from xtf.model import ModelConfig, forward, forward_tensors, init
from xtf.numerics import GradientTape
from xtf.scoring import TokenScores
from xtf.theory import (
    Geometry,
    alignment_gain_exact,
    alignment_gain_lower_bound,
    coherence,
    fisher_preconditioner,
    kn_bounds_check,
    kn_scores,
    make_kn_scenario,
    make_one_step_scenario,
    one_step_compare,
    random_mixture,
    weak_bias_gain_bound,
    KNBoundScenario,
)
from xtf.training import TrainConfig, masked_loss, run_experiment


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _preconditioners(spec):
    return [
        Geometry(np.eye(spec.dim)),
        Geometry(fisher_preconditioner(spec)),
    ]


def test_criterion_01_alignment_gain_exact_identity():
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        spec = random_mixture(subseed(0, f"acc1-{i}"), dim=8)
        for geo in _preconditioners(spec):
            r = alignment_gain_exact(spec, geo)
            rel = abs(r["gain_formula"] - r["gain_direct"]) / (1.0 + abs(r["gain_direct"]))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1: exact alignment-gain identity (200 mixtures, both M)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_edge_cases_zero_gain():
    worst = 0.0
    for i in range(50):
        spec = random_mixture(subseed(0, f"acc2a-{i}"), dim=8, eps=0.0)
        for geo in _preconditioners(spec):
            r = alignment_gain_exact(spec, geo)
            worst = max(worst, abs(r["gain_formula"]), abs(r["gain_direct"]))
    for i in range(50):
        rng = np.random.default_rng(subseed(0, f"acc2b-{i}"))
        alpha = float(rng.uniform(0.0, 1.0))
        spec = random_mixture(subseed(0, f"acc2b-{i}"), dim=8, alpha=alpha, beta=1.0 - alpha)
        for geo in _preconditioners(spec):
            r = alignment_gain_exact(spec, geo)
            worst = max(worst, abs(r["gain_formula"]), abs(r["gain_direct"]))
    _verdict(
        "criterion 2: zero gain at eps=0 and alpha+beta=1 (50 each)",
        worst <= 1e-12,
        f"max |gain| {worst:.2e}",
    )


def test_criterion_03_lower_bounds_hold():
    worst_strong = 0.0
    count = 0
    i = 0
    while count < 100:
        spec = random_mixture(subseed(0, f"acc3a-{i}"), dim=8)
        i += 1
        if coherence(spec, Geometry(np.eye(8))) >= 1.0:
            continue
        count += 1
        for geo in _preconditioners(spec):
            r = alignment_gain_lower_bound(spec, geo)
            worst_strong = max(worst_strong, r["bound"] - r["gain_direct"])
    worst_weak = 0.0
    for i in range(100):
        rng = np.random.default_rng(subseed(0, f"acc3b-{i}"))
        spec = random_mixture(
            subseed(0, f"acc3b-{i}"),
            dim=8,
            rho_c=float(rng.uniform(0.0, 0.3)),
            rho_n=float(rng.uniform(0.0, 0.3)),
        )
        for geo in _preconditioners(spec):
            r = weak_bias_gain_bound(spec, geo)
            worst_weak = max(worst_weak, r["lower_bound"] - r["gain_direct"])
    _verdict(
        "criterion 3: gain lower bound (100) and bias-robust bound (100)",
        worst_strong <= 1e-12 and worst_weak <= 1e-9,
        f"strong slack {worst_strong:.2e}, weak slack {worst_weak:.2e}",
    )


def test_criterion_04_one_step_comparison():
    checked = 0
    ordering_ok = True
    bound_ok = True
    i = 0
    while checked < 50:
        spec = random_mixture(subseed(0, f"acc4-{i}"), dim=8)
        i += 1
        if coherence(spec, Geometry(np.eye(8))) >= 1.0 or spec.selector_skill <= 0.0:
            continue
        scenario = make_one_step_scenario(subseed(0, f"acc4s-{i}"), spec)
        for geo in _preconditioners(spec):
            probe = one_step_compare(scenario, spec, geo, eta=0.0)
            if probe["eta_max"] <= 0.0:
                continue
            r = one_step_compare(scenario, spec, geo, eta=probe["eta_max"] / 2.0)
            bound_ok &= r["difference_ok"] and r["descent_ok_fil"] and r["descent_ok_train"]
            if r["gain"] > 0:
                ordering_ok &= r["loss_fil"] <= r["loss_train"] + 1e-12
        checked += 1
    _verdict(
        "criterion 4: one-step inequality and filtered-arm ordering (50 quadratics)",
        bound_ok and ordering_ok,
        f"bound_ok={bound_ok} ordering_ok={ordering_ok}",
    )


def test_criterion_05_kn_bounds():
    rng = np.random.default_rng(subseed(0, "acc5"))
    worst_euclid = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 10))
        W = rng.normal(size=(d, d))
        x = rng.normal(size=d) * float(rng.uniform(0.1, 3.0))
        t = int(rng.integers(d))
        scenario = KNBoundScenario(W, x[None, :], np.array([t]), np.ones(1), delta=0.1)
        phis, probs = kn_scores(scenario)
        lz = scenario.logit_lipschitz
        worst_euclid = max(worst_euclid, float(np.linalg.norm(phis[0])) - 2 * lz * (1 - probs[0]))
    scenario_ok = True
    n_scen = 0
    for delta in (0.1, 0.05, 0.01):
        for i in range(34 if delta != 0.01 else 32):
            r = kn_bounds_check(make_kn_scenario(subseed(0, f"acc5-{delta}-{i}"), delta=delta))
            scenario_ok &= r["score_bound_ok"] and r["contribution_bound_ok"] and r["alignment_impact_ok"]
            n_scen += 1
    _verdict(
        "criterion 5: score-norm bound (1000 draws) + Fisher contribution bounds (100 scenarios)",
        worst_euclid <= 1e-9 and scenario_ok and n_scen == 100,
        f"euclid violation {worst_euclid:.2e}, scenarios {n_scen}",
    )


def _otsu_oracle(values, k, bins):
    arr = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(arr, bins=bins, range=(arr.min(), arr.max()))
    centers = (edges[:-1] + edges[1:]) / 2.0
    total = counts.sum()
    mu_total = float((counts * centers).sum() / total)

    def sigma_of(cuts):
        bounds = [0] + [c + 1 for c in cuts] + [bins]
        sigma = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n_class = counts[lo:hi].sum()
            if n_class:
                w = n_class / total
                mu = float((counts[lo:hi] * centers[lo:hi]).sum() / n_class)
                sigma += w * (mu - mu_total) ** 2
        return sigma

    sigmas = {cuts: sigma_of(cuts) for cuts in combinations(range(bins - 1), k - 1)}
    best = max(sigmas.values())
    tol = 1e-12 * max(1.0, best)
    for cuts, sigma in sigmas.items():
        if sigma >= best - tol:
            return tuple(float(edges[c + 1]) for c in cuts), sigma
    raise AssertionError


def test_criterion_06_multi_otsu_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(subseed(0, "acc6"))
    ok = True
    worst = 0.0
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        bins = int(rng.integers(8, 65))
        mode = trial % 3
        if mode == 0:
            values = rng.normal(size=int(rng.integers(30, 150)))
        elif mode == 1:
            values = np.concatenate(
                [rng.normal(-2, 0.3, size=50), rng.normal(0.5, 0.3, size=40), rng.normal(3, 0.3, size=30)]
            )
        else:
            values = rng.uniform(0, 1, size=int(rng.integers(30, 150)))
        got = multi_otsu(values, k=k, bins=bins)
        want_thr, want_sigma = _otsu_oracle(values, k, bins)
        ok &= got.thresholds == want_thr
        worst = max(worst, abs(got.between_var - want_sigma))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 6: multi-Otsu equals exhaustive oracle (100 sets, k in {2,3})",
        ok and worst <= 1e-12 and elapsed < 5.0,
        f"sigma dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_iqr_filter_invariances():
    rng = np.random.default_rng(subseed(0, "acc7"))
    ok = True
    for _ in range(100):
        scores = rng.normal(size=int(rng.integers(2, 40)))
        ok &= filter_ri(scores) == filter_ri(5.0 * scores + 2.0)
    ok &= filter_ri([0.7]) == set()
    ok &= filter_ri([0.3, 0.3, 0.3, 0.3, 0.3]) == set()
    _verdict("criterion 7: IQR fence affine invariance + degenerate cases", ok)


def test_criterion_08_masked_loss_gradients():
    cfg = ModelConfig(vocab_size=10, d_model=6, n_layers=2, n_heads=2, d_ff=8, max_seq=16, seed=3)
    rng = np.random.default_rng(subseed(0, "acc8"))
    worst = 0.0
    invariance_ok = True
    zero_ok = True
    for pair in range(20):
        params = randomize_params(init(cfg), seed=1000 + pair)
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(2, 6))
        from xtf.data import TokenizedExample

        ex = TokenizedExample(
            f"p{pair}",
            rng.integers(0, 10, n_in).tolist(),
            rng.integers(0, 10, n_out).tolist(),
        )
        keep = rng.random(n_out) < 0.6
        if not keep.any():
            keep[ int(rng.integers(n_out))] = True
        rows = np.array([ex.l_input + k - 1 for k in range(n_out) if keep[k]])
        cols = np.array([ex.output_ids[k] for k in range(n_out) if keep[k]])

        def loss_fn():
            logits, _ = forward_tensors(params, ex.tokens)
            return nm.sequence_nll(logits, rows, cols)

        worst = max(worst, finite_diff_check(loss_fn, params.values(), 1e-5))

        # criterion also pins the all-masked and forward-invariance behavior
        from xtf.filtering import NoiseMask

        full_mask = NoiseMask(ex.id, [True] * n_out, [("KN",)] * n_out)
        loss, grads = masked_loss(params, ex, full_mask)
        zero_ok &= loss == 0.0 and all(np.all(g == 0) for g in grads.values())
        before = forward(params, ex.tokens).logits.tobytes()
        masked_loss(params, ex, NoiseMask(ex.id, keep.tolist(), [("KN",) if k else () for k in keep]))
        invariance_ok &= forward(params, ex.tokens).logits.tobytes() == before
    _verdict(
        "criterion 8: masked-loss gradients vs finite differences (20 pairs)",
        worst <= 1e-4 and zero_ok and invariance_ok,
        f"max rel err {worst:.2e}",
    )


def test_criterion_09_kn_filter_boundary():
    rng = np.random.default_rng(subseed(0, "acc9"))
    ok = True
    for _ in range(200):
        pcp = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40)))
        s_kn = 1.0 - pcp
        flagged = filter_kn(s_kn, cutoff=0.05)
        expected = {k for k in range(pcp.size) if pcp[k] > 0.95}
        ok &= flagged == expected
    ok &= filter_kn([0.04]) == {0}
    ok &= filter_kn([0.05]) == set()
    _verdict("criterion 9: novelty cutoff flags exactly pcp > 0.95", ok)


@pytest.mark.slow
def test_criterion_10_directional_experiment():
    start = time.perf_counter()
    wins = 0
    fractions = []
    quality_rows = []
    for seed in range(10):
        records = gen_synth("addition", 620, 0.25, 1000 + seed)
        examples = [tokenize(r) for r in records]
        report = run_experiment(
            examples,
            FilterConfig(enabled=("RI", "KN")),
            TrainConfig(learning_rate=3e-3, epochs=22, batch_size=16, optimizer="adam", seed=seed),
            model_config=ModelConfig(seed=seed + 50),
            base_epochs=14,
            split_counts=(500, 60, 60),
        )
        win = report["xtf_acc"] >= report["normal_acc"]
        wins += win
        fractions.append(report["filtered_fraction"])
        q = report["filter_quality"]["overall"]
        quality_rows.append((seed, report["normal_acc"], report["xtf_acc"], q["precision"], q["recall"]))
        print(
            f"  seed {seed}: normal={report['normal_acc']:.3f} xtf={report['xtf_acc']:.3f} "
            f"frac={report['filtered_fraction']:.3f} P={q['precision']:.2f} R={q['recall']:.2f} win={win}"
        )
    elapsed = time.perf_counter() - start
    mean_frac = float(np.mean(fractions))
    mean_p = float(np.mean([r[3] for r in quality_rows]))
    mean_r = float(np.mean([r[4] for r in quality_rows]))
    print(f"  filter quality across seeds (informational): precision={mean_p:.2f} recall={mean_r:.2f}")
    _verdict(
        "criterion 10: masked arm >= unmasked on >=7/10 seeds, filtered fraction in band",
        wins >= 7 and 0.02 <= mean_frac <= 0.60 and elapsed < 600.0,
        f"wins {wins}/10, mean fraction {mean_frac:.3f}, {elapsed:.0f}s",
    )


def test_criterion_11_complementarity_and_ablation():
    records = gen_synth("addition", 200, 0.25, 77)
    examples = [tokenize(r) for r in records]
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=16, optimizer="adam", seed=7)
    from xtf.training import prepare_base
    from xtf.scoring import score_dataset
    from xtf.filtering import ATTRIBUTES, complementarity_report

    base = prepare_base(ModelConfig(seed=7), cfg, 10, 7, task_size=120, background_size=50)
    scores = score_dataset(base, examples).scores
    full_masks, stats = apply_filters(scores, FilterConfig())
    report = complementarity_report(full_masks)
    values_ok = all(
        0.0 <= v <= 1.0 for row in report["overlap"].values() for v in row.values()
    ) and all(0.0 <= v <= 1.0 for v in report["marginal"].values())

    ablation_ok = True
    for dropped in ATTRIBUTES:
        kept = tuple(a for a in ATTRIBUTES if a != dropped)
        partial, _ = apply_filters(scores, FilterConfig(enabled=kept))
        for fm, pm in zip(full_masks, partial):
            for k in range(len(fm.noise)):
                expected = tuple(a for a in fm.sources[k] if a != dropped)
                ablation_ok &= pm.sources[k] == expected and pm.noise[k] == bool(expected)
    _verdict(
        "criterion 11: complementarity matrix in [0,1] + ablation consistency",
        values_ok and ablation_ok,
        f"marginals {report['marginal']}",
    )
