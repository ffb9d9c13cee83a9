import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import _children, fork_only
from xtf import theory
from xtf.data import subseed
from xtf.numerics import softmax_value
from xtf.theory import (
    DegenerateSelectorError,
    Geometry,
    GeometryError,
    KNBoundScenario,
    MixtureSpec,
    PreconditionError,
    SingularityError,
    alignment_gain_exact,
    alignment_gain_lower_bound,
    coherence,
    damped_fisher,
    FISHER_DAMPING,
    fisher_preconditioner,
    gain_sweep_rows,
    kn_bounds_check,
    kn_fisher,
    kn_scores,
    make_kn_scenario,
    make_one_step_scenario,
    mixture_gradients,
    one_step_compare,
    random_mixture,
    verify_theory,
    weak_bias_gain_bound,
)


def _spec(eps=0.2, alpha=0.1, beta=0.2, seed=0, **kw):
    return random_mixture(seed, eps=eps, alpha=alpha, beta=beta, **kw)


def _both_preconditioners(spec):
    return [Geometry(np.eye(spec.dim)), Geometry(fisher_preconditioner(spec))]


# ---------------------------------------------------------------------------
# damped second moment
# ---------------------------------------------------------------------------


def test_damped_fisher_single_basis_vector():
    phi = np.zeros((1, 5))
    phi[0, 0] = 1.0
    F = damped_fisher(phi, np.ones(1), lam=0.5)
    np.testing.assert_allclose(F, np.diag([1.5, 0.5, 0.5, 0.5, 0.5]), atol=1e-15)


def test_damped_fisher_damping_dominance():
    rng = np.random.default_rng(0)
    phis = rng.normal(size=(6, 4))
    lam = 1e6
    F = damped_fisher(phis, np.full(6, 1 / 6), lam)
    rel_dev = np.linalg.norm(F - lam * np.eye(4)) / lam
    assert rel_dev <= (np.linalg.norm(phis, axis=1) ** 2).max() / lam


def test_damped_fisher_matches_loop_oracle():
    rng = np.random.default_rng(1)
    phis = rng.normal(size=(7, 5))
    weights = rng.uniform(0.1, 1.0, size=7)
    weights /= weights.sum()
    F = damped_fisher(phis, weights, lam=0.01)
    oracle = 0.01 * np.eye(5)
    for w, phi in zip(weights, phis):
        oracle += w * np.outer(phi, phi)
    np.testing.assert_allclose(F, oracle, atol=1e-12)


def test_damped_fisher_rank_deficient_without_damping():
    phi = np.zeros((1, 4))
    phi[0, 1] = 2.0
    with pytest.raises(SingularityError):
        damped_fisher(phi, np.ones(1), lam=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_damped_fisher_rejects_non_finite_population(bad):
    phis = np.eye(3)
    phis[1, 2] = bad
    weights = np.full(3, 1 / 3)
    weights[0] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 in the second moment
        with pytest.raises(ValueError, match="not finite"):
            damped_fisher(phis, np.full(3, 1 / 3), lam=FISHER_DAMPING)
        with pytest.raises(ValueError, match="not finite"):
            damped_fisher(np.eye(3), weights, lam=FISHER_DAMPING)


def test_fisher_preconditioner_spd():
    spec = _spec()
    F = fisher_preconditioner(spec)
    eigs = np.linalg.eigvalsh(F)
    assert np.allclose(F, F.T)
    assert eigs[0] >= 1e-3 - 1e-12


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_alignment_identity_preconditioner_is_dot_product():
    rng = np.random.default_rng(2)
    g_core = rng.normal(size=6)
    g = rng.normal(size=6)
    assert Geometry(np.eye(6)).inner(g_core, g) == pytest.approx(float(g_core @ g), abs=1e-12)


def test_alignment_self_is_nonnegative():
    rng = np.random.default_rng(3)
    spec = _spec()
    for geo in _both_preconditioners(spec):
        g = rng.normal(size=spec.dim)
        assert geo.inner(g, g) > 0.0
        assert geo.inner(np.zeros(spec.dim), np.zeros(spec.dim)) == 0.0


def test_alignment_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        M = A @ A.T + 0.5 * np.eye(8)
        g_core = rng.normal(size=8)
        g = rng.normal(size=8)
        got = Geometry(M).inner(g_core, g)
        want = float(g_core @ np.linalg.inv(M) @ g)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_alignment_rejects_non_spd():
    with pytest.raises(GeometryError):
        Geometry(-np.eye(3))
    with pytest.raises(GeometryError):
        Geometry(np.arange(9.0).reshape(3, 3))


@pytest.mark.parametrize("M", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]], [[1.0, -np.inf], [-np.inf, 1.0]]])
def test_geometry_rejects_non_finite_matrices(M):
    with pytest.raises(GeometryError, match="must be finite"):
        Geometry(np.array(M))


def _random_spd(rng, d):
    A = rng.normal(size=(d, d))
    return A @ A.T + 0.1 * np.eye(d)


def test_stacked_solve_is_bitwise_the_vector_solves():
    rng = np.random.default_rng(5)
    for d in range(3, 11):
        for M in (fisher_preconditioner(random_mixture(d, dim=d)), _random_spd(rng, d)):
            geo = Geometry(M)
            for k in range(1, 26):
                B = rng.normal(size=(k, d))
                want = np.stack([np.linalg.solve(M, b) for b in B])
                assert geo.solve(B).tobytes() == want.tobytes()
                assert geo.solve(B[0]).tobytes() == want[0].tobytes()


def test_identity_solve_is_the_lapack_solve():
    """Bitwise on nonzero entries, subnormals included. A zero keeps b's sign,
    which is the exact answer; LAPACK's substitution turns -0.0 into +0.0
    when it subtracts a -0.0 product from it, so there the two are equal by
    value only."""
    rng = np.random.default_rng(6)
    for d in range(1, 12):
        geo = Geometry(np.eye(d))
        for _ in range(200):
            b = rng.normal(size=d) * rng.choice([1.0, 1e300, 1e-310, 1e-320], size=d)
            b[b == 0.0] = 5e-324
            want = np.linalg.solve(np.eye(d), b)
            assert geo.solve(b).tobytes() == want.tobytes() == b.tobytes()
            assert geo.solve(np.stack([b, -b])).tobytes() == np.stack([want, -want]).tobytes()
            z = b * rng.choice([1.0, 0.0], size=d) * rng.choice([1.0, -1.0], size=d)
            got, want = geo.solve(z), np.linalg.solve(np.eye(d), z)
            assert got.tobytes() == z.tobytes() and np.array_equal(got, want)
            assert (got.view(np.int64) == want.view(np.int64))[z != 0.0].all()
    assert geo.solve(np.array([-1.0, -0.0])).tobytes() == np.array([-1.0, -0.0]).tobytes()
    assert np.linalg.solve(np.eye(2), np.array([-1.0, -0.0])).tobytes() == np.array([-1.0, 0.0]).tobytes()


def test_identity_geometry_makes_no_lapack_call(monkeypatch):
    calls = []
    for name in ("solve", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    rng = np.random.default_rng(7)
    geo = Geometry(np.eye(5))
    geo.solve(rng.normal(size=5))
    geo.solve(rng.normal(size=(7, 5)))
    geo.inner(rng.normal(size=5), rng.normal(size=5))
    geo.norm_sq(rng.normal(size=5))
    assert calls == []
    Geometry(2.0 * np.eye(5)).solve(np.ones(5))  # the wrapper does see LAPACK calls
    assert calls == ["cholesky", "solve"]


class _VectorGeometry:
    """Geometry without the fast paths: every right-hand side, against the
    identity too, gets its own np.linalg.solve."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=np.float64)
        np.linalg.cholesky(self.M)

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            return np.linalg.solve(self.M, b)
        return np.stack([np.linalg.solve(self.M, row) for row in b])

    def inner(self, x, y):
        return float(x @ self.solve(y))

    def norm_sq(self, x):
        return self.inner(x, x)


def _use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)


def _assert_byte_equal_to_vector_by_vector_solves(monkeypatch, seed):
    fast = json.dumps([verify_theory(seed), gain_sweep_rows(seed, 5)])
    monkeypatch.setattr(theory, "Geometry", _VectorGeometry)
    monkeypatch.setattr(theory, "_identity", lambda dim: _VectorGeometry(np.eye(dim)))
    assert json.dumps([verify_theory(seed), gain_sweep_rows(seed, 5)]) == fast


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_reports_are_byte_equal_to_vector_by_vector_solves(monkeypatch, seed):
    _use_cores(monkeypatch, {0})
    _assert_byte_equal_to_vector_by_vector_solves(monkeypatch, seed)


@fork_only
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_reports_are_byte_equal_to_vector_by_vector_solves_with_the_helper(monkeypatch, seed, two_cores):
    _assert_byte_equal_to_vector_by_vector_solves(monkeypatch, seed)
    assert _children() == []


# ---------------------------------------------------------------------------
# mixture gradients
# ---------------------------------------------------------------------------


def test_mixture_perfect_selector():
    spec = _spec(eps=0.3, alpha=0.0, beta=0.0)
    grads = mixture_gradients(spec)
    assert grads.z_fil == pytest.approx(0.7, abs=1e-15)
    np.testing.assert_allclose(grads.g_fil, grads.g_core, atol=1e-12)


def test_mixture_no_noise():
    spec = _spec(eps=0.0, alpha=0.15, beta=0.4)
    grads = mixture_gradients(spec)
    np.testing.assert_allclose(grads.g_train, grads.g_core, atol=1e-15)
    np.testing.assert_allclose(grads.g_fil, grads.g_core, atol=1e-12)


def test_mixture_normalizer_arithmetic():
    # a=0.8, b=0.2, alpha=0.1, beta=0.2 -> Z = 0.8*0.9 + 0.2*0.2 = 0.76
    spec = _spec(eps=0.2, alpha=0.1, beta=0.2)
    assert mixture_gradients(spec).z_fil == pytest.approx(0.76, abs=1e-15)


def test_mixture_degenerate_selector_rejected():
    spec = _spec(eps=0.5, alpha=1.0, beta=0.0)
    with pytest.raises(DegenerateSelectorError):
        mixture_gradients(spec)


def test_strong_gradients_are_computed_once_per_spec(monkeypatch):
    calls = []
    real = theory.mixture_gradients
    monkeypatch.setattr(theory, "mixture_gradients", lambda spec, geo=None: calls.append(geo) or real(spec, geo))
    spec = _spec(seed=3)
    for geo in _both_preconditioners(spec):
        alignment_gain_exact(spec, geo)
        alignment_gain_lower_bound(spec, geo)
        weak_bias_gain_bound(spec, geo)
        one_step_compare(make_one_step_scenario(9, spec), spec, geo, eta=1e-3)
    assert calls.count(None) == 1 and len(calls) == 3  # and one weak-mode call per metric
    moved = replace(spec, eps=0.5)
    assert moved.strong.g_train.tobytes() == real(moved).g_train.tobytes() != spec.strong.g_train.tobytes()
    assert calls.count(None) == 2


def test_weak_bias_norms_are_exact():
    spec = _spec(rho_c=0.25, rho_n=0.4)
    for geo in _both_preconditioners(spec):
        strong = mixture_gradients(spec)
        weak = mixture_gradients(spec, geo)
        a, b = 1 - spec.eps, spec.eps
        core_norm = np.sqrt(geo.norm_sq(strong.g_core))
        # reconstruct the selected-component means from g_fil
        delta = weak.g_fil * weak.z_fil - strong.g_fil * strong.z_fil
        bias_combo = a * (1 - spec.alpha) * spec.rho_c + b * spec.beta * spec.rho_n
        # the two bias draws are independent directions; check the total
        # perturbation stays within the triangle-inequality envelope
        assert np.sqrt(geo.norm_sq(delta)) <= bias_combo * core_norm + 1e-9


# ---------------------------------------------------------------------------
# alignment gain: identity, edge cases, bounds
# ---------------------------------------------------------------------------


def test_gain_exact_identity_many_instances():
    for i in range(50):
        spec = random_mixture(subseed(99, f"t-{i}"))
        for geo in _both_preconditioners(spec):
            r = alignment_gain_exact(spec, geo)
            assert abs(r["gain_formula"] - r["gain_direct"]) <= 1e-9 * (1 + abs(r["gain_direct"]))


def test_gain_zero_when_no_noise():
    spec = _spec(eps=0.0)
    for geo in _both_preconditioners(spec):
        r = alignment_gain_exact(spec, geo)
        assert abs(r["gain_formula"]) <= 1e-12
        assert abs(r["gain_direct"]) <= 1e-12


def test_gain_zero_for_random_selector():
    spec = _spec(alpha=0.3, beta=0.7)
    for geo in _both_preconditioners(spec):
        r = alignment_gain_exact(spec, geo)
        assert abs(r["gain_formula"]) <= 1e-12
        assert abs(r["gain_direct"]) <= 1e-12


def test_lower_bound_orthogonal_components():
    # orthogonal core/noise under the identity: zeta = 0, bound = full gain
    spec = _spec(seed=7)
    spec.core_vectors = np.zeros((1, spec.dim))
    spec.core_vectors[0, 0] = 2.0
    spec.core_weights = np.ones(1)
    spec.noise_vectors = np.zeros((1, spec.dim))
    spec.noise_vectors[0, 1] = 3.0
    spec.noise_weights = np.ones(1)
    r = alignment_gain_lower_bound(spec, Geometry(np.eye(spec.dim)))
    assert r["zeta"] == pytest.approx(0.0, abs=1e-15)
    assert r["bound"] == pytest.approx(r["gain_direct"], rel=1e-12)
    assert r["holds"]


def test_lower_bound_perfectly_coherent_noise():
    spec = _spec(seed=8)
    spec.noise_vectors = spec.core_vectors.copy()
    spec.noise_weights = spec.core_weights.copy()
    r = alignment_gain_lower_bound(spec, Geometry(np.eye(spec.dim)))
    assert r["zeta"] == pytest.approx(1.0, abs=1e-12)
    assert abs(r["bound"]) <= 1e-12
    assert abs(r["gain_direct"]) <= 1e-12


def test_lower_bound_holds_on_sweep():
    count = 0
    i = 0
    while count < 30:
        spec = random_mixture(subseed(123, f"lb-{i}"))
        i += 1
        if coherence(spec, Geometry(np.eye(spec.dim))) >= 1.0:
            continue
        count += 1
        for geo in _both_preconditioners(spec):
            r = alignment_gain_lower_bound(spec, geo)
            assert r["holds"]


def test_weak_bias_reduces_to_strong_at_zero_rho():
    spec = _spec(rho_c=0.0, rho_n=0.0)
    for geo in _both_preconditioners(spec):
        strong = alignment_gain_lower_bound(spec, geo)
        weak = weak_bias_gain_bound(spec, geo)
        assert weak["lower_bound"] == pytest.approx(strong["bound"], rel=1e-12, abs=1e-12)
        assert weak["gain_direct"] == pytest.approx(strong["gain_direct"], rel=1e-12, abs=1e-12)
        assert weak["holds"]


def test_weak_bias_positivity_condition_flips():
    spec = _spec(eps=0.3, alpha=0.1, beta=0.1, rho_c=5.0, rho_n=5.0)
    r = weak_bias_gain_bound(spec, Geometry(np.eye(spec.dim)))
    assert not r["positivity_condition"]
    small = _spec(eps=0.3, alpha=0.1, beta=0.1, rho_c=0.0, rho_n=0.0)
    assert weak_bias_gain_bound(small, Geometry(np.eye(small.dim)))["positivity_condition"] == (
        coherence(small, Geometry(np.eye(small.dim))) < 1.0
    )


def test_weak_bias_bound_holds_on_seeded_sweep():
    rng = np.random.default_rng(11)
    for i in range(30):
        spec = random_mixture(
            subseed(321, f"wb-{i}"),
            rho_c=float(rng.uniform(0, 0.3)),
            rho_n=float(rng.uniform(0, 0.3)),
        )
        for geo in _both_preconditioners(spec):
            assert weak_bias_gain_bound(spec, geo)["holds"]


# ---------------------------------------------------------------------------
# one-step comparison
# ---------------------------------------------------------------------------


def test_one_step_zero_step_size():
    spec = _spec(seed=13)
    scenario = make_one_step_scenario(5, spec)
    r = one_step_compare(scenario, spec, Geometry(np.eye(spec.dim)), eta=0.0)
    assert r["loss_fil"] == r["loss_train"] == r["loss_start"]
    assert r["difference_ok"]


def test_one_step_identical_arms_without_noise():
    spec = _spec(eps=0.0, seed=14)
    scenario = make_one_step_scenario(6, spec)
    r = one_step_compare(scenario, spec, Geometry(np.eye(spec.dim)), eta=1e-3)
    assert r["loss_fil"] == pytest.approx(r["loss_train"], abs=1e-12)


def test_one_step_radius_precondition():
    spec = _spec(seed=15)
    scenario = make_one_step_scenario(7, spec, radius=1e-9)
    with pytest.raises(PreconditionError):
        one_step_compare(scenario, spec, Geometry(np.eye(spec.dim)), eta=1.0)


def test_one_step_filtered_wins_at_half_eta_max():
    count = 0
    i = 0
    while count < 20:
        spec = random_mixture(subseed(77, f"os-{i}"))
        i += 1
        if coherence(spec, Geometry(np.eye(spec.dim))) >= 1.0 or spec.selector_skill <= 0:
            continue
        scenario = make_one_step_scenario(subseed(77, f"scn-{i}"), spec)
        for geo in _both_preconditioners(spec):
            probe = one_step_compare(scenario, spec, geo, eta=0.0)
            if probe["eta_max"] <= 0.0:
                continue
            r = one_step_compare(scenario, spec, geo, eta=probe["eta_max"] / 2.0)
            assert r["descent_ok_fil"] and r["descent_ok_train"]
            assert r["difference_ok"]
            if r["gain"] > 0:
                assert r["loss_fil"] <= r["loss_train"] + 1e-12
        count += 1


# ---------------------------------------------------------------------------
# high-confidence token bounds
# ---------------------------------------------------------------------------


def test_kn_score_norm_vanishes_with_confidence():
    rng = np.random.default_rng(20)
    W = rng.normal(size=(6, 6))
    lz = float(np.max(np.linalg.norm(W, axis=1)))
    for conf in (0.9, 0.99, 0.999):
        spike = np.log(5 * conf / (1 - conf))
        z = np.zeros(6)
        z[2] = spike
        x = np.linalg.solve(W, z)
        scenario = KNBoundScenario(W, x[None, :], np.array([2]), np.ones(1), delta=0.5)
        phis, probs = kn_scores(scenario)
        assert probs[0] >= conf - 1e-9
        assert np.linalg.norm(phis[0]) <= 2 * lz * (1 - probs[0]) + 1e-12


def test_kn_euclidean_bound_on_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = int(rng.integers(3, 9))
        W = rng.normal(size=(d, d))
        x = rng.normal(size=d) * float(rng.uniform(0.1, 3.0))
        t = int(rng.integers(d))
        scenario = KNBoundScenario(W, x[None, :], np.array([t]), np.ones(1), delta=0.1)
        phis, probs = kn_scores(scenario)
        lz = scenario.logit_lipschitz
        assert np.linalg.norm(phis[0]) <= 2 * lz * (1 - probs[0]) + 1e-9


@pytest.mark.parametrize("delta", [0.1, 0.05, 0.01])
def test_kn_contribution_and_impact_bounds(delta):
    for i in range(10):
        scenario = make_kn_scenario(subseed(31, f"{delta}-{i}"), delta=delta)
        r = kn_bounds_check(scenario)
        assert r["score_bound_ok"]
        assert not r["vacuous"]
        assert r["contribution_bound_ok"]
        assert r["alignment_impact_ok"]
        assert r["kn_mass"] > 0.0


def _kn_scores_loop(scenario):
    n, d = scenario.contexts.shape
    phis, probs = np.empty((n, d)), np.empty(n)
    for i in range(n):
        p = softmax_value(scenario.W @ scenario.contexts[i])
        t = scenario.tokens[i]
        e = np.zeros(scenario.W.shape[0])
        e[t] = 1.0
        phis[i] = scenario.W.T @ (e - p)
        probs[i] = p[t]
    return phis, probs


def _kn_fisher_loop(scenario):
    d = scenario.contexts.shape[1]
    F = np.zeros((d, d))
    for i in range(scenario.contexts.shape[0]):
        p = softmax_value(scenario.W @ scenario.contexts[i])
        phis_c = (np.eye(scenario.W.shape[0]) - p[None, :]) @ scenario.W
        F += scenario.weights[i] * (phis_c * p[:, None]).T @ phis_c
    F += FISHER_DAMPING * np.eye(d)
    return (F + F.T) / 2.0


def _make_kn_scenario_loop(seed, dim, n_low, n_high, delta):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(dim, dim))
    while abs(np.linalg.det(W)) < 1e-6:
        W = rng.normal(size=(dim, dim))
    contexts, tokens = [], []
    target_p = 1.0 - delta / 2.0
    spike = np.log((dim - 1) * target_p / (1.0 - target_p))
    for _ in range(n_high):
        t = int(rng.integers(dim))
        z = np.zeros(dim)
        z[t] = spike
        contexts.append(np.linalg.solve(W, z))
        tokens.append(t)
    for _ in range(n_low):
        contexts.append(rng.normal(size=dim) * 0.3)
        tokens.append(int(rng.integers(dim)))
    n = n_high + n_low
    return KNBoundScenario(W, np.array(contexts), np.array(tokens), np.full(n, 1.0 / n), delta)


def _bytes(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def test_kn_stacks_are_bitwise_the_per_context_loops():
    rng = np.random.default_rng(23)
    for i in range(80):
        dim, n_high, n_low = int(rng.integers(2, 12)), int(rng.integers(0, 9)), int(rng.integers(1, 20))
        delta = float(rng.choice([0.1, 0.05, 0.01]))
        made = make_kn_scenario(subseed(41, f"kn-{i}"), dim, n_low, n_high, delta)
        want = _make_kn_scenario_loop(subseed(41, f"kn-{i}"), dim, n_low, n_high, delta)
        assert _bytes(made.W, made.contexts, made.tokens, made.weights) == _bytes(
            want.W, want.contexts, want.tokens, want.weights
        )
        n, n_tokens = n_high + n_low, int(rng.integers(2, 12))
        scale = float(rng.choice([0.1, 1.0, 30.0]))
        rectangular = KNBoundScenario(
            rng.normal(size=(n_tokens, dim)) * scale,
            rng.normal(size=(n, dim)),
            rng.integers(0, n_tokens, n),
            rng.uniform(0.1, 1.0, n),
            delta=0.1,
        )
        for scenario in (made, rectangular):
            assert _bytes(*kn_scores(scenario)) == _bytes(*_kn_scores_loop(scenario))
            assert _bytes(kn_fisher(scenario)) == _bytes(_kn_fisher_loop(scenario))


def test_kn_vacuous_set_reported():
    rng = np.random.default_rng(22)
    W = rng.normal(size=(5, 5))
    xs = rng.normal(size=(8, 5)) * 0.1  # low-confidence everywhere
    scenario = KNBoundScenario(W, xs, rng.integers(0, 5, 8), np.full(8, 1 / 8), delta=1e-6)
    r = kn_bounds_check(scenario)
    assert r["vacuous"]
    assert r["contribution_bound_ok"] and r["alignment_impact_ok"]


# ---------------------------------------------------------------------------
# whole lab
# ---------------------------------------------------------------------------


def test_verify_theory_all_pass():
    report = verify_theory(seed=0)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["all_pass"], f"failing checks: {failing}"


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_reports_are_the_same_on_one_and_two_cores(monkeypatch, seed):
    reports = []
    for cores in ({0}, {0, 1}):
        _use_cores(monkeypatch, cores)
        reports.append(json.dumps(verify_theory(seed)))
        assert _children() == []
    assert reports[0] == reports[1]


def test_one_core_starts_no_process(monkeypatch, no_fork):
    _use_cores(monkeypatch, {0})
    assert verify_theory(4)["all_pass"]


def _failing(name):
    def fail(*args, **kwargs):
        raise SingularityError(f"injected in {name}")

    return fail


@fork_only
@pytest.mark.parametrize(
    "failing, raised",
    [(["kn_bounds_check"], "kn_bounds_check"), (["one_step_compare", "weak_bias_gain_bound"], "weak_bias_gain_bound")],
    ids=["helper", "both"],
)
def test_a_check_error_is_the_same_on_one_and_two_cores(monkeypatch, failing, raised):
    """The helper's error surfaces with its type and message; an error in
    this process's batches, which come first, wins over it."""
    for name in failing:
        monkeypatch.setattr(theory, name, _failing(name))
    for cores in ({0}, {0, 1}):
        _use_cores(monkeypatch, cores)
        with pytest.raises(SingularityError) as info:
            verify_theory(6)
        assert type(info.value) is SingularityError and str(info.value) == f"injected in {raised}"
        assert _children() == []


def test_gain_sweep_rows_well_formed():
    rows = gain_sweep_rows(seed=0, n_per_axis=3)
    assert len(rows) == 27
    for row in rows:
        assert abs(row["gain_formula"] - row["gain_direct"]) <= 1e-9 * (1 + abs(row["gain_direct"]))
