"""Numerical lab for the gradient-alignment story behind token filtering.

Works over explicit finite populations of score vectors: a core component
and a noise component mixed with weight eps, and a selector that drops core
mass at rate alpha and keeps noise mass at rate beta. Every identity and
bound is evaluated two ways: closed form versus direct computation from the
mixture gradients, under an SPD preconditioner (identity or a damped
second-moment "Fisher" matrix) passed as a Geometry. A Geometry solves a
(k, d) stack in one LAPACK call and the identity with none; the KN checks
stack every context's softmax and products. Each stack's rows are bitwise
the per-vector calls. With a second core, verify_theory runs its one-step
and KN batches in a forked helper; with one, no process starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import count, islice

import numpy as np

from .data import subseed
from .numerics import Fork, available_cores, softmax_value


class GeometryError(ValueError):
    """Preconditioner is not symmetric positive definite."""


class SingularityError(ValueError):
    """Undamped second-moment matrix is rank deficient."""


class DegenerateSelectorError(ValueError):
    """Selector keeps no mass (Z_fil = 0) or the core gradient vanishes."""


class PreconditionError(ValueError):
    """A stated precondition (e.g. the step-radius bound) is violated."""


class Geometry:
    """An SPD preconditioner: inner products and solves in the M^-1 metric."""

    def __init__(self, M: np.ndarray):
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise GeometryError(f"preconditioner must be square, got {M.shape}")
        self.M = M
        self.identity = np.array_equal(M, np.eye(len(M)))  # exact, so it needs no SPD check
        if not self.identity:
            if not np.isfinite(M).all():
                raise GeometryError("preconditioner must be finite")
            if not (np.array_equal(M, M.T) or np.allclose(M, M.T, atol=1e-10)):
                raise GeometryError("preconditioner must be symmetric")
            try:
                np.linalg.cholesky(M)  # the SPD check
            except np.linalg.LinAlgError as exc:
                raise GeometryError(f"preconditioner is not positive definite: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.array(b, dtype=np.float64)
        if self.identity:  # bitwise np.linalg.solve(I, b) but for the sign of a zero
            return b
        # solve(M, b.T) is not bitwise the vector solves; an inverse raised violations to ~1e-13
        return np.linalg.solve(self.M, b[..., None])[..., 0]

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.solve(y))

    def norm_sq(self, x: np.ndarray) -> float:
        return self.inner(x, x)


FISHER_DAMPING = 1e-3


def damped_fisher(phis: np.ndarray, weights: np.ndarray, lam: float) -> np.ndarray:
    """Weighted second moment of the score population plus lam * I,
    symmetrized by averaging with its transpose."""
    phis = np.asarray(phis, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if phis.ndim != 2 or phis.shape[0] == 0:
        raise ValueError("need a non-empty (n, d) score population")
    F = (phis * weights[:, None]).T @ phis + lam * np.eye(phis.shape[1])
    F = (F + F.T) / 2.0
    if not np.isfinite(F).all():
        raise ValueError("damped second moment is not finite: the scores or weights hold NaN or inf")
    eigs = np.linalg.eigvalsh(F)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise SingularityError(
            f"damped second moment is numerically singular (min eigenvalue {eigs[0]:.3e}); "
            "increase the damping"
        )
    return F


@dataclass
class MixtureSpec:
    """Core/noise score populations plus selector and bias parameters."""

    dim: int
    eps: float
    alpha: float
    beta: float
    core_vectors: np.ndarray  # (n_core, dim)
    core_weights: np.ndarray  # positive, sums to 1
    noise_vectors: np.ndarray
    noise_weights: np.ndarray
    rho_c: float = 0.0
    rho_n: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("core_weights", "noise_weights"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if np.any(w <= 0):
                raise ValueError(f"{name} must be strictly positive")
            setattr(self, name, w / w.sum())
        self.core_vectors = np.asarray(self.core_vectors, dtype=np.float64)
        self.noise_vectors = np.asarray(self.noise_vectors, dtype=np.float64)
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must be in [0, 1)")
        if min(self.alpha, self.beta) < 0 or max(self.alpha, self.beta) > 1:
            raise ValueError("alpha and beta must be in [0, 1]")

    @property
    def selector_skill(self) -> float:
        return 1.0 - self.alpha - self.beta

    @cached_property
    def strong(self) -> MixtureGradients:
        """Strong-mode gradients, computed on first use (`replace` makes a new spec)."""
        return mixture_gradients(self)


def fisher_preconditioner(spec: MixtureSpec) -> np.ndarray:
    """Damped second moment of the mixture's score population, weighted by
    component mass, with damping FISHER_DAMPING."""
    phis = np.vstack([spec.core_vectors, spec.noise_vectors])
    weights = np.concatenate([(1.0 - spec.eps) * spec.core_weights, spec.eps * spec.noise_weights])
    return damped_fisher(phis, weights, FISHER_DAMPING)


def random_mixture(
    seed: int,
    dim: int = 8,
    eps: float | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    rho_c: float = 0.0,
    rho_n: float = 0.0,
) -> MixtureSpec:
    rng = np.random.default_rng(seed)
    n_core = int(rng.integers(3, 8))
    n_noise = int(rng.integers(3, 8))
    return MixtureSpec(
        dim=dim,
        eps=float(rng.uniform(0.05, 0.8)) if eps is None else eps,
        alpha=float(rng.uniform(0.0, 0.45)) if alpha is None else alpha,
        beta=float(rng.uniform(0.0, 0.45)) if beta is None else beta,
        core_vectors=rng.normal(size=(n_core, dim)),
        core_weights=rng.uniform(0.2, 1.0, size=n_core),
        noise_vectors=rng.normal(size=(n_noise, dim)),
        noise_weights=rng.uniform(0.2, 1.0, size=n_noise),
        rho_c=rho_c,
        rho_n=rho_n,
        seed=seed,
    )


@dataclass
class MixtureGradients:
    g_core: np.ndarray
    g_noise: np.ndarray
    g_train: np.ndarray
    g_fil: np.ndarray
    z_fil: float


def _unit_in_metric(rng: np.random.Generator, geo: Geometry, dim: int) -> np.ndarray:
    u = rng.normal(size=dim)
    return u / np.sqrt(geo.norm_sq(u))


def mixture_gradients(spec: MixtureSpec, geo: Geometry | None = None) -> MixtureGradients:
    """Population gradients and the renormalized filtered gradient.

    Without `geo` the selector is independent of the token given its
    component (strong mode). With `geo`, each selected-component mean is
    perturbed by a seeded random direction whose norm in geo's metric is
    exactly rho * the core gradient's (weak-bias mode).
    """
    a, b = 1.0 - spec.eps, spec.eps
    z_fil = a * (1.0 - spec.alpha) + b * spec.beta
    if z_fil <= 0.0:
        raise DegenerateSelectorError(f"selector keeps no mass: Z_fil = {z_fil}")
    g_core = spec.core_weights @ spec.core_vectors
    g_noise = spec.noise_weights @ spec.noise_vectors
    g_train = a * g_core + b * g_noise
    g_core_sel, g_noise_sel = g_core, g_noise
    if geo is not None:
        norm_core = np.sqrt(geo.norm_sq(g_core))
        rng_c = np.random.default_rng(subseed(spec.seed, "bias-core"))
        rng_n = np.random.default_rng(subseed(spec.seed, "bias-noise"))
        g_core_sel = g_core + spec.rho_c * norm_core * _unit_in_metric(rng_c, geo, spec.dim)
        g_noise_sel = g_noise + spec.rho_n * norm_core * _unit_in_metric(rng_n, geo, spec.dim)
    g_fil = (a * (1.0 - spec.alpha) * g_core_sel + b * spec.beta * g_noise_sel) / z_fil
    return MixtureGradients(g_core, g_noise, g_train, g_fil, z_fil)


def _strong_terms(spec: MixtureSpec, geo: Geometry, grads: MixtureGradients | None = None):
    """Strong-mode gradients, ||g_core||^2, <g_core, g_noise> and <g_core, g_fil> - <g_core, g_train>
    (of `grads`, strong mode by default) in geo's metric, from one stacked solve."""
    strong = spec.strong
    grads = grads or strong
    rhs = np.stack([strong.g_core, strong.g_noise, grads.g_fil, grads.g_train])
    core_sq, cross, align_fil, align_train = (float(strong.g_core @ x) for x in geo.solve(rhs))
    return strong, core_sq, cross, align_fil - align_train


def _zeta(core_sq: float, cross: float) -> float:
    if core_sq == 0.0:
        raise DegenerateSelectorError("core gradient vanishes; coherence undefined")
    return cross / core_sq


def alignment_gain_exact(spec: MixtureSpec, geo: Geometry) -> dict:
    """Closed-form alignment gain versus the direct difference of alignments."""
    grads, core_sq, cross, gain = _strong_terms(spec, geo)
    formula = (1.0 - spec.eps) * spec.eps * spec.selector_skill / grads.z_fil * (core_sq - cross)
    return {"gain_formula": formula, "gain_direct": gain}


def coherence(spec: MixtureSpec, geo: Geometry) -> float:
    """zeta estimate: <g_core, g_noise> / ||g_core||^2 in geo's metric."""
    _, core_sq, cross, _ = _strong_terms(spec, geo)
    return _zeta(core_sq, cross)


def alignment_gain_lower_bound(spec: MixtureSpec, geo: Geometry) -> dict:
    """Strong-selector lower bound with zeta set to its estimate (tight)."""
    grads, core_sq, cross, gain = _strong_terms(spec, geo)
    zeta = _zeta(core_sq, cross)
    bound = (1.0 - spec.eps) * spec.eps * spec.selector_skill * (1.0 - zeta) / grads.z_fil * core_sq
    return {"bound": bound, "gain_direct": gain, "zeta": zeta, "holds": gain >= bound - 1e-12}


def weak_bias_gain_bound(spec: MixtureSpec, geo: Geometry) -> dict:
    """Bias-robust lower bound; positive whenever the selection-bias term is
    dominated by the strong-selector gain."""
    strong, core_sq, cross, gain_direct = _strong_terms(spec, geo, mixture_gradients(spec, geo))
    a, b = 1.0 - spec.eps, spec.eps
    gain_term = a * b * spec.selector_skill * (1.0 - _zeta(core_sq, cross))
    bias_term = a * (1.0 - spec.alpha) * spec.rho_c + b * spec.beta * spec.rho_n
    lower_bound = (gain_term - bias_term) / strong.z_fil * core_sq
    return {
        "lower_bound": lower_bound,
        "gain_direct": gain_direct,
        "positivity_condition": gain_term > bias_term,
        "holds": gain_direct >= lower_bound - 1e-9,
    }


# ---------------------------------------------------------------------------
# One-step comparison on a quadratic ideal risk
# ---------------------------------------------------------------------------


@dataclass
class OneStepScenario:
    """Quadratic ideal risk 0.5 (theta - theta*)^T H (theta - theta*), chosen
    so its gradient at theta equals minus the mixture's core gradient."""

    H: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    radius: float
    smoothness: float  # lambda_max(H)

    def loss(self, theta: np.ndarray) -> float:
        d = theta - self.theta_star
        return 0.5 * float(d @ self.H @ d)


def make_one_step_scenario(seed: int, spec: MixtureSpec, radius: float = 1e6) -> OneStepScenario:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(spec.dim, spec.dim))
    H = A.T @ A / spec.dim + 0.5 * np.eye(spec.dim)
    theta = rng.normal(size=spec.dim)
    theta_star = theta + np.linalg.solve(H, spec.strong.g_core)
    return OneStepScenario(H, theta, theta_star, radius, float(np.linalg.eigvalsh(H)[-1]))


def one_step_compare(scenario: OneStepScenario, spec: MixtureSpec, geo: Geometry, eta: float) -> dict:
    """Take one preconditioned step per arm from the same point and compare.

    Checks the per-arm descent inequality with L = lambda_max(H) and the
    filtered-minus-unfiltered difference against
        -eta * gain + (L/2) * eta^2 * (||step_fil||^2 + ||step_train||^2),
    whose zero crossing gives the small-step threshold eta_max.
    """
    grads = spec.strong
    solved = geo.solve(np.stack([grads.g_fil, grads.g_train]))
    step_fil, step_train = -solved
    n_fil = float(step_fil @ step_fil)
    n_train = float(step_train @ step_train)
    max_norm = max(np.sqrt(n_fil), np.sqrt(n_train))
    if eta * max_norm > scenario.radius:
        raise PreconditionError(
            f"step {eta * max_norm:.3e} exceeds the local radius {scenario.radius:.3e}"
        )
    L = scenario.smoothness
    align_fil, align_train = (float(grads.g_core @ x) for x in solved)
    gain = align_fil - align_train
    eta_max = min(
        2.0 * gain / (L * (n_fil + n_train)) if gain > 0 else 0.0,
        scenario.radius / max_norm,
    )
    loss_0 = scenario.loss(scenario.theta)
    loss_fil = scenario.loss(scenario.theta - eta * step_fil)
    loss_train = scenario.loss(scenario.theta - eta * step_train)
    bound_rhs = -eta * gain + 0.5 * L * eta**2 * (n_fil + n_train)
    tol = 1e-12 * max(1.0, abs(loss_0))
    return {
        "loss_fil": loss_fil,
        "loss_train": loss_train,
        "loss_start": loss_0,
        "gain": gain,
        "eta_max": eta_max,
        "bound_rhs": bound_rhs,
        "descent_ok_fil": loss_fil <= loss_0 - eta * align_fil + 0.5 * L * eta**2 * n_fil + tol,
        "descent_ok_train": loss_train <= loss_0 - eta * align_train + 0.5 * L * eta**2 * n_train + tol,
        "difference_ok": loss_fil - loss_train <= bound_rhs + tol,
    }


# ---------------------------------------------------------------------------
# High-confidence (low-novelty) token bounds in the Fisher geometry
# ---------------------------------------------------------------------------


@dataclass
class KNBoundScenario:
    """Toy softmax model: logits z = W x, scores taken w.r.t. the context
    vector, so the per-logit gradient norm is bounded by W's max row norm."""

    W: np.ndarray  # (n_tokens, dim)
    contexts: np.ndarray  # (n_pairs, dim)
    tokens: np.ndarray  # (n_pairs,)
    weights: np.ndarray  # (n_pairs,), sums to 1
    delta: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.weights = self.weights / self.weights.sum()
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    @property
    def logit_lipschitz(self) -> float:
        return float(np.max(np.linalg.norm(self.W, axis=1)))


def kn_scores(scenario: KNBoundScenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair score vectors phi = W^T (e_t - p) and probabilities p_t, for
    all pairs at once: each row of a stacked matrix-vector product, and of a
    softmax over rows, is bitwise the per-pair call."""
    p = softmax_value((scenario.W @ scenario.contexts[..., None])[..., 0])
    pairs = np.arange(len(p)), scenario.tokens
    e = np.zeros_like(p)
    e[pairs] = 1.0
    return (scenario.W.T @ (e - p)[..., None])[..., 0], p[pairs]


def kn_fisher(scenario: KNBoundScenario) -> np.ndarray:
    """Model-expectation Fisher over contexts: for each context, the exact
    sum over all tokens weighted by the model's own probabilities."""
    d = scenario.contexts.shape[1]
    F = np.zeros((d, d))
    eye = np.eye(scenario.W.shape[0])
    probs = softmax_value((scenario.W @ scenario.contexts[..., None])[..., 0])  # as in kn_scores
    for weight, p in zip(scenario.weights, probs):
        # phi for token k is W^T (e_k - p); accumulate sum_k p_k phi_k phi_k^T
        phis_c = (eye - p[None, :]) @ scenario.W  # row k = phi_k^T
        F += weight * (phis_c * p[:, None]).T @ phis_c
    F += FISHER_DAMPING * np.eye(d)
    return (F + F.T) / 2.0


def kn_bounds_check(scenario: KNBoundScenario) -> dict:
    """Verify the score-norm bounds and the vanishing-contribution bounds for
    the high-confidence pair set."""
    phis, probs = kn_scores(scenario)
    F = kn_fisher(scenario)
    mu = float(np.linalg.eigvalsh(F)[0])
    geo = Geometry(F)
    lz = scenario.logit_lipschitz
    factor = 2.0 * lz / np.sqrt(mu)
    tol = 1e-9

    euclid_viol = fisher_viol = 0.0
    for phi, x, p in zip(phis, geo.solve(phis), probs):
        euclid_viol = max(euclid_viol, float(np.linalg.norm(phi)) - 2.0 * lz * (1.0 - p))
        fisher_viol = max(fisher_viol, np.sqrt(float(phi @ x)) - factor * (1.0 - p))

    kn_set = probs >= 1.0 - scenario.delta
    mass = float(scenario.weights[kn_set].sum())
    result = {
        "mu": mu,
        "logit_lipschitz": lz,
        "kn_mass": mass,
        "score_bound_ok": euclid_viol <= tol and fisher_viol <= tol,
        "euclid_violation": euclid_viol,
        "fisher_violation": fisher_viol,
        "vacuous": not bool(kn_set.any()),
    }
    if result["vacuous"]:
        result["contribution_bound_ok"] = True
        result["alignment_impact_ok"] = True
        return result
    contribution = (scenario.weights[kn_set, None] * phis[kn_set]).sum(axis=0)
    g_train = (scenario.weights[:, None] * phis).sum(axis=0)
    g_rest = (scenario.weights[~kn_set, None] * phis[~kn_set]).sum(axis=0)
    x_contribution, x_train, x_rest = geo.solve(np.stack([contribution, g_train, g_rest]))
    contribution_norm = np.sqrt(float(contribution @ x_contribution))
    contribution_bound = factor * scenario.delta * mass
    train_sq = float(g_train @ x_train)
    impact = abs(train_sq - float(g_train @ x_rest))
    impact_bound = contribution_bound * np.sqrt(train_sq)
    result.update(
        {
            "contribution_norm": contribution_norm,
            "contribution_bound": contribution_bound,
            "contribution_bound_ok": contribution_norm <= contribution_bound + tol,
            "alignment_impact": impact,
            "alignment_impact_bound": impact_bound,
            "alignment_impact_ok": impact <= impact_bound + tol,
        }
    )
    return result


def make_kn_scenario(seed: int, dim: int = 8, n_low: int = 14, n_high: int = 6, delta: float = 0.05) -> KNBoundScenario:
    """Pairs with controlled confidence: high-confidence contexts are built
    by inverting W on a spiked logit vector, the rest are random."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(dim, dim))
    while abs(np.linalg.det(W)) < 1e-6:
        W = rng.normal(size=(dim, dim))
    target_p = 1.0 - delta / 2.0
    spike = np.log((dim - 1) * target_p / (1.0 - target_p))
    tokens = [int(rng.integers(dim)) for _ in range(n_high)]
    Z = np.zeros((n_high, dim))
    Z[range(n_high), tokens] = spike
    contexts = [*np.linalg.solve(W, Z[..., None])[..., 0]]  # one stack, rows bitwise the vector solves
    for _ in range(n_low):
        contexts.append(rng.normal(size=dim) * 0.3)
        tokens.append(int(rng.integers(dim)))
    n = n_high + n_low
    return KNBoundScenario(W, np.array(contexts), np.array(tokens), np.full(n, 1.0 / n), delta)


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------


@cache
def _identity(dim: int) -> Geometry:
    return Geometry(np.eye(dim))


def _preconditioners(spec: MixtureSpec) -> list[Geometry]:
    return [_identity(spec.dim), Geometry(fisher_preconditioner(spec))]


def _worst(specs, check, violation) -> float:
    """Largest violation(check(spec, geo)) over each mixture in both metrics."""
    worst = 0.0
    for spec in specs:
        for geo in _preconditioners(spec):
            worst = max(worst, violation(check(spec, geo)))
    return worst


def _alignment_checks(seed: int):
    """verify_theory's first part: the exact identity, its edge cases, the
    sign law and both lower bounds, as (name, instances, max_violation,
    pass) rows."""

    def mixtures(tag: str, n: int, **kw):
        return (random_mixture(subseed(seed, f"{tag}-{i}"), **kw) for i in range(n))

    # exact alignment-gain identity, both preconditioners
    gap = lambda r: abs(r["gain_formula"] - r["gain_direct"]) / (1.0 + abs(r["gain_direct"]))
    worst = _worst(mixtures("exact", 200), alignment_gain_exact, gap)
    yield "alignment_gain_exact_identity", 200, worst, worst <= 1e-9

    # edge cases: no noise, and a skill-less selector
    magnitude = lambda r: max(abs(r["gain_formula"]), abs(r["gain_direct"]))
    worst = _worst(mixtures("edge-eps", 50, eps=0.0), alignment_gain_exact, magnitude)
    yield "edge_no_noise_zero_gain", 50, worst, worst <= 1e-12
    skill_less = []
    for i in range(50):
        rng = np.random.default_rng(subseed(seed, f"edge-ab-{i}"))
        alpha = float(rng.uniform(0.0, 1.0))
        skill_less.append(random_mixture(subseed(seed, f"edge-ab-{i}"), alpha=alpha, beta=1.0 - alpha))
    worst = _worst(skill_less, alignment_gain_exact, magnitude)
    yield "edge_random_selector_zero_gain", 50, worst, worst <= 1e-12

    # sign law
    violations = 0
    for spec in mixtures("sign", 100):
        for geo in _preconditioners(spec):
            _, core_sq, cross, gain = _strong_terms(spec, geo)
            rhs = spec.selector_skill * (core_sq - cross)
            if abs(rhs) > 1e-9 and np.sign(gain) != np.sign(rhs):
                violations += 1
    yield "alignment_gain_sign_law", 100, float(violations), violations == 0

    # strong lower bound (zeta estimated, so it is tight)
    candidates = (random_mixture(subseed(seed, f"lb-{i}")) for i in count())
    incoherent = (spec for spec in candidates if coherence(spec, _identity(spec.dim)) < 1.0)
    slack = lambda r: r["bound"] - r["gain_direct"]
    worst = _worst(islice(incoherent, 100), alignment_gain_lower_bound, slack)
    yield "alignment_gain_lower_bound", 100, worst, worst <= 1e-12

    # weak-bias robustness
    biased = []
    for i in range(100):
        rng = np.random.default_rng(subseed(seed, f"wb-rho-{i}"))
        rho_c, rho_n = float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.3))
        biased.append(random_mixture(subseed(seed, f"wb-{i}"), rho_c=rho_c, rho_n=rho_n))
    worst = _worst(biased, weak_bias_gain_bound, lambda r: r["lower_bound"] - r["gain_direct"])
    yield "weak_bias_gain_bound", 100, worst, worst <= 1e-9


def _step_and_kn_checks(seed: int):
    """verify_theory's second part: the one-step comparison and the KN bounds."""
    # one-step comparison on random quadratics
    worst, ordering_bad, checked, i = 0.0, 0, 0, 0
    while checked < 50:
        spec = random_mixture(subseed(seed, f"os-{i}"))
        i += 1
        if coherence(spec, _identity(spec.dim)) >= 1.0 or spec.selector_skill <= 0.0:
            continue
        scenario = make_one_step_scenario(subseed(seed, f"os-scn-{i}"), spec)
        for geo in _preconditioners(spec):
            probe = one_step_compare(scenario, spec, geo, eta=0.0)
            if probe["eta_max"] <= 0.0:
                continue
            r = one_step_compare(scenario, spec, geo, eta=probe["eta_max"] / 2.0)
            descent_bad = not (r["descent_ok_fil"] and r["descent_ok_train"])
            worst = max(worst, r["loss_fil"] - r["loss_train"] - r["bound_rhs"], float(descent_bad))
            if r["gain"] > 0 and r["loss_fil"] > r["loss_train"] + 1e-12:
                ordering_bad += 1
        checked += 1
    yield "one_step_difference_bound", 50, worst, worst <= 1e-12
    yield "one_step_filtered_not_worse", 50, float(ordering_bad), ordering_bad == 0

    # score-norm bound on many random toy draws
    worst = 0.0
    rng = np.random.default_rng(subseed(seed, "kn-euclid"))
    for _ in range(1000):
        dim = int(rng.integers(3, 10))
        W = rng.normal(size=(dim, dim))
        x = rng.normal(size=dim) * float(rng.uniform(0.1, 3.0))
        t = int(rng.integers(dim))
        scenario = KNBoundScenario(W, x[None, :], np.array([t]), np.ones(1), delta=0.1)
        phis, probs = kn_scores(scenario)
        bound = 2.0 * scenario.logit_lipschitz * (1.0 - probs[0])
        worst = max(worst, float(np.linalg.norm(phis[0])) - bound)
    yield "kn_euclidean_score_bound", 1000, worst, worst <= 1e-9

    # Fisher contribution and alignment-impact bounds across confidence levels
    worst = 0.0
    for delta, n_scenarios in ((0.1, 34), (0.05, 34), (0.01, 32)):
        for i in range(n_scenarios):
            r = kn_bounds_check(make_kn_scenario(subseed(seed, f"kn-{delta}-{i}"), delta=delta))
            worst = max(worst, r["euclid_violation"], r["fisher_violation"])
            if not r["vacuous"]:
                impact_slack = r["alignment_impact"] - r["alignment_impact_bound"]
                worst = max(worst, r["contribution_norm"] - r["contribution_bound"], impact_slack)
    yield "kn_fisher_contribution_bounds", 100, worst, worst <= 1e-9


def _run_part(conn, part, seed: int) -> list[tuple]:
    """A part's rows, in a Fork helper (`conn` goes unused)."""
    return list(part(seed))


def verify_theory(seed: int = 0) -> dict:
    """Run every check batch; returns per-check instance counts, the largest
    violation seen, and pass flags.

    With two available cores or more, a forked helper runs the one-step and
    KN batches while this process runs the others, and no process outlives
    the call. The report and any error are those of one loop over the
    batches: this process's batches come first, so their errors win."""
    if available_cores() < 2:
        rows = [*_alignment_checks(seed), *_step_and_kn_checks(seed)]
    else:
        with Fork(_run_part, _step_and_kn_checks, seed) as helper:
            rows = [*_alignment_checks(seed), *helper.recv()]
    checks = [{"name": name, "instances": n, "max_violation": worst, "pass": bool(ok)} for name, n, worst, ok in rows]
    return {"seed": seed, "checks": checks, "all_pass": all(c["pass"] for c in checks)}


def gain_sweep_rows(seed: int = 0, n_per_axis: int = 5) -> list[dict]:
    """Gain as a function of selector and mixture parameters, for CSV export."""
    rows = []
    base = random_mixture(subseed(seed, "sweep-base"))
    grid = np.linspace(0.05, 0.9, n_per_axis)
    geo = _identity(base.dim)
    for eps in grid:
        for alpha in np.linspace(0.0, 0.45, n_per_axis):
            for beta in np.linspace(0.0, 0.45, n_per_axis):
                spec = replace(base, eps=float(eps), alpha=float(alpha), beta=float(beta))
                r = alignment_gain_exact(spec, geo)
                rows.append(
                    {
                        "eps": float(eps),
                        "alpha": float(alpha),
                        "beta": float(beta),
                        "zeta": coherence(spec, geo),
                        "gain_formula": r["gain_formula"],
                        "gain_direct": r["gain_direct"],
                    }
                )
    return rows
