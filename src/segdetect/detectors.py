"""Detectors mapping a feature vector to a probability p(x) of being clean.

Four kinds: a mean-entropy threshold, L1-regularized logistic regression
(trained cross-attack on clean vs one attack's features), a one-class SVM
with RBF kernel, and a Gaussian ellipse (Mahalanobis distance). An image is
classified as perturbed when p(x) < kappa and clean when p(x) >= kappa.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .errors import (FINITE_NON_NEGATIVE, FINITE_POSITIVE, IN_OPEN_UNIT, Config, InputError,
                     TrainingError, at_least, build, check_keys, ruled)
from .uncertainty import feature_matrix

def _hex_encode(arr):
    """Arrays as exact float64 hex; any other value passes through."""
    if not isinstance(arr, np.ndarray):
        return arr
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": arr.tobytes().hex()}


def _hex_decode(obj):
    if not (isinstance(obj, dict) and set(obj) == {"shape", "data"}):
        return obj
    return np.frombuffer(bytes.fromhex(obj["data"]), dtype=np.float64).reshape(obj["shape"]).copy()


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray    # bool mask; constant features are dropped

    @classmethod
    def fit(cls, x):
        mean = x.mean(axis=0)
        std = x.std(axis=0, ddof=0)
        kept = std > 0
        return cls(mean=mean, std=std, kept=kept)

    def transform(self, x):
        if x.shape[1] != len(self.mean):
            raise InputError(f"feature length {x.shape[1]} does not match standardizer ({len(self.mean)})")
        z = (x[:, self.kept] - self.mean[self.kept]) / self.std[self.kept]
        return z

    def to_dict(self):
        return {"mean": _hex_encode(self.mean), "std": _hex_encode(self.std),
                "kept": self.kept.astype(np.float64).tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(mean=_hex_decode(d["mean"]), std=_hex_decode(d["std"]),
                   kept=np.array(d["kept"]) > 0)


@dataclass
class DetectorModel:
    kind: str
    params: dict
    standardizer: Standardizer = None


def train_entropy(clean_features):
    """p(x) = 1 - mean_entropy / ln C, clamped to [0, 1]."""
    if len(clean_features) < 2:
        raise InputError("need at least 2 clean features")
    c = clean_features[0].num_classes
    return DetectorModel(kind="entropy", params={"ln_c": math.log(c)})


def _sigmoid(t):
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _newton_step(g, h, theta, lam, tol):
    """argmin_z g.(z - theta) + (z - theta).H(z - theta)/2 + lam |z[:-1]|_1, the
    intercept z[-1] unpenalised. Cyclic coordinate descent on Python floats
    finds the support and signs; it crawls on an ill-conditioned H, so the exact
    minimiser there replaces it if the signs hold and every zero weight stays optimal."""
    z, hd, hl, gl, m = theta.tolist(), [0.0] * len(theta), h.tolist(), g.tolist(), len(theta)
    for _ in range(1000):
        moved = 0.0
        for j in range(m):
            grad, hjj = gl[j] + hd[j], hl[j][j]
            if hjj > 0:
                u = z[j] - grad / hjj
                u = math.copysign(max(abs(u) - lam / hjj, 0.0), u) if j < m - 1 else u
            else:    # linear in z_j: a weight whose |gradient| <= lam goes to 0, else stays
                u = 0.0 if j < m - 1 and abs(grad) <= lam else z[j]
            step, z[j] = u - z[j], u
            if step:
                hd = [a + step * b for a, b in zip(hd, hl[j])]
                moved = max(moved, abs(step))
        if moved <= tol:
            break
    z = np.array(z)
    sign, on = np.append(np.sign(z[:-1]), 0.0), np.append(z[:-1] != 0, True)
    exact = z.copy()
    try:    # one Newton step on the support, where the model is quadratic
        exact[on] -= np.linalg.solve(h[np.ix_(on, on)], (g + h @ (z - theta) + lam * sign)[on])
    except np.linalg.LinAlgError:
        return z
    ok = np.all(np.sign(exact[:-1]) == sign[:-1]) and np.isfinite(exact[-1])
    return exact if ok and np.all(np.abs(g + h @ (exact - theta))[~on] <= lam) else z


@dataclass
class LassoConfig(Config, section="lasso"):
    lam: float = ruled(0.01, FINITE_NON_NEGATIVE)
    tol: float = ruled(1e-9, FINITE_POSITIVE)
    max_iter: int = ruled(100, at_least(1))


def train_lasso(clean_features, adv_features, cfg):
    """L1-regularized logistic regression (clean = 1, adversarial = 0) on
    clean-standardized features z: minimises mean(log(1 + e^t) - y t) +
    lam |w|_1 over t = z.w + b, b unpenalised, by proximal Newton (Lee, Sun &
    Saunders 2014) with Armijo backtracking. Before each step it computes the
    KKT residual r = max(|g_b|, |g_j + lam sign w_j| over w_j != 0,
    (|g_j| - lam)+ over w_j = 0) of the gradient g, and stops once r < tol;
    params records the steps taken as "iterations" and r as "kkt_residual".
    Raises TrainingError if max_iter steps leave r >= tol, or on a non-finite
    iterate."""
    lam, max_iter = cfg.lam, cfg.max_iter
    if not clean_features or not adv_features:
        raise InputError("both clean and adversarial features are required")
    xc, xa = feature_matrix(clean_features), feature_matrix(adv_features)
    std = Standardizer.fit(xc)
    y = np.concatenate([np.ones(len(xc)), np.zeros(len(xa))])
    x1 = np.hstack([np.vstack([std.transform(xc), std.transform(xa)]), np.ones((len(y), 1))])
    def objective(th):    # log(1 + e^t) - y t, written without cancellation at y = 1
        return np.mean(np.logaddexp(0.0, (1.0 - 2.0 * y) * (x1 @ th))) + lam * np.abs(th[:-1]).sum()
    # no residual below the gradient's rounding, n terms of up to max|x1| each
    tol = max(cfg.tol, len(y) * np.finfo(float).eps * float(np.abs(x1).max()))
    theta = np.zeros(x1.shape[1])     # the weights, then the intercept
    for it in range(max_iter + 1):
        t = x1 @ theta
        p = _sigmoid(t)
        g, w = x1.T @ (p - y) / len(y), theta[:-1]
        rw = np.where(w != 0, np.abs(g[:-1] + lam * np.sign(w)), np.abs(g[:-1]) - lam)
        resid = max(abs(float(g[-1])), float(rw.max(initial=0.0)))
        if resid < tol:
            break
        if it == max_iter:
            raise TrainingError(f"lasso KKT residual {resid:.3g} not below tol {tol:g} "
                                f"after {max_iter} iterations")
        h = (x1.T * (p * _sigmoid(-t))) @ x1 / len(y)
        delta = _newton_step(g, h, theta, lam, 1e-4 * min(resid, 1.0)) - theta
        decrease = g @ delta + lam * (np.abs(w + delta[:-1]).sum() - np.abs(w).sum())
        f0, s = objective(theta), 1.0     # a change below the objective's rounding passes
        while s > 1e-10 and objective(theta + s * delta) > f0 + 1e-4 * s * decrease + 1e-12 * f0:
            s *= 0.5
        theta = theta + s * delta
        if not np.all(np.isfinite(theta)):
            raise TrainingError(f"lasso diverged at iteration {it}")
    return DetectorModel(kind="lasso", standardizer=std, params={
        "w": theta[:-1], "b": float(theta[-1]), "lambda": lam, "iterations": it,
        "kkt_residual": resid})


def _sqdist(a, b):
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T


def _rbf(a, b, gamma):
    return np.exp(-gamma * np.maximum(_sqdist(a, b), 0.0))


def median_heuristic_gamma(z):
    """gamma = 1 / (d * median pairwise squared distance)."""
    n, d = z.shape
    med = float(np.median(_sqdist(z, z)[np.triu_indices(n, k=1)]))
    return 1.0 / (d * max(med, 1e-12))


@dataclass
class OcsvmConfig(Config, section="ocsvm"):
    nu: float = ruled(0.1, IN_OPEN_UNIT)
    gamma: float | None = ruled(None, (lambda v: v is None or 0 < v < math.inf,
                                       "None or finite and > 0"))   # None: median_heuristic_gamma
    tol: float = ruled(1e-6, FINITE_POSITIVE)
    max_updates: int = ruled(100_000, at_least(1))


def train_ocsvm(clean_features, cfg):
    """RBF one-class SVM dual (0 <= a_i <= 1/(nu n), sum a = 1) solved by
    pairwise coordinate updates; p(x) is the empirical CDF of the training
    decision values."""
    nu, gamma, max_updates = cfg.nu, cfg.gamma, cfg.max_updates
    if len(clean_features) < 10:
        raise InputError("need at least 10 clean features")
    xc = feature_matrix(clean_features)
    std = Standardizer.fit(xc)
    z = std.transform(xc)
    n = z.shape[0]
    if gamma is None:
        gamma = median_heuristic_gamma(z)
    kmat = _rbf(z, z, gamma)
    cbox = 1.0 / (nu * n)
    alpha = np.zeros(n)
    nfull = int(np.floor(nu * n))
    alpha[:nfull] = cbox
    if nfull < n:
        alpha[nfull] = 1.0 - nfull * cbox
    grad = kmat @ alpha
    converged = False
    for _ in range(max_updates):
        up = alpha < cbox - 1e-12
        low = alpha > 1e-12
        i = int(np.flatnonzero(up)[np.argmin(grad[up])])
        j = int(np.flatnonzero(low)[np.argmax(grad[low])])
        if grad[j] - grad[i] < cfg.tol:
            converged = True
            break
        denom = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        delta = (grad[j] - grad[i]) / max(denom, 1e-12)
        delta = min(delta, cbox - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        grad += delta * (kmat[:, i] - kmat[:, j])
    if not converged:
        raise TrainingError(f"one-class SVM did not reach KKT tolerance in {max_updates} updates")
    free = (alpha > 1e-12) & (alpha < cbox - 1e-12)
    rho = float(np.mean(grad[free])) if free.any() else float((grad[i] + grad[j]) / 2.0)
    decisions = kmat @ alpha - rho
    return DetectorModel(
        kind="ocsvm",
        params={"alpha": alpha, "sv": z, "rho": rho, "gamma": gamma, "nu": nu,
                "train_decisions": np.sort(decisions)},
        standardizer=std)


@dataclass
class EllipseConfig(Config, section="ellipse"):
    shrinkage: float = ruled(1e-3, FINITE_NON_NEGATIVE)


def train_ellipse(clean_features, cfg):
    """Shrinkage-regularized Gaussian fit; p(x) is the empirical survival
    function of the training Mahalanobis distances."""
    xc = feature_matrix(clean_features)
    std = Standardizer.fit(xc)
    z = std.transform(xc)
    n, d = z.shape
    if n < d + 2:
        raise InputError(f"need at least {d + 2} clean samples for a {d}-dim ellipse")
    mu = z.mean(axis=0)
    cov = np.cov(z, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    cov_reg = cov + cfg.shrinkage * (np.trace(cov) / d) * np.eye(d)
    try:
        precision = np.linalg.inv(cov_reg)
    except np.linalg.LinAlgError as exc:
        raise TrainingError("covariance singular after shrinkage") from exc
    model = DetectorModel(kind="ellipse", standardizer=std,
                          params={"mu": mu, "precision": precision, "shrinkage": cfg.shrinkage})
    model.params["train_m"] = np.sort(mahalanobis(model, z))
    return model


def mahalanobis(model, z):
    diff = z - model.params["mu"]
    return np.sqrt(np.maximum(
        np.einsum("ij,jk,ik->i", diff, model.params["precision"], diff), 0.0))


def _score_entropy(model, x):
    return np.clip(1.0 - x[:, 0] / model.params["ln_c"], 0.0, 1.0)


def _score_lasso(model, z):
    return _sigmoid(z @ model.params["w"] + model.params["b"])


def _ecdf(train, stat):
    """Share of the sorted training statistics `train` at or below each `stat`,
    where higher means cleaner; NaN where `stat` is NaN."""
    p = np.searchsorted(train, stat, side="right") / len(train)
    return np.where(np.isnan(stat), np.nan, p)


def _score_ocsvm(model, z):
    k = _rbf(z, model.params["sv"], model.params["gamma"])
    return _ecdf(model.params["train_decisions"], k @ model.params["alpha"] - model.params["rho"])


def _score_ellipse(model, z):
    # the share of training points at least as far out
    return _ecdf(-model.params["train_m"][::-1], -mahalanobis(model, z))


# kind -> (trainer, scorer, config dataclass or None). Trainers are named, and
# looked up here when called, so a wrapper set on the module attribute
# (perfbench/tracing.py) runs. A trainer taking `adv_features` is supervised.
# The config's fields are the detector spec's keys, and a trainer takes the
# config built of its spec last; a kind without one takes no keys. A scorer
# maps the n x d feature matrix, standardized when the model has a
# standardizer, to the n images' scores.
DETECTORS = {
    "entropy": ("train_entropy", _score_entropy, None),
    "lasso": ("train_lasso", _score_lasso, LassoConfig),
    "ocsvm": ("train_ocsvm", _score_ocsvm, OcsvmConfig),
    "ellipse": ("train_ellipse", _score_ellipse, EllipseConfig),
}


def _trainer(kind, hyperparams):
    """(trainer, supervised, the trainer's arguments after the features) of
    `kind`: the config errors.build makes of `hyperparams`, if the kind has
    one. Raises InputError on an unknown kind or key, or a bad value."""
    if kind not in DETECTORS:
        raise InputError(f"unknown detector kind {kind!r}")
    name, _, config = DETECTORS[kind]
    section, fn = f"detector {kind!r}", globals()[name]
    if config is None:
        check_keys(section, hyperparams, ())
    args = [build(config, dict(hyperparams), section)] if config else []
    return fn, "adv_features" in inspect.signature(fn).parameters, args


def is_supervised(kind, hyperparams=()):
    """Whether `kind` also trains on the training attack's features."""
    return _trainer(kind, hyperparams)[1]


def train_detector(kind, clean_features, adv_features=None, **hyperparams):
    """Trains a registered kind; adv_features reach only the supervised ones."""
    fn, supervised, args = _trainer(kind, hyperparams)
    return fn(clean_features, *([adv_features] if supervised else []), *args)


def score_many(model, features):
    """Each feature vector's probability of its image being clean, in [0, 1]."""
    if model.kind not in DETECTORS:
        raise InputError(f"unknown detector kind {model.kind!r}")
    if not features:
        return np.zeros(0)
    x = feature_matrix(features)
    if model.standardizer is not None:
        x = model.standardizer.transform(x)
    return DETECTORS[model.kind][1](model, x)


def classify(p, kappa):
    """Perturbed iff p < kappa; p >= kappa is clean (boundary counts as clean)."""
    if not (0 <= p <= 1 and 0 <= kappa <= 1):
        raise InputError("p and kappa must lie in [0, 1]")
    return "perturbed" if p < kappa else "clean"


def save_detector(model, path):
    doc = {"kind": model.kind, "params": {k: _hex_encode(v) for k, v in model.params.items()}}
    if model.standardizer is not None:
        doc["standardizer"] = model.standardizer.to_dict()
    tensorio.write_json(path, doc)


def load_detector(path):
    doc = tensorio.read_json(path)
    params = {k: _hex_decode(v) for k, v in doc["params"].items()}
    std = Standardizer.from_dict(doc["standardizer"]) if "standardizer" in doc else None
    return DetectorModel(kind=doc["kind"], params=params, standardizer=std)
