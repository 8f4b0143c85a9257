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
from .errors import InputError, TrainingError
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
        x = np.atleast_2d(x)
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


def _power_iteration(gram, iters=200, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = float(np.linalg.norm(w))
        if lam == 0:
            return 0.0
        v = w / lam
    return lam


def train_lasso(clean_features, adv_features, lam=0.01, tol=1e-8, max_iter=10_000):
    """L1-regularized logistic regression (clean = 1, adversarial = 0) fit by
    proximal gradient descent (ISTA) on clean-standardized features."""
    if not clean_features or not adv_features:
        raise InputError("both clean and adversarial features are required")
    xc = feature_matrix(clean_features)
    xa = feature_matrix(adv_features)
    std = Standardizer.fit(xc)
    x = np.vstack([std.transform(xc), std.transform(xa)])
    y = np.concatenate([np.ones(len(xc)), np.zeros(len(xa))])
    n, d = x.shape
    lip = _power_iteration(x.T @ x) / (4.0 * n)
    step = 1.0 / max(lip, 1e-12)
    w = np.zeros(d)
    b = 0.0
    for it in range(max_iter):
        p = _sigmoid(x @ w + b)
        gw = x.T @ (p - y) / n
        gb = float(np.mean(p - y))
        w_new = w - step * gw
        w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - lam * step, 0.0)
        b_new = b - step * gb
        delta = max(np.max(np.abs(w_new - w)), abs(b_new - b))
        w, b = w_new, b_new
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise TrainingError(f"lasso diverged at iteration {it}")
        if delta < tol:
            break
    return DetectorModel(kind="lasso", params={"w": w, "b": b, "lambda": lam},
                         standardizer=std)


def _sqdist(a, b):
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T


def _rbf(a, b, gamma):
    return np.exp(-gamma * np.maximum(_sqdist(a, b), 0.0))


def median_heuristic_gamma(z):
    """gamma = 1 / (d * median pairwise squared distance)."""
    n, d = z.shape
    med = float(np.median(_sqdist(z, z)[np.triu_indices(n, k=1)]))
    return 1.0 / (d * max(med, 1e-12))


def train_ocsvm(clean_features, nu=0.1, gamma=None, tol=1e-6, max_updates=100_000):
    """RBF one-class SVM dual (0 <= a_i <= 1/(nu n), sum a = 1) solved by
    pairwise coordinate updates; p(x) is the empirical CDF of the training
    decision values."""
    if len(clean_features) < 10:
        raise InputError("need at least 10 clean features")
    if not 0 < nu < 1:
        raise InputError("nu must lie in (0, 1)")
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
        if grad[j] - grad[i] < tol:
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


def train_ellipse(clean_features, shrinkage=1e-3):
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
    cov_reg = cov + shrinkage * (np.trace(cov) / d) * np.eye(d)
    try:
        precision = np.linalg.inv(cov_reg)
    except np.linalg.LinAlgError as exc:
        raise TrainingError("covariance singular after shrinkage") from exc
    model = DetectorModel(kind="ellipse", standardizer=std,
                          params={"mu": mu, "precision": precision, "shrinkage": shrinkage})
    model.params["train_m"] = np.sort(mahalanobis(model, z))
    return model


def mahalanobis(model, z):
    diff = np.atleast_2d(z) - model.params["mu"]
    return np.sqrt(np.maximum(
        np.einsum("ij,jk,ik->i", diff, model.params["precision"], diff), 0.0))


def _score_entropy(model, values):
    return float(np.clip(1.0 - values[0] / model.params["ln_c"], 0.0, 1.0))


def _score_lasso(model, z):
    return float(_sigmoid(np.array([float(z @ model.params["w"] + model.params["b"])]))[0])


def _score_ocsvm(model, z):
    k = _rbf(z[None, :], model.params["sv"], model.params["gamma"])
    d = float((k @ model.params["alpha"])[0] - model.params["rho"])
    td = model.params["train_decisions"]
    return float(np.searchsorted(td, d, side="right") / len(td))


def _score_ellipse(model, z):
    m = float(mahalanobis(model, z)[0])
    tm = model.params["train_m"]
    # fraction of training points at least as far out
    return float((len(tm) - np.searchsorted(tm, m, side="left")) / len(tm))


# kind -> (trainer, one-row scorer). Trainers are named, and looked up here
# when called, so a wrapper set on the module attribute (perfbench/tracing.py)
# runs. A trainer taking `adv_features` is supervised; its parameters after
# the features are the detector spec's keys. Scorers see standardized
# features when the model has a standardizer.
DETECTORS = {
    "entropy": ("train_entropy", _score_entropy),
    "lasso": ("train_lasso", _score_lasso),
    "ocsvm": ("train_ocsvm", _score_ocsvm),
    "ellipse": ("train_ellipse", _score_ellipse),
}


def hyperparameters(kind):
    """{key: default} of the spec keys `kind` takes: its trainer's parameters
    after the features. Raises InputError on an unknown kind."""
    if kind not in DETECTORS:
        raise InputError(f"unknown detector kind {kind!r}")
    params = inspect.signature(globals()[DETECTORS[kind][0]]).parameters
    return {name: p.default for name, p in params.items()
            if name not in ("clean_features", "adv_features")}


def _trainer(kind, hyperparams):
    """(trainer, supervised) of `kind`; raises InputError on an unknown kind or
    hyperparameter."""
    unknown = set(hyperparams) - set(hyperparameters(kind))
    if unknown:
        raise InputError(f"detector {kind!r}: unknown key(s) {', '.join(sorted(unknown))}")
    fn = globals()[DETECTORS[kind][0]]
    return fn, "adv_features" in inspect.signature(fn).parameters


def is_supervised(kind, hyperparams=()):
    """Whether `kind` also trains on the training attack's features."""
    return _trainer(kind, hyperparams)[1]


def train_detector(kind, clean_features, adv_features=None, **hyperparams):
    """Trains a registered kind; adv_features reach only the supervised ones."""
    fn, supervised = _trainer(kind, hyperparams)
    return fn(clean_features, *([adv_features] if supervised else []), **hyperparams)


def score(model, feature):
    """Probability of the image being clean, in [0, 1]."""
    if model.kind not in DETECTORS:
        raise InputError(f"unknown detector kind {model.kind!r}")
    x = feature.values if hasattr(feature, "values") else np.asarray(feature)
    if model.standardizer is not None:
        x = model.standardizer.transform(x[None, :])[0]
    return DETECTORS[model.kind][1](model, x)


def score_many(model, features):
    return np.array([score(model, f) for f in features])


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
