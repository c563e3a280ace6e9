"""Riemannian geometry on SPD covariance matrices.

Affine-invariant distance, Fréchet (geometric) mean, the minimum-distance-
to-mean classifier, and backward-elimination channel selection driven by
inter-class centroid distance.  The Fréchet mean takes safeguarded
Riemannian Newton steps (`_newton_direction`).  Each elimination step
solves every class pair's generalized eigenproblem once and scores all
leave-one-channel-out candidates from it with a contour-integral trace
formula (`_leave_one_out_sq`).  Matrices are plain float ndarrays; matrix
square roots and logarithms go through symmetric eigendecomposition with
eigenvalues clamped at 1e-12 of the largest, never silently (see
`clamped_eigenvalue_count`).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "EigenvalueClampWarning",
    "FrechetMeanError",
    "MDMModel",
    "RemovalStep",
    "SelectionTrace",
    "clamped_eigenvalue_count",
    "covariance",
    "shrink",
    "riemannian_distance",
    "frechet_mean",
    "restrict_channels",
    "mdm_fit",
    "mdm_predict",
    "backward_elimination",
    "trace_to_json",
    "trace_from_json",
]

SYMMETRY_RTOL = 1e-10
EIG_CLAMP_REL = 1e-12
#: Relative residual at which `_newton_direction`'s conjugate gradients stop.
_CG_RTOL = 1e-4

_n_clamped = 0


class EigenvalueClampWarning(UserWarning):
    """An eigenvalue below the clamping floor was raised to keep a matrix SPD."""


class FrechetMeanError(RuntimeError):
    """Fréchet-mean iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def clamped_eigenvalue_count() -> int:
    """Running count of eigenvalues clamped by spectral matrix functions."""
    return _n_clamped


def _check_square_symmetric(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    scale = max(float(np.abs(m).max(initial=0.0)), 1e-300)
    if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} is not symmetric within {SYMMETRY_RTOL} relative")
    return m


def _clamped_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # For sqrt/log inputs only: these need strictly positive spectra.
    global _n_clamped
    w, V = np.linalg.eigh((m + m.T) / 2.0)
    floor = EIG_CLAMP_REL * max(float(w[-1]), 0.0)
    if floor <= 0:
        raise ValueError("matrix has no positive eigenvalue")
    below = int(np.count_nonzero(w < floor))
    if below:
        _n_clamped += below
        warnings.warn(
            f"clamped {below} eigenvalue(s) below {floor:.3e}",
            EigenvalueClampWarning,
            stacklevel=3,
        )
        w = np.maximum(w, floor)
    return w, V


def _spectral(m: np.ndarray, fn) -> np.ndarray:
    w, V = np.linalg.eigh((m + m.T) / 2.0)
    return (V * fn(w)) @ V.T


def _newton_direction(grad: np.ndarray, logw: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Newton step xi of `frechet_mean` for its n whitened matrices
    ``W_i = U_i diag(exp(logw_i)) U_i^T`` (``us[i]``, ``logw[i]``): the
    solution of ``H xi = grad`` by conjugate gradients from ``grad / n``.
    ``H xi = sum_i U_i (G_i * U_i^T xi U_i) U_i^T``, elementwise in G_i, is
    minus the derivative of ``sum_i log(exp(-xi/2) W_i exp(-xi/2))`` at 0,
    with ``G_i[j, k] = (d/2) coth(d/2) >= 1`` for ``d = logw_ij - logw_ik``
    (1 where d = 0), so H is positive definite.
    """
    def hess(xi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xi)
        for lw, u in zip(logw, us):
            half = (lw[:, None] - lw) / 2.0
            g = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half != 0)
            out += u @ (g * (u.T @ xi @ u)) @ u.T
        return out

    xi = grad / len(us)
    r = grad - hess(xi)
    p, rr = r, np.vdot(r, r)
    stop = (_CG_RTOL * np.linalg.norm(grad)) ** 2
    while rr > stop:
        hp = hess(p)
        alpha = rr / np.vdot(p, hp)
        xi, r = xi + alpha * p, r - alpha * hp
        rr, old = np.vdot(r, r), rr
        p = r + (rr / old) * p
    return xi


def covariance(epoch: np.ndarray, shrinkage: float = 0.05) -> np.ndarray:
    """Shrunk sample covariance of one epoch.

    Parameters
    ----------
    epoch : ndarray, shape (n_channels, n_samples)
        Raw signal segment; sample count should exceed channel count.
    shrinkage : float in [0, 1)
        Blend factor towards the scaled identity:
        ``(1 - shrinkage) * S + shrinkage * (tr(S)/dim) * I``.
        Any positive value forces positive definiteness of the result.

    Returns
    -------
    ndarray, shape (n_channels, n_channels)
    """
    epoch = np.asarray(epoch, dtype=float)
    if epoch.ndim != 2:
        raise ValueError(f"epoch must be 2-d (channels x samples), got {epoch.shape}")
    if epoch.shape[1] < 2:
        raise ValueError("epoch needs at least 2 samples")
    if not np.all(np.isfinite(epoch)):
        raise ValueError("epoch contains non-finite samples")
    return shrink(np.atleast_2d(np.cov(epoch)), shrinkage)


def shrink(cov: np.ndarray, shrinkage: float) -> np.ndarray:
    """`covariance`'s blend towards the scaled identity: shrinking
    ``covariance(epoch, 0.0)`` gives the bytes of ``covariance(epoch, shrinkage)``."""
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError(f"shrinkage must be in [0, 1), got {shrinkage}")
    dim = cov.shape[0]
    return (1.0 - shrinkage) * cov + shrinkage * (np.trace(cov) / dim) * np.eye(dim)


def riemannian_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Affine-invariant Riemannian distance between two SPD matrices.

    ``delta(A, B) = || log(A^{-1/2} B A^{-1/2}) ||_F``, computed from the
    generalized eigenvalues of the pencil (A, B).  Symmetric, zero iff
    A == B, and invariant under congruence A -> W A W^T.
    """
    a = _check_square_symmetric(a, "first matrix")
    b = _check_square_symmetric(b, "second matrix")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    try:
        w = scipy.linalg.eigvalsh(a, b)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise ValueError("inputs must be positive definite") from None
    if w[0] <= 0 or not np.all(np.isfinite(w)):
        raise ValueError("inputs must be positive definite")
    return float(np.sqrt((np.log(w) ** 2).sum()))


def frechet_mean(
    mats: Sequence[np.ndarray],
    tol: float = 1e-8,
    max_iter: int = 50,
) -> np.ndarray:
    """Fréchet (Karcher) mean of SPD matrices under the affine metric.

    Riemannian Newton iteration started at the arithmetic mean (Ferreira et
    al. 2006; Jeuris, Vandebril & Vandereycken 2012).  Each iteration
    diagonalizes every whitened ``W_i = M^{-1/2} A_i M^{-1/2}`` once, for the
    residual ``|| sum_i log W_i ||_F`` and for `_newton_direction`'s step xi
    to ``M^{1/2} exp(xi) M^{1/2}``.  A Newton iterate that does not lower the
    residual below the last accepted one is replaced by the plain step
    ``M^{1/2} exp(mean_i log W_i) M^{1/2}`` from that point.  Convergence is
    declared when the residual drops to `tol`; each evaluation of it,
    rejected or not, counts against `max_iter`.

    Raises
    ------
    FrechetMeanError
        If the residual is still above `tol` after `max_iter` iterations;
        the exception carries the last residual.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    stack = np.stack([_check_square_symmetric(m) for m in mats])
    mean = stack.mean(axis=0)
    us, logw = np.empty_like(stack), np.empty(stack.shape[:2])
    residual = best = np.inf
    newton = False
    for _ in range(max_iter):
        w, V = _clamped_eigh(mean)
        isq = (V * (1.0 / np.sqrt(w))) @ V.T
        grad = np.zeros_like(mean)
        for i, mat in enumerate(stack):
            wi, us[i] = _clamped_eigh(isq @ mat @ isq)
            logw[i] = np.log(wi)
            grad += (us[i] * logw[i]) @ us[i].T
        residual = float(np.linalg.norm(grad, "fro"))
        if residual <= tol:
            return mean
        if newton and residual >= best:
            mean, newton = plain, False
            continue
        best = residual
        sq = (V * np.sqrt(w)) @ V.T
        plain = sq @ _spectral(grad / len(stack), np.exp) @ sq
        mean = sq @ _spectral(_newton_direction(grad, logw, us), np.exp) @ sq
        newton = True
    raise FrechetMeanError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


@dataclass(frozen=True, eq=False)
class MDMModel:
    """Per-class Fréchet-mean centroids over a channel subset."""

    classes: tuple[Hashable, ...]
    centroids: tuple[np.ndarray, ...]
    channel_subset: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.channel_subset)


def restrict_channels(cov: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Principal submatrix of a covariance on the given channel indices."""
    idx = np.asarray(subset, dtype=int)
    return np.asarray(cov, dtype=float)[np.ix_(idx, idx)]


def _class_partition(labels: Sequence[Hashable], classes=None) -> tuple[tuple, dict]:
    if classes is None:
        classes = tuple(dict.fromkeys(labels))
    else:
        classes = tuple(classes)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    groups: dict[Hashable, list[int]] = {c: [] for c in classes}
    for i, lab in enumerate(labels):
        if lab not in groups:
            raise ValueError(f"label {lab!r} not in declared classes {classes}")
        groups[lab].append(i)
    for c in classes:
        if not groups[c]:
            raise ValueError(f"class {c!r} has zero examples")
    return classes, groups


def mdm_fit(
    covs: Sequence[np.ndarray],
    labels: Sequence[Hashable],
    channel_subset: Sequence[int] | None = None,
    classes: Sequence[Hashable] | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
    mean: Callable[..., np.ndarray] | None = None,
) -> MDMModel:
    """Fit the minimum-distance-to-mean classifier.

    Covariances are restricted to `channel_subset` before averaging; one
    Fréchet-mean centroid is estimated per class.  Class order defaults to
    first appearance in `labels` and fixes the prediction tie-break.
    `mean`, called as ``mean(mats, tol=tol, max_iter=max_iter)``, replaces
    `frechet_mean` for each class, e.g. to return centroids the caller
    already has.
    """
    if len(covs) != len(labels):
        raise ValueError("covs and labels lengths differ")
    if len(covs) == 0:
        raise ValueError("no training examples")
    dim = np.asarray(covs[0]).shape[0]
    subset = tuple(range(dim)) if channel_subset is None else tuple(int(c) for c in channel_subset)
    if any(c < 0 or c >= dim for c in subset):
        raise ValueError(f"channel subset out of range for dim {dim}")
    classes, groups = _class_partition(labels, classes)
    mean = frechet_mean if mean is None else mean
    restricted = [restrict_channels(c, subset) for c in covs]
    centroids = tuple(
        mean([restricted[i] for i in groups[c]], tol=tol, max_iter=max_iter)
        for c in classes
    )
    return MDMModel(classes=classes, centroids=centroids, channel_subset=subset)


def mdm_predict(model: MDMModel, cov: np.ndarray) -> Hashable:
    """Class of the nearest centroid; ties go to the first declared class."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (model.dim, model.dim):
        raise ValueError(f"covariance dim {cov.shape} does not match model dim {model.dim}")
    dists = np.array([riemannian_distance(c, cov) for c in model.centroids])
    return model.classes[int(np.argmin(dists))]


@dataclass(frozen=True)
class RemovalStep:
    """One elimination step: channel removed and the distance that survives."""

    iteration: int
    removed: int
    distance: float


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of a backward-elimination run.

    `removal_order` holds one step per removed channel; `final_subset` is
    the surviving channel set; `final_loo_drops[i]` is how much the
    inter-class centroid distance falls when ``final_subset[i]`` is left
    out, which ranks the survivors by importance.
    """

    removal_order: tuple[RemovalStep, ...]
    final_subset: tuple[int, ...]
    final_loo_drops: tuple[float, ...]


def _pencil(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Generalized eigenpairs A x = lam B x with X^T B X = I, lam ascending.
    try:
        lam, x = scipy.linalg.eigh(a, b)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise ValueError("centroids must be positive definite") from None
    if lam[0] <= 0 or not np.all(np.isfinite(lam)):
        raise ValueError("centroids must be positive definite")
    return lam, x


def _leave_one_out_sq(loglam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k log^2 mu_jk`` for every channel j, where mu_j are the
    eigenvalues of the pencil (log eigenvalues `loglam`, eigenvectors `x`
    from `_pencil`) with channel j removed.

    Removing channel j restricts the pencil to the hyperplane
    ``X[j] . y = 0`` of its eigenbasis (Golub 1973), so mu_j are the zeros
    of ``f_j(z) = sum_i X[j, i]^2 / (lam_i - z)`` and ``f_j'/f_j`` has
    residue +1 at each mu_jk and -1 at each lam_i.  Hence
    ``sum_k log^2 mu_jk = sum_i log^2 lam_i + (1/2 pi i) oint log^2 z
    f_j'(z)/f_j(z) dz``, exactly also when some X[j, i] is 0 or lam repeats.
    In ``w = log z`` the integrand is ``w^2 S2/S1`` with
    ``S_p = sum_i X[j, i]^2 E_i^p`` and ``E_i = 1/expm1(log lam_i - w)``;
    its singularities are ``[log lam_1, log lam_d]`` and the translates by
    +-2 pi i.  The trapezoidal rule on the ellipse with those foci, halfway
    (in the Bernstein parameter rho) to the translates, converges like
    ``rho^-N`` (Trefethen & Weideman 2014), which fixes the node count N
    for double precision.  For a narrow spectrum that ellipse is wide
    against the interval, and the sum cancels terms of size ``|w|^2`` on
    it down to a result of the order of the squared half-length; rho is
    capped at 4, which keeps near-identical pencils as accurate as solving
    each restricted pencil.
    """
    mid = (loglam[0] + loglam[-1]) / 2.0
    # Half-length of the focal interval, floored at the rounding of log lam.
    half = max((loglam[-1] - loglam[0]) / 2.0,
               np.finfo(float).eps * max(1.0, abs(mid)))
    rho = min(np.sqrt((2.0 * np.pi + np.hypot(2.0 * np.pi, half)) / half), 4.0)
    n = int(np.ceil(np.log(1e16) / np.log(rho))) + 2
    u = rho * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    zeta = half / 2.0 * (u + 1.0 / u)  # nodes w - mid, counterclockwise
    weights = (mid + zeta) ** 2 * (half / 2.0) * (u - 1.0 / u) / n
    e = 1.0 / np.expm1((loglam - mid)[:, None] - zeta)
    sq = x * x
    return (loglam @ loglam) + (((sq @ (e * e)) / (sq @ e)) @ weights).real


def _distances(centroids: Sequence[np.ndarray], subset: Sequence[int]
               ) -> tuple[float, np.ndarray]:
    # Sum of pairwise centroid distances on `subset` (a single pair for two
    # classes), and the same sum on `subset` less each channel in turn.
    idx = np.ix_(subset, subset)
    full, loo = 0.0, np.zeros(len(subset))
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            lam, x = _pencil(centroids[i][idx], centroids[j][idx])
            loglam = np.log(lam)
            full += float(np.sqrt(loglam @ loglam))
            loo += np.sqrt(np.maximum(_leave_one_out_sq(loglam, x), 0.0))
    return full, loo


def backward_elimination(centroids: Sequence[np.ndarray], target_k: int) -> SelectionTrace:
    """Backward-elimination channel selection on centroid distance.

    `centroids` are the class centroids on the full channel set, e.g.
    ``mdm_fit(covs, labels).centroids``.  At each iteration every candidate
    channel is scored by the inter-class centroid distance on the subset
    with that channel removed, and the channel whose removal leaves the
    largest remaining distance is permanently dropped (ties: lowest channel
    index).  Repeats until `target_k` channels survive.

    Each iteration solves one generalized eigenproblem per class pair on
    the current subset and scores all candidates from it with a contour
    trace formula (`_leave_one_out_sq`), so a step costs O(d^3) rather
    than one eigenproblem per candidate.
    """
    if len(centroids) < 2:
        raise ValueError("need at least 2 class centroids")
    centroids = [_check_square_symmetric(c, "centroid") for c in centroids]
    dim = centroids[0].shape[0]
    if any(c.shape != (dim, dim) for c in centroids):
        raise ValueError("centroids differ in dimension")
    if not 2 <= target_k < dim:
        raise ValueError(f"target_k must be in [2, {dim}), got {target_k}")

    subset = list(range(dim))
    steps: list[RemovalStep] = []
    full, scores = _distances(centroids, subset)
    while len(subset) > target_k:
        # argmax returns the first maximum; subset is ascending, so ties
        # remove the lowest channel index.
        pos = int(np.argmax(scores))
        steps.append(RemovalStep(iteration=len(steps) + 1, removed=subset[pos],
                                 distance=float(scores[pos])))
        subset.pop(pos)
        full, scores = _distances(centroids, subset)

    return SelectionTrace(
        removal_order=tuple(steps),
        final_subset=tuple(subset),
        final_loo_drops=tuple(float(d) for d in full - scores),
    )


def trace_to_json(trace: SelectionTrace) -> str:
    doc = {
        "format_version": 1,
        "removal_order": [
            {"iteration": s.iteration, "removed": s.removed, "distance": s.distance}
            for s in trace.removal_order
        ],
        "final_subset": list(trace.final_subset),
        "final_loo_drops": list(trace.final_loo_drops),
    }
    return json.dumps(doc, sort_keys=True)


def trace_from_json(text: str) -> SelectionTrace:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("trace JSON must be an object")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported trace format_version: {doc.get('format_version')}")
    return SelectionTrace(
        removal_order=tuple(
            RemovalStep(int(s["iteration"]), int(s["removed"]), float(s["distance"]))
            for s in doc["removal_order"]
        ),
        final_subset=tuple(int(c) for c in doc["final_subset"]),
        final_loo_drops=tuple(float(d) for d in doc["final_loo_drops"]),
    )
