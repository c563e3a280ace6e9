"""Riemannian geometry on SPD covariance matrices: the affine-invariant distance,
the Fréchet mean, the minimum-distance-to-mean classifier and backward-elimination
channel selection by inter-class centroid distance.  Entry points are `covariance`,
`shrink`, `frechet_mean`, `mdm_fit`, `mdm_predict` and `backward_elimination`; a
matrix a kernel cannot take raises a `MatrixError` naming it.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .montage import _json_object, _json_value
from .stats import _class_partition

__all__ = [
    "FrechetMeanError",
    "MatrixError",
    "MDMModel",
    "RemovalStep",
    "SelectionTrace",
    "SingularMatrixError",
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
#: `_require_log` rejects a spectrum with an eigenvalue below this fraction of its largest.
EIG_FLOOR_REL = 1e-12
#: Relative residual at which `_newton_direction`'s conjugate gradients stop.
_CG_RTOL = 1e-6
#: Matrices per batched call: stacked temporaries stay at ``_BLOCK x d x d``, and
#: sums run in matrix order, so every result is that of one matrix at a time.
_BLOCK = 32


class FrechetMeanError(RuntimeError):
    """Fréchet-mean iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class MatrixError(ValueError):
    """Matrix `index` of a stack, named ``what.format(j=index)``, fails for `reason`;
    a caller that knows the stack by another name calls `rename`."""

    def __init__(self, index: int, what: str, reason: str):
        super().__init__(index, what, reason)
        self.index, self.what, self.reason = index, what, reason

    def rename(self, index: int, what: str) -> None:
        """Rename it matrix `index` of the stack named `what`, in `args` too (repr, pickle)."""
        self.index, self.what = index, what
        self.args = index, what, *self.args[2:]

    def __str__(self) -> str:
        return f"{self.what.format(j=self.index)} {self.reason}"


class SingularMatrixError(MatrixError):
    """A `MatrixError` for a matrix that fails `_require_log`."""

    def __init__(self, index: int, what: str = "matrix {j}"):
        super().__init__(index, what, f"is singular: its smallest eigenvalue is below "
                         f"{EIG_FLOOR_REL:g} of its largest, or none is positive, "
                         "or one is not finite")
        self.args = index, what  # this constructor's, so that pickle can rebuild it


def clamped_eigenvalue_count() -> int:
    """0: no eigenvalue is ever clamped.  The benchmark harness still reads it."""
    return 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blocks(n: int):
    return (slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _stack(mats: Sequence[np.ndarray] | np.ndarray, what: str, dim: int | None = None
           ) -> np.ndarray:
    """`mats` as one C-contiguous float ``(n, d, d)`` array, d = `dim` or matrix 0's
    order: one memory layout for every caller, so sums run in one order."""
    if isinstance(mats, np.ndarray):
        if mats.ndim != 3:
            raise ValueError(f"expected an (n, d, d) stack, got shape {mats.shape}")
        shapes = [mats.shape[1:]]  # that of every matrix
    else:
        shapes = [np.shape(m) for m in mats]
    want = (dim, dim) if dim is not None else shapes[0] if shapes else (0, 0)
    if len(want) != 2 or want[0] != want[1]:
        raise MatrixError(0, what, f"must be square, got shape {want}")
    for j, shape in enumerate(shapes):
        if shape != want:
            raise MatrixError(j, what, f"dim {shape} does not match {want}: "
                              "matrices differ in dimension")
    return np.ascontiguousarray(mats, dtype=float).reshape(len(mats), *want)


def _check_square_symmetric(mats: Sequence[np.ndarray] | np.ndarray,
                            what: str = "matrix {j}", dim: int | None = None,
                            spd: bool = False) -> np.ndarray:
    """`_stack` of `mats`, each proven finite, symmetric and, with `spd`, by `_require_log`."""
    stack = _stack(mats, what, dim)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise MatrixError(int(np.argmin(finite)), what, "has a non-finite entry")
    for s in _blocks(len(stack)):
        b = stack[s]
        scale = np.maximum(np.abs(b).max(axis=(1, 2), initial=0.0), 1e-300)
        asym = np.abs(b - b.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
        if bad.size:
            raise MatrixError(s.start + int(bad[0]), what,
                              f"is not symmetric within {SYMMETRY_RTOL} relative")
    if spd:
        _require_log(np.linalg.eigvalsh((stack + stack.swapaxes(1, 2)) / 2.0), what)
    return stack


def _require_log(w: np.ndarray, what: str = "matrix {j}", start: int = 0) -> np.ndarray:
    """`w`, ascending spectra of one matrix or a stack, if each eigenvalue is above
    `EIG_FLOOR_REL` of its largest (never for NaN, or a largest not finite and
    positive); else `SingularMatrixError` names j + `start`.  The one logarithm rule."""
    ok = (w > EIG_FLOOR_REL * w[..., -1:]).all(axis=-1)
    if not ok.all():
        raise SingularMatrixError(start + int(np.argmin(ok)), what)
    return w


def _spd_eigh(m: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
    return _require_log(w, start=start), V


def _pencil(a: np.ndarray, b: np.ndarray, vectors: bool = False, what: str = "the matrices"):
    """Ascending eigenvalues of ``A x = lam B x``, `a` one matrix or a stack, as
    ``eigvalsh(W A W^T)`` for B's Cholesky whitener ``W = L^{-1}``; with `vectors`,
    ``(lam, W^T Y)`` for ``lam, Y = eigh(W A W^T)``, so that ``X^T B X = I``.  The
    caller proves A and B; if B's lower triangle, which may differ from the proven
    symmetric part by the asymmetry allowed, has no factor, the symmetric part is
    factored.  A computed eigenvalue not finite and positive (a pair too far apart
    for double precision) raises a `MatrixError` naming the first such pair j."""
    try:
        w = np.linalg.inv(np.linalg.cholesky(b))
    except np.linalg.LinAlgError:  # the lower triangle, not the symmetric part proven
        w = np.linalg.inv(np.linalg.cholesky((b + b.T) / 2.0))
    m = w @ a @ w.T
    lam, y = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    ok = np.isfinite(lam).all(axis=-1) & (lam[..., 0] > 0)
    if not ok.all():
        raise MatrixError(int(np.argmin(ok)), what, "are too far apart to compare in double "
                          "precision: a generalized eigenvalue is not finite and positive")
    return (lam, w.T @ y) if vectors else lam


def _spectral(m: np.ndarray, fn) -> np.ndarray:
    w, V = np.linalg.eigh((m + m.T) / 2.0)
    return (V * fn(w)) @ V.T


def _newton_direction(grad: np.ndarray, logw: np.ndarray, us: np.ndarray,
                      tol: float) -> np.ndarray:
    """Newton step xi of `frechet_mean` for its n whitened matrices
    ``W_i = U_i diag(exp(logw_i)) U_i^T`` (``us[i]``, ``logw[i]``): ``H xi = grad``
    solved by conjugate gradients from ``grad / n``.  ``H xi = sum_i U_i (G_i *
    U_i^T xi U_i) U_i^T``, elementwise in G_i, is minus the derivative of
    ``sum_i log(exp(-xi/2) W_i exp(-xi/2))`` at 0, with ``G_i[j, k] = (d/2)
    coth(d/2) >= 1`` for ``d = logw_ij - logw_ik`` (1 where d = 0), so H is
    positive definite.  CG stops at ``||r|| <= max(_CG_RTOL ||grad||, tol / 4)``:
    near the mean the absolute term lets the next residual reach `tol` in one step
    (an inexact-Newton forcing term, Eisenstat & Walker 1996)."""
    n = len(us)
    uts, gs = us.transpose(0, 2, 1), np.ones_like(us)
    for s in _blocks(n):
        half = (logw[s, :, None] - logw[s, None, :]) / 2.0
        np.divide(half, np.tanh(half), out=gs[s], where=half != 0)
    bufs = np.empty((2, min(n, _BLOCK), *grad.shape))

    def hess(xi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xi)
        for s in _blocks(n):
            a, b = bufs[:, :s.stop - s.start]
            np.matmul(np.matmul(uts[s], xi, out=a), us[s], out=b)
            b *= gs[s]
            np.matmul(np.matmul(us[s], b, out=a), uts[s], out=b)
            for term in b:  # in matrix order
                out += term
        return out

    xi = grad / n
    r = grad - hess(xi)
    p, rr = r, np.vdot(r, r)
    stop = max(_CG_RTOL * np.linalg.norm(grad), tol / 4.0) ** 2
    while rr > stop:
        hp = hess(p)
        alpha = rr / np.vdot(p, hp)
        xi, r = xi + alpha * p, r - alpha * hp
        rr, old = np.vdot(r, r), rr
        p = r + (rr / old) * p
    return xi


def covariance(epochs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Unshrunk sample covariances of epochs, one ``(n, c, c)`` array.

    `epochs` is a sequence of ``(c, t)`` arrays or one ``(n, c, t)`` array; each
    matrix has the bytes of ``np.cov`` of its epoch.  An epoch of another shape
    than epoch 0, with fewer than 2 samples or with a non-finite sample raises a
    ``ValueError`` naming ``epoch j``.
    """
    if len(epochs) == 0:
        raise ValueError("need at least one epoch")
    shape = np.shape(epochs[0])
    if not isinstance(epochs, np.ndarray):
        for j, e in enumerate(epochs):
            if np.shape(e) != shape:
                raise ValueError(f"epoch {j} has shape {np.shape(e)}, epoch 0 {shape}")
    if len(shape) != 2:
        raise ValueError(f"epoch 0 must be 2-d (channels x samples), got shape {shape}")
    if shape[1] < 2:
        raise ValueError("epoch 0 needs at least 2 samples")
    out = np.empty((len(epochs), shape[0], shape[0]))
    for s in _blocks(len(epochs)):
        x = np.array(epochs[s], dtype=float)
        finite = np.isfinite(x).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"epoch {s.start + int(np.argmin(finite))} has a non-finite "
                             "sample")
        x -= x.mean(axis=2, keepdims=True)
        np.matmul(x, x.transpose(0, 2, 1), out=out[s])
        out[s] *= 1.0 / (shape[1] - 1)
    return out


def shrink(cov: np.ndarray, shrinkage: float) -> np.ndarray:
    """``(1 - shrinkage) * S + shrinkage * (tr(S)/dim) * I`` of one matrix or of each
    in a ``(..., d, d)`` stack, as a new array with the bytes of the matrices shrunk
    one by one.  `shrinkage` must be in [0, 1); any positive value makes a
    covariance positive definite."""
    return _shrink_in_place(np.array(cov, dtype=float), shrinkage)


def _shrink_in_place(cov: np.ndarray, shrinkage: float) -> np.ndarray:
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError(f"shrinkage must be in [0, 1), got {shrinkage}")
    scale = shrinkage * (np.trace(cov, axis1=-2, axis2=-1) / cov.shape[-1])
    cov *= 1.0 - shrinkage
    cov += (scale * 0.0)[..., None, None]  # the formula's off-diagonal + 0.0: -0.0 -> +0.0
    np.einsum("...ii->...i", cov)[...] += scale[..., None]
    return cov


def riemannian_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Affine-invariant distance ``|| log(A^{-1/2} B A^{-1/2}) ||_F`` between SPD
    matrices: symmetric, zero iff A == B, invariant under congruence.  A matrix
    that fails `_check_square_symmetric` with `spd` (B at A's order), or a pair
    too far apart (`_pencil`), raises a `MatrixError` naming it."""
    a = _check_square_symmetric([a], "first matrix", spd=True)[0]
    b = _check_square_symmetric([b], "second matrix", a.shape[0], spd=True)[0]
    w = _pencil(b, a)
    return float(np.sqrt((np.log(w) ** 2).sum()))


def frechet_mean(
    mats: Sequence[np.ndarray],
    tol: float = 1e-8,
    max_iter: int = 50,
) -> np.ndarray:
    """Fréchet (Karcher) mean of SPD matrices under the affine-invariant metric.

    Newton iteration (`_newton_direction`) from the arithmetic mean M; a Newton
    iterate that does not lower the residual gives way to the plain step from the
    last accepted point.  It stops at ``|| sum_i log W_i ||_F <= tol`` for
    ``W_i = M^{-1/2} A_i M^{-1/2}``, every evaluation counting against
    `max_iter`.  `mats` is a sequence of matrices or one ``(n, d, d)`` array; both
    give the same bytes.

    Raises `MatrixError` naming matrix j of `mats` if it is not square, symmetric,
    finite and of matrix 0's shape; as `SingularMatrixError`, the first whose W_j,
    or, if M fails first, whose own spectrum fails `_require_log`.  Raises
    `FrechetMeanError`, carrying the last residual, if the residual is above `tol`
    after `max_iter` evaluations; its message gives the largest condition number
    of a W_i at the last evaluation.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    stack = _check_square_symmetric(mats)
    mean = stack.mean(axis=0)
    us, logw = np.empty_like(stack), np.empty(stack.shape[:2])
    residual = best = np.inf
    newton = False
    for _ in range(max_iter):
        try:
            w, V = _spd_eigh(mean)
        except SingularMatrixError:
            _spd_eigh(stack)  # names the first matrix that fails on its own
            raise ValueError("a Fréchet-mean iterate is singular, though no matrix is") from None
        isq = (V * (1.0 / np.sqrt(w))) @ V.T
        grad = np.zeros_like(mean)
        for s in _blocks(len(stack)):
            ws, us[s] = _spd_eigh(isq @ stack[s] @ isq, s.start)
            logw[s] = np.log(ws)
            for term in (us[s] * logw[s, None, :]) @ us[s].transpose(0, 2, 1):
                grad += term  # in matrix order
        residual = float(np.linalg.norm(grad, "fro"))
        if residual <= tol:
            return mean
        if newton and residual >= best:
            # plain step from the last accepted point, whose sq and grad are kept
            mean, newton = sq @ _spectral(accepted / len(stack), np.exp) @ sq, False
            continue
        best, accepted = residual, grad
        sq = (V * np.sqrt(w)) @ V.T
        mean = sq @ _spectral(_newton_direction(grad, logw, us, tol), np.exp) @ sq
        newton = True
    raise FrechetMeanError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e}; the "
        f"largest whitened condition number is {np.exp(np.ptp(logw, axis=1).max()):.3e})",
        residual=residual,
    )


@dataclass(frozen=True, eq=False)
class MDMModel:
    """Per-class Fréchet-mean centroids, all of one order `dim`."""

    classes: tuple[Hashable, ...]
    centroids: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.centroids[0])


def restrict_channels(cov: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Principal submatrix on the channel indices `subset`, of one covariance or of
    each in a ``(..., d, d)`` stack; an index outside ``0..d-1`` raises ``ValueError``."""
    cov, idx = np.asarray(cov, dtype=float), np.asarray(subset, dtype=int)
    if ((idx < 0) | (idx >= cov.shape[-1])).any():
        raise ValueError(f"channel subset out of range for dim {cov.shape[-1]}")
    return cov[..., idx[:, None], idx]


def mdm_fit(covs: Sequence[np.ndarray], labels: Sequence[Hashable]) -> MDMModel:
    """Minimum-distance-to-mean classifier: one `frechet_mean` centroid per class,
    at its defaults, in ``stats._class_partition`` order, which fixes the
    prediction tie-break.  `covs` is a sequence of matrices or an ``(n, d, d)``
    array; a class whose rows are contiguous in it is fitted on a view.

    From the main thread the classes run on a pool of one thread per class, up to
    the usable CPUs; from any other thread (``cli``'s subject threads) one after
    the other on it, so no pool waits on itself.  The centroids are the same
    bytes either way.  The first failing class in class order raises, a
    `MatrixError` renamed to ``covariance j`` of `covs`.
    """
    if len(covs) != len(labels):
        raise ValueError("covs and labels lengths differ")
    if len(covs) == 0:
        raise ValueError("no training examples")
    covs = _stack(covs, "covariance {j}")
    groups = _class_partition(labels)
    if len(groups) < 2:
        raise ValueError("need at least 2 classes")

    def fit(idx: list[int]) -> np.ndarray:
        # idx ascends, so its rows are contiguous when it spans len(idx) of them
        rows = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx
        try:
            return frechet_mean(covs[rows])
        except MatrixError as exc:  # named in `covs`, not in its class
            exc.rename(idx[exc.index], "covariance {j}")
            raise

    if threading.current_thread() is not threading.main_thread():
        return MDMModel(classes=tuple(groups), centroids=tuple(map(fit, groups.values())))
    with ThreadPoolExecutor(max_workers=min(len(groups), _usable_cpus())) as pool:
        centroids = tuple(pool.map(fit, groups.values()))
    return MDMModel(classes=tuple(groups), centroids=centroids)


def mdm_predict(model: MDMModel, covs: Sequence[np.ndarray]) -> list[Hashable]:
    """Class of the nearest centroid for each covariance in `covs` (a sequence of
    matrices or an ``(n, d, d)`` array); ties go to the first of ``model.classes``.
    One `_pencil` solve per centroid C gives every ``sum log^2 eig(X, C)``.  The
    centroids, then the covariances, must pass `_check_square_symmetric` with
    `spd` at the model's order, or a `MatrixError` names the first that fails
    (``centroid k``, ``covariance j``), as it does a pair too far apart; no failing
    matrix is scored."""
    centroids = _check_square_symmetric(model.centroids, "centroid {j}", model.dim, spd=True)
    stack = _check_square_symmetric(covs, "covariance {j}", model.dim, spd=True)
    w = np.array([_pencil(stack, c, what=f"covariance {{j}} and centroid {k}")
                  for k, c in enumerate(centroids)])
    sq = (np.log(w) ** 2).sum(axis=-1)
    return [model.classes[k] for k in np.argmin(sq, axis=0)]


@dataclass(frozen=True)
class RemovalStep:
    """One elimination step: channel removed and the distance that survives."""

    iteration: int
    removed: int
    distance: float


@dataclass(frozen=True)
class SelectionTrace:
    """A backward-elimination run: one step per removed channel, the surviving
    `final_subset`, and `final_loo_drops[i]`, how much the inter-class distance
    falls when ``final_subset[i]`` is left out."""

    removal_order: tuple[RemovalStep, ...]
    final_subset: tuple[int, ...]
    final_loo_drops: tuple[float, ...]


def _leave_one_out_sq(loglam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k log^2 mu_jk`` for every channel j, mu_j the eigenvalues of the pencil
    (log eigenvalues `loglam`, eigenvectors `x` from `_pencil`) without channel j.

    Removing channel j restricts the pencil to the hyperplane ``X[j] . y = 0`` of
    its eigenbasis (Golub 1973), so mu_j are the zeros of ``f_j(z) = sum_i
    X[j, i]^2 / (lam_i - z)`` and ``f_j'/f_j`` has residue +1 at each mu_jk and -1
    at each lam_i.  Hence ``sum_k log^2 mu_jk = sum_i log^2 lam_i + (1/2 pi i)
    oint log^2 z f_j'(z)/f_j(z) dz``, exactly also when some X[j, i] is 0 or lam
    repeats.  In ``w = log z`` the integrand is ``w^2 S2/S1`` with ``S_p = sum_i
    X[j, i]^2 E_i^p`` and ``E_i = 1/expm1(log lam_i - w)``; its singularities are
    ``[log lam_1, log lam_d]`` and the translates by +-2 pi i.  The trapezoidal
    rule on the ellipse with those foci, halfway (in the Bernstein parameter rho)
    to the translates, converges like ``rho^-N`` (Trefethen & Weideman 2014),
    which fixes the node count N for double precision.  For a narrow spectrum
    that ellipse is wide against the interval, and the sum cancels terms of size
    ``|w|^2`` down to the order of the squared half-length; rho is capped at 4,
    which keeps near-identical pencils as accurate as solving each restricted one.
    """
    mid = (loglam[0] + loglam[-1]) / 2.0
    # Half-length of the focal interval, floored at 64 eps |mid|: a log lam that the
    # rounding of `mid` puts past an end then slows the sum only to ~1e-16 error.
    half = max((loglam[-1] - loglam[0]) / 2.0,
               64 * np.finfo(float).eps * max(1.0, abs(mid)))
    rho = min(np.sqrt((2.0 * np.pi + np.hypot(2.0 * np.pi, half)) / half), 4.0)
    n = int(np.ceil(np.log(1e16) / np.log(rho))) + 2
    u = rho * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    zeta = half / 2.0 * (u + 1.0 / u)  # nodes w - mid, counterclockwise
    weights = (mid + zeta) ** 2 * (half / 2.0) * (u - 1.0 / u) / n
    e = 1.0 / np.expm1((loglam - mid)[:, None] - zeta)
    sq = x * x
    return (loglam @ loglam) + (((sq @ (e * e)) / (sq @ e)) @ weights).real


def _distances(centroids: np.ndarray, subset: Sequence[int]) -> tuple[float, np.ndarray]:
    # summed pairwise centroid distance on `subset`, and on `subset` less each channel
    cut = restrict_channels(centroids, subset)
    full, loo = 0.0, np.zeros(len(subset))
    for i in range(len(cut)):
        for j in range(i + 1, len(cut)):
            lam, x = _pencil(cut[i], cut[j], True, f"centroid {i} and centroid {j}")
            loglam = np.log(lam)
            full_sq = float(loglam @ loglam)
            full += float(np.sqrt(full_sq))
            # a square within rounding of 0 is 0; its root would read ~sqrt(eps) * full
            sq = _leave_one_out_sq(loglam, x)
            loo += np.sqrt(np.where(sq > 16 * np.finfo(float).eps * full_sq, sq, 0.0))
    return full, loo


def backward_elimination(centroids: Sequence[np.ndarray], target_k: int) -> SelectionTrace:
    """Backward-elimination channel selection on inter-class centroid distance.

    `centroids` are the class centroids on the full channel set, e.g.
    ``mdm_fit(covs, labels).centroids``.  Each step drops the channel whose
    removal leaves the largest summed pairwise distance (ties: the lowest channel
    index) until `target_k` in [1, d] survive.  A step costs O(d^3): one pencil per
    class pair scores every candidate (`_leave_one_out_sq`).  Fewer than 2
    centroids or another `target_k` raise ``ValueError``; a centroid that fails
    `_check_square_symmetric` with `spd`, or a pair too far apart, a `MatrixError`.
    """
    if len(centroids) < 2:
        raise ValueError("need at least 2 class centroids")
    centroids = _check_square_symmetric(centroids, "centroid {j}", spd=True)
    dim = centroids.shape[1]
    if not 1 <= target_k <= dim:
        raise ValueError(f"target_k must be in [1, {dim}], got {target_k}")

    subset = list(range(dim))
    steps: list[RemovalStep] = []
    full, scores = _distances(centroids, subset)
    while len(subset) > target_k:
        # argmax takes the first maximum and subset ascends: ties drop the lowest index
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
    """The trace in `text`; a ``ValueError`` unless it passes `montage._json_object`
    and each field `_json_value` (channels and iterations integers, distances and
    drops numbers), its steps are numbered 1..m in order, they and its
    survivors take each channel ``0..n-1`` once and each survivor has one drop."""
    doc = _json_object(text, "trace")

    def field(obj: dict, key: str, kind: str):
        return _json_value(obj.get(key), kind, f"trace {key}")

    def items(key: str, kind: str) -> tuple:
        return tuple(_json_value(v, kind, f"trace {key}") for v in field(doc, key, "array"))

    if field(doc, "format_version", "integer") != 1:
        raise ValueError(f"unsupported trace format_version: {doc['format_version']}")
    trace = SelectionTrace(
        removal_order=tuple(RemovalStep(field(s, "iteration", "integer"),
                                        field(s, "removed", "integer"),
                                        field(s, "distance", "number"))
                            for s in items("removal_order", "object")),
        final_subset=items("final_subset", "integer"),
        final_loo_drops=items("final_loo_drops", "number"),
    )
    steps = trace.removal_order
    if [s.iteration for s in steps] != list(range(1, len(steps) + 1)):
        raise ValueError("trace iterations must be 1..n in order")
    channels = [s.removed for s in steps] + list(trace.final_subset)
    if sorted(channels) != list(range(len(channels))):
        raise ValueError(f"trace must remove or keep each channel 0..{len(channels) - 1} "
                         f"exactly once, not {sorted(channels)}")
    if len(trace.final_loo_drops) != len(trace.final_subset):
        raise ValueError(f"trace must give one drop per survivor, not "
                         f"{len(trace.final_loo_drops)} for {len(trace.final_subset)}")
    return trace
