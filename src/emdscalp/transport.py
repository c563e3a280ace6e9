"""Exact earth mover's distance between grid spatial maps.

The distance is the optimum of the classical transportation problem: move
the mass of one map into the other at minimum total cost, where the ground
cost is the pairwise distance between grid cells.  The problem is solved
exactly as a linear program with scipy's HiGHS, not by an entropic
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .montage import SpatialMap

__all__ = [
    "TransportPlan",
    "EMDResult",
    "TransportError",
    "ground_cost",
    "emd",
    "rebalance",
    "solve_transport",
]

#: relative tolerance for the raw-mode equal-total-mass precondition
MASS_RTOL = 1e-9


class TransportError(RuntimeError):
    """The LP solver did not return an optimal transport plan."""


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal mass flows with the marginals they satisfy.

    ``flows[i, j]`` is the mass moved from source cell i to destination
    cell j; row sums reproduce ``src_mass`` and column sums ``dst_mass``.
    """

    flows: np.ndarray
    src_mass: np.ndarray
    dst_mass: np.ndarray


@dataclass(frozen=True, eq=False)
class EMDResult:
    distance: float
    plan: TransportPlan


def ground_cost(
    src: Sequence[tuple[int, int]],
    dst: Sequence[tuple[int, int]],
    metric: str = "euclidean",
) -> np.ndarray:
    """Ground-cost matrix between two lists of grid-cell coordinates.

    `metric` is ``euclidean`` or ``manhattan``, in grid-cell units.
    """
    if len(src) == 0 or len(dst) == 0:
        raise ValueError("coordinate lists must be nonempty")
    a = np.asarray(src, dtype=float).reshape(len(src), 2)
    b = np.asarray(dst, dtype=float).reshape(len(dst), 2)
    diff = a[:, None, :] - b[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Exact solve of the balanced transportation problem.

    Minimises ``sum(costs * flows)`` over nonnegative flows whose row sums
    equal `supply` and column sums equal `demand`, as one HiGHS linear
    program with a sparse equality matrix.

    Parameters
    ----------
    supply : ndarray, shape (m,)
        Positive source masses.
    demand : ndarray, shape (k,)
        Positive destination masses; total must match `supply` within
        ``MASS_RTOL`` relative (it is then balanced exactly).
    costs : ndarray, shape (m, k)
        Nonnegative ground costs.

    Returns
    -------
    flows : ndarray, shape (m, k)
        An optimal flow.

    Raises
    ------
    TransportError
        If HiGHS does not report an optimal solution.
    """
    a = np.array(supply, dtype=float)
    b = np.array(demand, dtype=float)
    C = np.asarray(costs, dtype=float)
    m, k = C.shape
    if a.shape != (m,) or b.shape != (k,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("supply and demand entries must be positive")
    ta, tb = a.sum(), b.sum()
    if abs(ta - tb) > MASS_RTOL * max(ta, tb):
        raise ValueError(f"unbalanced problem: totals {ta} vs {tb}")
    b *= ta / tb

    from scipy import sparse
    from scipy.optimize import linprog

    # Flow (i, j) is variable i * k + j; it enters row constraint i and
    # column constraint m + j.
    var = np.arange(m * k)
    a_eq = sparse.csr_array(
        (np.ones(2 * m * k), (np.concatenate([var // k, m + var % k]), np.tile(var, 2))),
        shape=(m + k, m * k),
    )
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise TransportError(f"HiGHS transport solve failed: {res.message}")
    return np.clip(res.x.reshape(m, k), 0.0, None)


def emd(
    p: SpatialMap,
    q: SpatialMap,
    metric: str = "euclidean",
    mass_mode: str = "raw",
) -> EMDResult:
    """Exact earth mover's distance between two spatial maps.

    The minimum over all transport plans of the total mass-times-distance
    moved, subject to both marginal constraints.  In ``raw`` mode the two
    totals must already agree within ``MASS_RTOL`` relative (rebalance
    first otherwise); ``normalized`` divides each map by its total for
    probability semantics.

    Returns the distance together with an optimal plan expanded back onto
    the full flattened grid (row-major cell order).
    """
    if p.n != q.n:
        raise ValueError(f"grid order mismatch: {p.n} vs {q.n}")
    tp, tq = p.total, q.total
    if tp <= 0 or tq <= 0:
        raise ValueError("both maps must have positive total mass")
    if mass_mode == "raw":
        if abs(tp - tq) > MASS_RTOL * max(tp, tq):
            raise ValueError(
                f"unequal total mass in raw mode ({tp} vs {tq}); rebalance first"
            )
        pm = p.mass.ravel().copy()
        qm = q.mass.ravel().copy()
    elif mass_mode == "normalized":
        pm = p.mass.ravel() / tp
        qm = q.mass.ravel() / tq
    else:
        raise ValueError(f"unknown mass_mode {mass_mode!r}")

    n = p.n
    # Zero-mass cells are dropped from the solver's node set; the plan is
    # re-expanded onto the full grid afterwards.
    src_idx = np.flatnonzero(pm > 0)
    dst_idx = np.flatnonzero(qm > 0)
    src_cells = [(int(c) // n, int(c) % n) for c in src_idx]
    dst_cells = [(int(c) // n, int(c) % n) for c in dst_idx]
    cost = ground_cost(src_cells, dst_cells, metric=metric)
    flows = solve_transport(pm[src_idx], qm[dst_idx], cost)
    distance = float((cost * flows).sum())

    full = np.zeros((n * n, n * n))
    full[np.ix_(src_idx, dst_idx)] = flows
    plan = TransportPlan(flows=full, src_mass=pm, dst_mass=qm * (pm.sum() / qm.sum()))
    return EMDResult(distance=distance, plan=plan)


def rebalance(
    p: SpatialMap, q: SpatialMap, target_total: float
) -> tuple[SpatialMap, SpatialMap]:
    """Scale both maps so each totals `target_total`; zeros stay zero."""
    if not 0 < target_total < np.inf:
        raise ValueError(f"target_total must be positive and finite, got {target_total}")
    tp, tq = p.total, q.total
    if tp <= 0 or tq <= 0:
        raise ValueError("cannot rebalance a zero-mass map")
    return (
        SpatialMap(p.n, p.mass * (target_total / tp)),
        SpatialMap(q.n, q.mass * (target_total / tq)),
    )
