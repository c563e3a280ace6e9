"""Exact earth mover's distance between grid spatial maps.

The distance is the optimum of the classical transportation problem: move
the mass of one map into the other at minimum total cost, where the ground
cost is the pairwise distance between grid cells.  The problem is solved
exactly, not by an entropic approximation, by a transportation simplex in
numpy (`solve_transport`), and every solve ends with an optimality
certificate from linear-programming duality that does not rely on the
pivoting (`_certify`).  Its tolerances are relative to the total mass and
the largest cost, so the distance scales with the masses at any scale.
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

#: relative tolerance on masses: for the raw-mode equal-total precondition,
#: and for a plan's row and column sums in the certificate
MASS_RTOL = 1e-9
#: the lowest reduced cost an optimal basis may have, relative to max(C, 1)
_REDUCED_RTOL = 1e-12
#: the largest primal - dual gap the certificate accepts, relative
_GAP_RTOL = 1e-9


class TransportError(RuntimeError):
    """A transport plan failed its optimality certificate."""


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


def _dantzig_pivots(m: int, k: int) -> int:
    """Pivots `_simplex` prices by Dantzig's rule before Bland's: m * k, far
    more than the at most m + k that solves of grid maps were seen to take."""
    return m * k


def _least_cost_basis(a: np.ndarray, b: np.ndarray, costs: np.ndarray
                      ) -> tuple[dict[int, float], list[set[int]]]:
    """Starting basis of the matrix-minimum (least-cost) rule: cells in
    ascending cost order (ties row-major) each take the most flow their row
    and column have left, and close one of them; the last open row and the
    last open column stay open until they meet.  That gives m + k - 1 cells,
    some possibly of zero flow, forming a spanning tree of the m row nodes
    ``0..m-1`` and the k column nodes ``m..m+k-1``.

    Returns the flows by cell ``i * k + j`` and each node's tree neighbours.
    """
    m, k = costs.shape
    left_a, left_b = a.tolist(), b.tolist()
    row_open, col_open = [True] * m, [True] * k
    n_rows, n_cols = m, k
    flow: dict[int, float] = {}
    adj: list[set[int]] = [set() for _ in range(m + k)]
    for cell in np.argsort(costs, axis=None, kind="stable").tolist():
        i, j = divmod(cell, k)
        if not (row_open[i] and col_open[j]):
            continue
        if n_cols == 1 or (n_rows > 1 and left_a[i] <= left_b[j]):
            x = max(left_a[i], 0.0)  # the last row's remainder may round below 0
            left_b[j] -= x
            row_open[i], n_rows = False, n_rows - 1
        else:
            x = left_b[j]
            left_a[i] -= x
            col_open[j], n_cols = False, n_cols - 1
        flow[cell] = x
        adj[i].add(m + j)
        adj[m + j].add(i)
        if n_rows + n_cols == 1:
            break
    return flow, adj


def _tree(adj: list[set[int]], costs: list[list[float]], m: int
          ) -> tuple[list[float], list[int], list[int]]:
    """Potentials, parents and depths of the basis tree rooted at row 0.

    The potentials are the duals: row i's is u_i, column j's (node m + j)
    v_j, with u_0 = 0 and ``u_i + v_j = costs[i][j]`` on every tree cell.
    """
    n = len(adj)
    pot, parent, depth = [0.0] * n, [-1] * n, [0] * n
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != parent[x]:
                parent[y], depth[y] = x, depth[x] + 1
                pot[y] = (costs[x][y - m] if x < m else costs[y][x - m]) - pot[x]
                stack.append(y)
    return pot, parent, depth


def _simplex(a: np.ndarray, b: np.ndarray, costs: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transportation simplex from `_least_cost_basis`: optimal flows and the
    duals u, v of the final tree.

    Each pivot takes the tree potentials afresh, enters the cell of most
    negative reduced cost ``c_ij - u_i - v_j`` (Dantzig), finds its cycle by
    walking both ends up the tree to their common ancestor, and moves flow
    around it; the leaving cell is the lowest-numbered one among those that
    block.  Optimality is a reduced cost no lower than ``-1e-12 max(C, 1)``.
    After `_dantzig_pivots` pivots, the entering cell becomes the
    lowest-numbered one of negative reduced cost, which is Bland's rule and
    cannot cycle.
    """
    m, k = costs.shape
    cost_rows = costs.tolist()
    flow, adj = _least_cost_basis(a, b, costs)
    eps = _REDUCED_RTOL * max(costs.max(), 1.0)
    pivots = 0
    while True:
        pot, parent, depth = _tree(adj, cost_rows, m)
        u, v = np.array(pot[:m]), np.array(pot[m:])
        reduced = costs - u[:, None] - v
        if pivots < _dantzig_pivots(m, k):
            enter = int(reduced.argmin())
            if reduced.flat[enter] >= -eps:
                break
        else:
            negative = np.flatnonzero(reduced < -eps)
            if not negative.size:
                break
            enter = int(negative[0])
        p, q = divmod(enter, k)
        # The cycle is the entering cell plus the tree paths from row p and
        # from column q up to their common ancestor.  Each path's first cell
        # shares p's row or q's column with the entering cell, so it loses
        # flow, and the signs alternate from there.
        x, y, up_p, up_q = p, m + q, [], []
        while depth[x] > depth[y]:
            up_p.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up_q.append(y)
            y = parent[y]
        while x != y:
            up_p.append(x)
            up_q.append(y)
            x, y = parent[x], parent[y]

        def cell(node: int) -> int:  # the tree cell from `node` to its parent
            up = parent[node]
            return node * k + up - m if node < m else up * k + node - m

        losing = [cell(z) for z in up_p[0::2] + up_q[0::2]]
        gaining = [cell(z) for z in up_p[1::2] + up_q[1::2]]
        theta = min(flow[c] for c in losing)
        leave = min(c for c in losing if flow[c] == theta)
        for c in losing:
            flow[c] -= theta
        for c in gaining:
            flow[c] += theta
        flow[enter] = theta
        del flow[leave]
        i, j = divmod(leave, k)
        adj[i].discard(m + j)
        adj[m + j].discard(i)
        adj[p].add(m + q)
        adj[m + q].add(p)
        pivots += 1
    flows = np.zeros((m, k))
    flows.flat[list(flow)] = list(flow.values())
    return flows, u, v


def _certify(a: np.ndarray, b: np.ndarray, costs: np.ndarray, flows: np.ndarray,
             u: np.ndarray, v: np.ndarray) -> None:
    """Prove `flows` optimal by weak duality, or raise a `TransportError`
    naming the check that fails.

    The flows must be finite and nonnegative, with row sums `a` and column
    sums `b` within ``MASS_RTOL`` of the total.  The duals u, v must be
    feasible: every reduced cost ``c_ij - u_i - v_j`` at least
    ``-1e-12 max(C, 1)``.  The primal cost ``sum C x`` must be within 1e-9
    of the dual ``a.u + b.v``, relative to the magnitude of the terms the two
    sums add up.  Then no plan costs less than the dual, up to those
    tolerances.
    """
    total = a.sum()
    if not (np.isfinite(flows).all() and (flows >= 0).all()):
        raise TransportError("certificate: flows are not finite and nonnegative")
    off = max(np.abs(flows.sum(axis=1) - a).max(), np.abs(flows.sum(axis=0) - b).max())
    if not off <= MASS_RTOL * total:
        raise TransportError(f"certificate: marginals off by {off / total:.3e} of the "
                             f"total mass, above {MASS_RTOL:g}")
    lowest = (costs - u[:, None] - v).min()
    if not lowest >= -_REDUCED_RTOL * max(costs.max(), 1.0):
        raise TransportError(f"certificate: reduced cost {lowest:.3e} below "
                             f"-{_REDUCED_RTOL:g} max(C, 1)")
    primal, dual = float((costs * flows).sum()), float(a @ u + b @ v)
    scale = primal + float(a @ np.abs(u) + b @ np.abs(v))
    if not abs(primal - dual) <= _GAP_RTOL * scale:
        raise TransportError(f"certificate: duality gap {primal - dual:.3e} (primal "
                             f"{primal:.17g}, dual {dual:.17g}) above {_GAP_RTOL:g} relative")


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Exact solve of the balanced transportation problem.

    Minimises ``sum(costs * flows)`` over nonnegative flows whose row sums
    equal `supply` and column sums equal `demand`, by the transportation
    simplex (`_simplex`), and proves the result optimal (`_certify`).

    Parameters
    ----------
    supply : ndarray, shape (m,)
        Positive finite source masses.
    demand : ndarray, shape (k,)
        Positive finite destination masses; total must match `supply` within
        ``MASS_RTOL`` relative (it is then balanced exactly).
    costs : ndarray, shape (m, k)
        Finite nonnegative ground costs.

    Returns
    -------
    flows : ndarray, shape (m, k)
        An optimal flow.

    Raises
    ------
    TransportError
        If the optimality certificate fails.
    """
    a = np.array(supply, dtype=float)
    b = np.array(demand, dtype=float)
    C = np.asarray(costs, dtype=float)
    m, k = C.shape
    if a.shape != (m,) or b.shape != (k,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if not all(((x > 0) & np.isfinite(x)).all() for x in (a, b)):
        raise ValueError("supply and demand entries must be positive and finite")
    if not np.isfinite(C).all():
        raise ValueError("costs must be finite")
    ta, tb = a.sum(), b.sum()
    if abs(ta - tb) > MASS_RTOL * max(ta, tb):
        raise ValueError(f"unbalanced problem: totals {ta} vs {tb}")
    b *= ta / tb
    flows, u, v = _simplex(a, b, C)
    _certify(a, b, C, flows, u, v)
    return flows


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
