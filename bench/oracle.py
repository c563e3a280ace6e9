"""Reference answers for the benchmark's output checks.

These share no code with the program: EMD is the optimum of the full flow
polytope solved by HiGHS through `scipy.optimize.linprog`, and Wilcoxon
p-values come from `scipy.stats.wilcoxon`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial.distance import cdist
from scipy.stats import PermutationMethod, rankdata, wilcoxon

import gen

EMD_RTOL = 1e-9
P_RTOL = 1e-9
#: Common total mass the `emd` command rebalances both maps to in raw mode.
REBALANCE_TO = 21.0
#: The program needs this many nonzero paired differences to report a p-value.
MIN_PAIRS = 5


def read_map(path: Path) -> np.ndarray:
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return np.array(rows, dtype=float)


def emd(p: np.ndarray, q: np.ndarray, mass: str = "raw") -> float:
    """Exact EMD between two grid maps, as the `emd` command defines it.

    Raw mode scales both maps to `REBALANCE_TO` total mass; normalized mode
    to unit mass.  Ground cost is the Euclidean distance between cells.
    """
    total = REBALANCE_TO if mass == "raw" else 1.0
    pm = p.ravel() * (total / p.sum())
    qm = q.ravel() * (total / q.sum())
    n = p.shape[0]
    src, dst = np.flatnonzero(pm > 0), np.flatnonzero(qm > 0)
    cost = cdist(np.column_stack(divmod(src, n)), np.column_stack(divmod(dst, n)))
    m, k = cost.shape
    # Row i of the flow matrix sums to supply i; column j sums to demand j.
    rows = sp.kron(sp.eye(m), np.ones((1, k)))
    cols = sp.kron(np.ones((1, m)), sp.eye(k))
    res = linprog(cost.ravel(), A_eq=sp.vstack([rows, cols]).tocsc(),
                  b_eq=np.concatenate([pm[src], qm[dst]]), bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def close(got, want: float, rtol: float) -> bool:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= rtol * abs(want) + 1e-12


def montage_rank() -> dict[str, int]:
    """Packaged layout order: cells read row by row, left to right."""
    order = sorted(gen.MONTAGE, key=lambda m: (m[1], m[2]))
    return {name: i for i, (name, _, _) in enumerate(order)}


def cohort_maps(counts: dict[str, int], k: int = 21) -> tuple[np.ndarray, np.ndarray]:
    """The (binary top-k, weighted counts) maps `emd --cohorts` scores.

    Ties in count go to the electrode earlier in the layout.
    """
    rank = montage_rank()
    ranked = sorted(counts, key=lambda n: (-counts[n], rank[n]))
    return gen.binary_mass(ranked[:k]), gen.weighted_mass({n: float(c) for n, c in counts.items()})


def wilcoxon_p(x: list[float], y: list[float]) -> float | None:
    """Exact two-sided signed-rank p-value, or None below `MIN_PAIRS`.

    Zero differences are dropped first.  scipy's ``method="exact"`` assumes
    untied ranks; with tied absolute differences the exact null is the
    enumeration of all 2^n sign flips, which `PermutationMethod` performs
    when given at least that many resamples.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    keep = x != y
    x, y = x[keep], y[keep]
    n = len(x)
    if n < MIN_PAIRS:
        return None
    if len(np.unique(rankdata(np.abs(x - y)))) == n:
        return float(wilcoxon(x, y, method="exact").pvalue)
    return float(wilcoxon(x, y, method=PermutationMethod(n_resamples=2 ** n)).pvalue)


def isclose_p(got, want: float | None) -> bool:
    if want is None:
        return got is None
    return got is not None and math.isfinite(got) and close(got, want, P_RTOL)
