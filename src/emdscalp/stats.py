"""Evaluation metrics and paired hypothesis testing.

Per-class recall with both overall-accuracy conventions (support-weighted
and macro), the majority-class chance level, cohort subject selection, the
Wilcoxon signed-rank test (exact sign enumeration up to n=20, tie-corrected
normal approximation beyond), and cohort mean/SD summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

__all__ = [
    "EvalResult",
    "PairedTestResult",
    "evaluate",
    "chance_level",
    "select_subjects",
    "wilcoxon_signed_rank",
    "cohort_summary",
]

EXACT_LIMIT = 20


@dataclass(frozen=True)
class EvalResult:
    """Per-class recall plus the two overall-accuracy conventions.

    `overall` is support-weighted (plain accuracy, the convention that
    reproduces published cohort tables); `overall_macro` is the unweighted
    mean of per-class recalls.
    """

    per_class_recall: dict[Hashable, float]
    overall: float
    overall_macro: float
    support: dict[Hashable, int]
    n_test: int


@dataclass(frozen=True)
class PairedTestResult:
    """Signed-rank test outcome; statistic is the positive-rank sum W+."""

    statistic: float
    p_value: float
    n_pairs: int
    zeros_dropped: int
    mode: str


def _class_partition(labels: Sequence[Hashable]) -> dict[Hashable, list[int]]:
    """The package's one class order: the sorted distinct labels (so they
    must be mutually orderable), each with its indices in `labels`, ascending."""
    return {c: [i for i, lab in enumerate(labels) if lab == c] for c in sorted(set(labels))}


def evaluate(preds: Sequence[Hashable], labels: Sequence[Hashable]) -> EvalResult:
    """Per-class recall and overall accuracy of a prediction run, with the
    classes of `labels` in `_class_partition` order."""
    if len(preds) != len(labels):
        raise ValueError("preds and labels lengths differ")
    if not labels:
        raise ValueError("no examples to evaluate")
    recall: dict[Hashable, float] = {}
    support: dict[Hashable, int] = {}
    correct_total = 0
    for c, idx in _class_partition(labels).items():
        hits = sum(1 for i in idx if preds[i] == c)
        recall[c] = hits / len(idx)
        support[c] = len(idx)
        correct_total += hits
    n = len(labels)
    return EvalResult(
        per_class_recall=recall,
        overall=correct_total / n,
        overall_macro=float(np.mean(list(recall.values()))),
        support=support,
        n_test=n,
    )


def chance_level(labels: Sequence[Hashable]) -> float:
    """Chance-level accuracy of a test label set: the majority-class
    proportion."""
    n = len(labels)
    if n == 0:
        raise ValueError("labels must be nonempty")
    return max(map(len, _class_partition(labels).values())) / n


def select_subjects(results: Mapping[str, EvalResult], chance: Mapping[str, float],
                    margin: float = 0.10) -> tuple[str, ...]:
    """Subjects whose overall accuracy beats chance by at least `margin`.

    The boundary counts as selected (>=).  Raising the margin never adds
    subjects.
    """
    if set(results) != set(chance):
        raise ValueError("results and chance maps must share the same subjects")
    return tuple(
        s for s in sorted(results) if results[s].overall >= chance[s] + margin
    )


def _midranks(a: np.ndarray) -> np.ndarray:
    # 1-based ranks; a tie group spanning sorted positions [start, end)
    # shares their mean rank (start + end + 1) / 2, an exact half.
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _exact_pvalue(ranks: np.ndarray, w_plus: float) -> float:
    # Null distribution of W+ over all 2^n sign assignments, enumerated by
    # meet-in-the-middle; symmetric around sum(ranks)/2 even with midranks.
    half = len(ranks) // 2

    def all_sums(rs: np.ndarray) -> np.ndarray:
        sums = np.zeros(1)
        for r in rs:
            sums = np.concatenate([sums, sums + r])
        return sums

    w = np.add.outer(all_sums(ranks[:half]), all_sums(ranks[half:])).ravel()
    mu = ranks.sum() / 2.0
    observed = abs(w_plus - mu)
    return float(np.mean(np.abs(w - mu) >= observed - 1e-12))


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences receive
    midranks.  With n <= `EXACT_LIMIT` nonzero differences the p-value
    enumerates all sign assignments (mode ``exact``); beyond, it uses the
    tie-corrected Gaussian with ``Var(W+) = sum(ranks^2) / 4`` (mode
    ``normal-approx``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    d = x - y
    zeros = int(np.count_nonzero(d == 0))
    d = d[d != 0]
    n = len(d)
    if n == 0:
        raise ValueError("all differences are zero; test undefined")
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= EXACT_LIMIT:
        mode = "exact"
        p = _exact_pvalue(ranks, w_plus)
    else:
        mode = "normal-approx"
        mu = ranks.sum() / 2.0
        sigma = np.sqrt((ranks**2).sum() / 4.0)
        z = (w_plus - mu) / sigma
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return PairedTestResult(
        statistic=w_plus, p_value=min(p, 1.0), n_pairs=n, zeros_dropped=zeros, mode=mode
    )


def cohort_summary(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0 for a single value).

    The sample convention is the one that reproduces published cohort
    tables.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    sd = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return float(arr.mean()), sd
