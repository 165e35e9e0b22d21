"""Rank tables and nonparametric significance tests for run results.

Ranking follows the comparison-table convention: per problem, algorithms
are ranked by median final error (lower is better) and exact ties share
the averaged rank. Pairwise significance against a reference algorithm
uses the two-group Kruskal-Wallis test, which is a monotone transform of
the Mann-Whitney U statistic.

Both need only numpy and ``math``. Ranks come from a stable sort and a
scan over runs of equal values, so averaged ranks are exact
half-integers. The p value is the chi-square upper tail with integer
``df``: the regularized upper incomplete gamma Q(df/2, x) at x = h/2, in
closed form

    even df:  Q = sum over j = 0, 1, ..., df/2 - 1 of exp(-x) x^j / j!
    odd df:   Q = erfc(sqrt(x))
                  + sum over j = 1/2, 3/2, ..., df/2 - 1 of exp(-x) x^j / Gamma(j + 1)

Each term is ``exp(-x + j log x - lgamma(j + 1))``, so a large ``h``
underflows to 0 and never overflows. Two groups (df = 1) give
``erfc(sqrt(h/2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MARK_BETTER = "+"
MARK_WORSE = "-"
MARK_NONE = "."


def chi2_tail(h: float, df: int) -> float:
    """P(X >= h) for X chi-square with integer ``df`` >= 1 (closed form above)."""
    x = h / 2.0
    if x == 0.0:
        return 1.0
    log_x = math.log(x)
    tail, j = (math.erfc(math.sqrt(x)), 0.5) if df % 2 else (0.0, 0.0)
    while j < df / 2.0:
        tail += math.exp(-x + j * log_x - math.lgamma(j + 1.0))
        j += 1.0
    return tail


def _average_ranks(a: np.ndarray):
    """Average ranks of the NaN-free 1-D ``a`` and the size of each run of
    equal values."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, a.size))
    ranks = np.empty(a.size)
    # the run at sorted positions s .. s+n-1 holds ranks s+1 .. s+n
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks, sizes


def shared_ranks(values) -> np.ndarray:
    """Ranks of ``values`` ascending, exact ties sharing the averaged rank.

    A NaN anywhere makes every rank NaN.
    """
    a = np.asarray(values, dtype=float).ravel()
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    return _average_ranks(a)[0]


def kruskal_wallis(groups) -> tuple[float, float]:
    """Tie-corrected H statistic and chi-square upper-tail p value.

    All observations identical across all groups is a defined edge case:
    H = 0, p = 1. A NaN anywhere gives (nan, nan).
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise ParameterError("need at least two groups")
    if any(a.size < 2 for a in arrays):
        raise ParameterError("every group needs at least two observations")
    pooled = np.concatenate(arrays)
    if np.isnan(pooled).any():
        return math.nan, math.nan
    n_total = pooled.size
    ranks, counts = _average_ranks(pooled)
    h = 0.0
    offset = 0
    for a in arrays:
        r_sum = ranks[offset:offset + a.size].sum()
        h += r_sum * r_sum / a.size
        offset += a.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    correction = 1.0 - float(np.sum(counts ** 3 - counts)) / (n_total ** 3 - n_total)
    if correction <= 0.0:
        return 0.0, 1.0
    h = max(h / correction, 0.0)
    return float(h), chi2_tail(h, len(arrays) - 1)


@dataclass
class CellStats:
    best: float
    worst: float
    median: float
    mean: float
    std: float
    n_runs: int
    n_failed: int = 0

    @classmethod
    def from_finals(cls, finals, n_failed: int = 0) -> "CellStats":
        """Summary of a cell's final errors; NaN throughout when it has none.
        An infinite final makes ``std`` NaN, without numpy's warning about
        the inf - inf it computes."""
        a = np.asarray(finals, dtype=float)
        if a.size == 0:
            return cls(math.nan, math.nan, math.nan, math.nan, math.nan, 0, n_failed)
        with np.errstate(invalid="ignore"):
            std = float(a.std(ddof=1)) if a.size > 1 else 0.0
        return cls(float(a.min()), float(a.max()), float(np.median(a)),
                   float(a.mean()), std, int(a.size), n_failed)


@dataclass
class StatsTable:
    problems: list
    algorithms: list
    reference: str
    alpha: float
    cells: dict  # (problem, algorithm) -> CellStats
    ranks: dict  # (problem, algorithm) -> float
    marks: dict  # (problem, algorithm) -> str ('.' for the reference itself)


def significance_marks(finals: dict, problems, algorithms, reference: str,
                       alpha: float) -> dict:
    """Pairwise marks vs. the reference per problem.

    '+' means the algorithm's median error beats the reference at the
    given level, '-' means it loses, '.' means no significant difference
    (also the mark of the reference itself and of any pair in which a
    side has fewer than two runs).
    """
    if reference not in algorithms:
        raise ParameterError(f"reference algorithm {reference!r} not in table")
    marks = {}
    for prob in problems:
        ref_finals = finals[(prob, reference)]
        for algo in algorithms:
            sample = finals[(prob, algo)]
            mark = MARK_NONE
            if (algo != reference and len(ref_finals) >= 2 and len(sample) >= 2
                    and kruskal_wallis([ref_finals, sample])[1] < alpha):
                med, ref_med = float(np.median(sample)), float(np.median(ref_finals))
                if med < ref_med:
                    mark = MARK_BETTER
                elif med > ref_med:
                    mark = MARK_WORSE
            marks[(prob, algo)] = mark
    return marks


def build_stats_table(finals: dict, problems, algorithms, reference: str,
                      alpha: float, failed: dict | None = None) -> StatsTable:
    """Aggregate per-run final errors into the rank-and-marks table.

    A cell without a successful run gets NaN statistics and ranks after
    every cell that has runs, sharing the averaged rank with the other
    empty cells of its problem.
    """
    failed = failed or {}
    cells = {(prob, algo): CellStats.from_finals(finals[(prob, algo)],
                                                 failed.get((prob, algo), 0))
             for prob in problems for algo in algorithms}
    ranks = {}
    for prob in problems:
        ran = [algo for algo in algorithms if cells[(prob, algo)].n_runs]
        ranked = dict(zip(ran, shared_ranks([cells[(prob, a)].median for a in ran])))
        empty_rank = (len(ran) + 1 + len(algorithms)) / 2.0
        for algo in algorithms:
            ranks[(prob, algo)] = float(ranked.get(algo, empty_rank))
    marks = significance_marks(finals, problems, algorithms, reference, alpha)
    return StatsTable(list(problems), list(algorithms), reference, alpha,
                      cells, ranks, marks)
