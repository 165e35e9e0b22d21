from math import erfc, sqrt

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import rankdata

from histarch import (ParameterError, build_stats_table, kruskal_wallis,
                      shared_ranks, significance_marks)
from histarch.stats import chi2_tail


# -- independent oracles ------------------------------------------------

def rank_by_scan(values):
    """Average ranks computed by an explicit sort-and-scan, no scipy."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def kw_oracle(groups):
    """Tie-corrected H re-derived from first principles."""
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    ranks = rank_by_scan(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = sum(ranks[offset:offset + len(g)])
        h += r * r / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    counts = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_sum = sum(t ** 3 - t for t in counts.values())
    correction = 1.0 - tie_sum / (n ** 3 - n)
    if correction <= 0:
        return 0.0
    return h / correction


def mwu_pvalue(a, b):
    """Two-sided normal-approximation Mann-Whitney p, tie-corrected."""
    n1, n2 = len(a), len(b)
    u = 0.0
    for x in a:
        for y in b:
            if x < y:
                u += 1.0
            elif x == y:
                u += 0.5
    n = n1 + n2
    counts = {}
    for v in list(a) + list(b):
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in counts.values()) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var == 0:
        return 1.0
    z = (u - n1 * n2 / 2.0) / sqrt(var)
    return erfc(abs(z) / sqrt(2.0))


# -- kruskal_wallis -------------------------------------------------------

def test_identical_groups_give_h_zero_p_one():
    h, p = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    assert h == 0.0 and p == 1.0
    assert kruskal_wallis([[4, 4], [4, 4, 4]]) == (0.0, 1.0)


def test_textbook_two_group_value():
    h, p = kruskal_wallis([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    assert h == pytest.approx(6.818181818, abs=1e-6)
    assert p < 0.01


def test_tie_correction_hand_value():
    # pooled ranks: 1.5 1.5 3.5 | 3.5 5.5 5.5 -> raw H 64/21, divisor 32/35
    h, _ = kruskal_wallis([[1, 1, 2], [2, 3, 3]])
    assert h == pytest.approx((12 / 42 * (6.5 ** 2 / 3 + 14.5 ** 2 / 3) - 21) / (1 - 18 / 210),
                              abs=1e-12)


def test_matches_rank_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_groups = int(rng.integers(2, 5))
        groups = [rng.integers(0, 10, rng.integers(2, 15)).astype(float).tolist()
                  for _ in range(n_groups)]
        if len({v for g in groups for v in g}) == 1:
            continue
        h, p = kruskal_wallis(groups)
        assert h == pytest.approx(kw_oracle(groups), abs=1e-9)
        assert 0.0 <= p <= 1.0
        assert h >= 0.0


def test_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    groups = [rng.integers(0, 20, 10).astype(float).tolist() for _ in range(3)]
    h1, p1 = kruskal_wallis(groups)
    transformed = [[np.exp(v / 5.0) for v in g] for g in groups]
    h2, p2 = kruskal_wallis(transformed)
    assert h1 == pytest.approx(h2, abs=1e-9)
    assert p1 == pytest.approx(p2, abs=1e-9)


def test_input_validation():
    with pytest.raises(ParameterError):
        kruskal_wallis([[1, 2, 3]])
    with pytest.raises(ParameterError):
        kruskal_wallis([[1, 2], [3]])


# -- marks ------------------------------------------------------------------

def marks_for(ref_finals, other_finals, alpha=0.05):
    finals = {("f", "ref"): list(ref_finals), ("f", "alt"): list(other_finals)}
    marks = significance_marks(finals, ["f"], ["ref", "alt"], "ref", alpha)
    return marks[("f", "alt")]


def test_identical_samples_unmarked():
    assert marks_for([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == "."


def test_disjoint_support_favoring_reference_marks_minus():
    assert marks_for([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]) == "-"


def test_disjoint_support_favoring_comparator_marks_plus():
    assert marks_for([6, 7, 8, 9, 10], [1, 2, 3, 4, 5]) == "+"


def test_marks_agree_with_mann_whitney_on_random_pairs():
    rng = np.random.default_rng(2)
    alpha = 0.05
    for _ in range(100):
        a = rng.integers(0, 12, 8).astype(float).tolist()
        b = (rng.integers(0, 12, 8) + rng.integers(0, 4)).astype(float).tolist()
        mark = marks_for(a, b, alpha)
        p_u = mwu_pvalue(a, b)
        if len(set(a + b)) == 1:
            assert mark == "."
            continue
        _, p_kw = kruskal_wallis([a, b])
        assert p_kw == pytest.approx(p_u, abs=1e-9)
        if p_u < alpha and np.median(b) < np.median(a):
            assert mark == "+"
        elif p_u < alpha and np.median(b) > np.median(a):
            assert mark == "-"
        elif p_u >= alpha:
            assert mark == "."


def test_marks_antisymmetric_under_reference_swap():
    rng = np.random.default_rng(3)
    flip = {"+": "-", "-": "+", ".": "."}
    for _ in range(50):
        a = rng.normal(0, 1, 10).tolist()
        b = rng.normal(rng.uniform(-2, 2), 1, 10).tolist()
        finals = {("f", "A"): a, ("f", "B"): b}
        m_ab = significance_marks(finals, ["f"], ["A", "B"], "A", 0.05)[("f", "B")]
        m_ba = significance_marks(finals, ["f"], ["A", "B"], "B", 0.05)[("f", "A")]
        assert m_ba == flip[m_ab]


# -- table ---------------------------------------------------------------------

def test_single_cell_table():
    finals = {("f", "hr"): [1.0, 2.0, 3.0], ("f", "cmaes"): [1.0, 2.0, 3.0]}
    table = build_stats_table(finals, ["f"], ["hr", "cmaes"], "hr", 0.05)
    cell = table.cells[("f", "hr")]
    assert (cell.best, cell.worst, cell.median) == (1.0, 3.0, 2.0)
    assert cell.mean == 2.0
    assert cell.std == pytest.approx(1.0)  # sample standard deviation


def test_identical_results_share_rank():
    finals = {("f", "hr"): [1.0, 2.0], ("f", "cmaes"): [2.0, 1.0]}
    table = build_stats_table(finals, ["f"], ["hr", "cmaes"], "hr", 0.05)
    assert table.ranks[("f", "hr")] == 1.5
    assert table.ranks[("f", "cmaes")] == 1.5


def test_rank_sums_conserved():
    rng = np.random.default_rng(4)
    algos = ["a", "b", "c", "d"]
    finals = {("f", algo): rng.normal(i, 1, 6).tolist()
              for i, algo in enumerate(algos)}
    table = build_stats_table(finals, ["f"], algos, "a", 0.05)
    total = sum(table.ranks[("f", algo)] for algo in algos)
    assert total == pytest.approx(len(algos) * (len(algos) + 1) / 2)


def test_shared_ranks_helper():
    assert shared_ranks([3.0, 1.0, 1.0]).tolist() == [3.0, 1.5, 1.5]
    assert shared_ranks([np.inf, 1.0, np.inf]).tolist() == [2.5, 1.0, 2.5]
    assert shared_ranks([-np.inf, np.inf, -np.inf, 0.0]).tolist() == [1.5, 4.0, 1.5, 3.0]
    assert shared_ranks([]).shape == (0,)


# -- edge cases ----------------------------------------------------------------

@pytest.mark.parametrize("groups", [
    [[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]],
    [[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]],
    # all NaN: the NaNs do not count as one run of ties
    [[np.nan, np.nan], [np.nan, np.nan]],
])
def test_nan_anywhere_propagates_to_h_and_p(groups):
    h, p = kruskal_wallis(groups)
    assert np.isnan(h) and np.isnan(p)


def test_nan_anywhere_makes_every_rank_nan():
    assert np.isnan(shared_ranks([1.0, np.nan, 2.0])).all()
    assert np.isnan(shared_ranks([np.nan])).all()


def test_h_zero_gives_p_one():
    # mirrored groups: equal rank sums, so H = 0 with a positive tie correction
    h, p = kruskal_wallis([[1, 2], [2, 1]])
    assert h == 0.0 and p == 1.0


# -- scipy as oracle -------------------------------------------------------------

TAIL_H = [0.0, 1e-300, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.84, 5.0, 10.0,
          30.0, 100.0, 300.0, 1e3]


@pytest.mark.parametrize("df", range(1, 9))
def test_chi2_tail_matches_regularized_upper_gamma(df):
    for h in TAIL_H:
        assert chi2_tail(h, df) == pytest.approx(gammaincc(df / 2.0, h / 2.0),
                                                 rel=1e-12, abs=1e-300), h


def test_chi2_tail_underflows_to_zero():
    assert chi2_tail(1e6, 1) == 0.0 and chi2_tail(1e6, 3) == 0.0
    assert chi2_tail(1e6, 8) == 0.0


def test_shared_ranks_bitwise_equal_to_rankdata():
    rng = np.random.default_rng(5)
    palette = np.array([-np.inf, -1.5, 0.0, 0.25, 3.0, 1e300, np.inf])
    for _ in range(500):
        n = int(rng.integers(1, 40))
        # mostly repeated palette values, some distinct ones in between
        values = np.where(rng.random(n) < 0.8, palette[rng.integers(0, palette.size, n)],
                          rng.normal(size=n))
        ours = shared_ranks(values)
        assert ours.dtype == np.float64
        assert ours.tobytes() == rankdata(values).tobytes()


# -- cells without a successful run ----------------------------------------------

def test_empty_cell_gets_nan_stats_last_rank_and_no_mark():
    finals = {("f", "hr"): [1.0, 2.0, 3.0], ("f", "a"): [], ("f", "b"): [5.0, 6.0],
              ("f", "c"): []}
    table = build_stats_table(finals, ["f"], ["hr", "a", "b", "c"], "hr", 0.05,
                              {("f", "a"): 3, ("f", "c"): 2})
    cell = table.cells[("f", "a")]
    assert (cell.n_runs, cell.n_failed) == (0, 3)
    assert all(np.isnan([cell.best, cell.worst, cell.median, cell.mean, cell.std]))
    assert [table.ranks[("f", x)] for x in ("hr", "a", "b", "c")] == [1.0, 3.5, 2.0, 3.5]
    assert table.marks[("f", "a")] == "." and table.marks[("f", "c")] == "."


def test_empty_reference_cell_marks_nothing():
    finals = {("f", "hr"): [], ("f", "a"): [1.0, 2.0, 3.0]}
    table = build_stats_table(finals, ["f"], ["hr", "a"], "hr", 0.05, {("f", "hr"): 3})
    assert table.ranks == {("f", "hr"): 2.0, ("f", "a"): 1.0}
    assert set(table.marks.values()) == {"."}
