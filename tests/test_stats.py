import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from semmap.stats import (
    binomial_test,
    chi_square_2x2,
    fisher_exact,
    mann_whitney_u,
    welch_t,
)


# ---------------------------------------------------------------------------
# independent oracles


def fisher_two_sided_oracle(a, b, c, d):
    """Exact-fraction enumeration over the hypergeometric support."""
    n = a + b + c + d
    row1, col1 = a + b, a + c
    lo = max(0, col1 - (n - row1))
    hi = min(row1, col1)
    denom = math.comb(n, col1)
    pmf = {
        x: Fraction(math.comb(row1, x) * math.comb(n - row1, col1 - x), denom)
        for x in range(lo, hi + 1)
    }
    obs = pmf[a]
    return float(sum(p for p in pmf.values() if p <= obs))


def binomial_two_sided_oracle(k, n, p0):
    pmf = [Fraction(math.comb(n, x)) * Fraction(p0).limit_denominator(10**9) ** x
           * (1 - Fraction(p0).limit_denominator(10**9)) ** (n - x)
           for x in range(n + 1)]
    obs = pmf[k]
    return float(sum(p for p in pmf if p <= obs))


def chi2_plain_oracle(a, b, c, d):
    """Textbook sum of (O-E)^2/E without correction."""
    n = a + b + c + d
    rows = [a + b, c + d]
    cols = [a + c, b + d]
    obs = [[a, b], [c, d]]
    total = 0.0
    for i in range(2):
        for j in range(2):
            e = rows[i] * cols[j] / n
            total += (obs[i][j] - e) ** 2 / e
    return total


def midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def mwu_two_sided_oracle(s1, s2):
    """All C(n1+n2, n1) group assignments, compared on the rank sum."""
    pooled = list(s1) + list(s2)
    n1 = len(s1)
    ranks = midranks(pooled)
    r_obs = sum(ranks[:n1])
    le = ge = total = 0
    for pick in combinations(range(len(pooled)), n1):
        r = sum(ranks[i] for i in pick)
        total += 1
        if r <= r_obs + 1e-9:
            le += 1
        if r >= r_obs - 1e-9:
            ge += 1
    return min(1.0, 2.0 * min(le / total, ge / total))


# ---------------------------------------------------------------------------
# fisher


def test_fisher_patep_not_significant():
    res = fisher_exact(26, 4, 21, 9)
    assert res.p_value > 0.01
    assert res.p_value == pytest.approx(fisher_two_sided_oracle(26, 4, 21, 9), abs=1e-12)


def test_fisher_symmetric_table_p_one():
    assert fisher_exact(5, 5, 5, 5).p_value == pytest.approx(1.0, abs=1e-12)


def test_fisher_matches_enumeration_all_small_tables():
    for a in range(0, 7):
        for b in range(0, 7):
            for c in range(0, 7):
                for d in range(0, 7):
                    if min(a + b, c + d, a + c, b + d) == 0:
                        continue
                    if a + b > 12 or c + d > 12 or a + c > 12 or b + d > 12:
                        continue
                    got = fisher_exact(a, b, c, d).p_value
                    want = fisher_two_sided_oracle(a, b, c, d)
                    assert got == pytest.approx(want, abs=1e-12), (a, b, c, d)


def test_fisher_property_matches_enumeration():
    hyp = pytest.importorskip("hypothesis")
    cell = hyp.strategies.integers(0, 60)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(hyp.strategies.tuples(cell, cell, cell, cell))
    @hyp.example((26, 4, 21, 9))
    @hyp.example((5, 5, 5, 5))
    @hyp.example((9, 2, 3, 8))
    @hyp.example((0, 0, 3, 4))
    def check(table):
        a, b, c, d = table
        res = fisher_exact(a, b, c, d)
        if min(a + b, c + d, a + c, b + d) == 0:
            assert res.degenerate and res.p_value == 1.0
        else:
            assert res.p_value == pytest.approx(fisher_two_sided_oracle(a, b, c, d), abs=1e-12)

    check()


def test_fisher_zero_margin_degenerate():
    res = fisher_exact(0, 0, 3, 4)
    assert res.degenerate and res.p_value == 1.0


def test_fisher_row_swap_invariance():
    # the area-dictionary pruning tests counts (c, k - c) against (ref,
    # k - ref) in either row order and needs the same p to the last bit:
    # every table with both rows holding k <= 40, (9, 2, 3, 8) among
    # them, then drawn tables up to k = 400
    tables = [(k, a, c) for k in range(1, 41) for a in range(k + 1) for c in range(k + 1)]
    rng = random.Random(36)
    for _ in range(1000):
        k = rng.randint(41, 400)
        tables.append((k, rng.randint(0, k), rng.randint(0, k)))
    for k, a, c in tables:
        assert fisher_exact(a, k - a, c, k - c).p_value == \
            fisher_exact(c, k - c, a, k - a).p_value, (k, a, c)


def test_fisher_one_sided_directional():
    res = fisher_exact(9, 1, 2, 8, tails="one")
    # upper tail of the first cell
    want = sum(
        math.comb(10, x) * math.comb(10, 11 - x) / math.comb(20, 11)
        for x in range(9, 11)
    )
    assert res.p_value == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# binomial


def test_binomial_center_p_one():
    assert binomial_test(50, 100, 0.5).p_value == pytest.approx(1.0, abs=1e-9)


def test_binomial_published_imperfective_rate():
    res = binomial_test(101, 171, 0.5)
    assert res.p_value <= 0.05
    assert abs(res.p_value - 0.01) <= 0.02


@pytest.mark.parametrize("k,n,p0", [(0, 5, 0.5), (3, 7, 0.25), (7, 11, 0.6), (4, 9, 0.5)])
def test_binomial_matches_enumeration(k, n, p0):
    got = binomial_test(k, n, p0).p_value
    want = binomial_two_sided_oracle(k, n, p0)
    assert got == pytest.approx(want, abs=1e-9)


def test_binomial_property_matches_enumeration():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    p0 = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    case = st.integers(0, 120).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n), p0))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(case)
    @hyp.example((0, 5, 0.5))
    @hyp.example((3, 7, 0.25))
    @hyp.example((7, 11, 0.6))
    @hyp.example((4, 9, 0.5))
    @hyp.example((50, 100, 0.5))
    def check(case):
        k, n, p0 = case
        want = binomial_two_sided_oracle(k, n, p0)
        assert binomial_test(k, n, p0).p_value == pytest.approx(want, abs=1e-9)

    check()


def test_binomial_one_sided():
    got = binomial_test(8, 10, 0.5, tails="one").p_value
    want = sum(math.comb(10, x) * 0.5 ** 10 for x in range(8, 11))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# chi-square


def test_chi2_published_marianus_table():
    res = chi_square_2x2(121, 806, 216, 53)
    assert res.statistic == pytest.approx(462.54, abs=0.5)
    assert res.cramers_v == pytest.approx(0.62, abs=0.01)
    assert res.odds_ratio == pytest.approx(27.15, abs=0.01)
    assert res.p_value < 0.01


def test_chi2_proportional_table():
    res = chi_square_2x2(10, 20, 30, 60, yates=False)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-9)


def test_chi2_uncorrected_matches_textbook_oracle():
    import random

    rng = random.Random(7)
    for _ in range(50):
        a, b, c, d = (rng.randint(1, 200) for _ in range(4))
        got = chi_square_2x2(a, b, c, d, yates=False).statistic
        assert got == pytest.approx(chi2_plain_oracle(a, b, c, d), abs=1e-9)


def test_chi2_zero_margin_errors():
    with pytest.raises(ValueError):
        chi_square_2x2(0, 0, 5, 5)


def test_chi2_row_swap_keeps_p():
    r1 = chi_square_2x2(12, 5, 3, 9)
    r2 = chi_square_2x2(3, 9, 12, 5)
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
    assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)


# ---------------------------------------------------------------------------
# welch / mann-whitney


def test_identical_samples_degenerate():
    t = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t.statistic == pytest.approx(0.0)
    assert t.p_value == pytest.approx(1.0, abs=1e-9)
    u = mann_whitney_u([2.0, 2.0], [2.0, 2.0])
    assert u.statistic == pytest.approx(2.0)  # n1*n2/2
    assert u.p_value == pytest.approx(1.0)
    assert u.degenerate


def test_welch_zero_variance_equal_means_degenerate():
    res = welch_t([2.0, 2.0], [2.0, 2.0])
    assert res.p_value == 1.0 and res.degenerate


def test_binomial_preconditions():
    with pytest.raises(ValueError):
        binomial_test(5, 3, 0.5)
    with pytest.raises(ValueError):
        binomial_test(1, 3, 1.0)


def test_welch_extreme_separation():
    res = welch_t([1, 2, 3], [101, 102, 103])
    assert res.p_value < 0.01


def test_mwu_extreme_separation_small_sample_floor():
    # with 3 vs 3 the exact two-sided p cannot go below 2/C(6,3) = 0.1
    res = mann_whitney_u([1, 2, 3], [101, 102, 103])
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(0.1, abs=1e-12)


def test_mwu_extreme_separation_larger_sample():
    res = mann_whitney_u(list(range(10)), list(range(100, 110)))
    assert res.p_value < 0.01


def test_welch_against_known_value():
    # classic two-sample case, checked against the Satterthwaite formula
    x = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6]
    y = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1]
    res = welch_t(x, y)
    m1 = sum(x) / len(x)
    m2 = sum(y) / len(y)
    v1 = sum((v - m1) ** 2 for v in x) / (len(x) - 1)
    v2 = sum((v - m2) ** 2 for v in y) / (len(y) - 1)
    want_t = (m1 - m2) / math.sqrt(v1 / len(x) + v2 / len(y))
    assert res.statistic == pytest.approx(want_t, rel=1e-12)
    assert 0.0 < res.p_value < 1.0


@pytest.mark.parametrize("s1,s2", [
    ([1, 2, 3], [2, 3, 4]),
    ([1, 1, 2, 5], [2, 2, 3]),
    ([3, 1, 4, 1, 5], [9, 2, 6, 5]),
    ([1, 2], [1, 2, 3, 4, 5]),
    ([7, 7, 7], [7, 7, 8]),
])
def test_mwu_exact_matches_enumeration(s1, s2):
    got = mann_whitney_u(s1, s2).p_value
    want = mwu_two_sided_oracle(s1, s2)
    assert got == pytest.approx(want, abs=1e-12)


def test_mwu_one_sided_half_of_two_sided_without_ties():
    s1, s2 = [1, 4, 6], [2, 3, 5, 7]
    one = mann_whitney_u(s1, s2, tails="one").p_value
    two = mann_whitney_u(s1, s2, tails="two").p_value
    assert two == pytest.approx(min(1.0, 2 * one), abs=1e-12)


def test_mwu_sample_swap_keeps_two_sided_p():
    s1, s2 = [1, 5, 3, 7], [2, 8, 9]
    assert mann_whitney_u(s1, s2).p_value == pytest.approx(
        mann_whitney_u(s2, s1).p_value, abs=1e-12)


def test_mwu_normal_branch_reasonable():
    s1 = list(range(30))
    s2 = [v + 0.5 for v in range(30)]
    res = mann_whitney_u(s1, s2)
    assert res.method == "mann-whitney-normal"
    assert res.p_value > 0.5


def t_upper_tail_oracle(t, df, steps=4000):
    """P(T > |t|) for Student's t: one half less Simpson's integral of
    the density over [0, |t|]."""
    norm = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def density(x):
        return norm * (1.0 + x * x / df) ** (-(df + 1) / 2)

    h = abs(t) / steps
    area = density(0.0) + density(abs(t)) + sum(
        (4 if k % 2 else 2) * density(k * h) for k in range(1, steps))
    return 0.5 - area * h / 3


# at df 10 the incomplete beta switches to its complement below |t| = sqrt(2.5)
@pytest.mark.parametrize("t", [0.7, 1.2, -1.4, 1.9, -3.5])
@pytest.mark.parametrize("tails", ["one", "two"])
def test_welch_p_against_integrated_t_density(t, tails):
    # two samples of six with equal variances give Satterthwaite df 10
    base = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    shift = abs(t) * math.sqrt(2 * 3.5 / 6)
    shifted = [v + shift for v in base]
    res = welch_t(shifted, base, tails) if t > 0 else welch_t(base, shifted, tails)
    assert res.statistic == pytest.approx(t, rel=1e-12)
    assert res.df == pytest.approx(10.0, rel=1e-12)
    tail = t_upper_tail_oracle(res.statistic, res.df)
    assert res.p_value == pytest.approx(2 * tail if tails == "two" else tail, abs=1e-12)


@pytest.mark.parametrize("tails", ["one", "two"])
def test_welch_zero_variance_unequal_means_is_infinite_t(tails):
    up = welch_t([3.0, 3.0, 3.0], [1.0, 1.0], tails)
    down = welch_t([1.0, 1.0], [3.0, 3.0, 3.0], tails)
    assert (up.statistic, up.p_value) == (math.inf, 0.0) and up.degenerate
    assert (down.statistic, down.p_value) == (-math.inf, 0.0) and down.degenerate


def test_mwu_normal_branch_u_above_its_mean():
    s1 = [float(v) for v in range(3, 15)]
    s2 = [v + 0.5 for v in range(12)] + [3.0]
    res = mann_whitney_u(s1, s2)
    n1, n2 = len(s1), len(s2)
    u = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in s1 for y in s2)
    assert res.method == "mann-whitney-normal" and res.statistic == u > n1 * n2 / 2
    # one tie, 3.0 in both samples: tie term 2**3 - 2
    n = n1 + n2
    var = n1 * n2 / 12 * ((n + 1) - 6 / (n * (n - 1)))
    z = (u - n1 * n2 / 2 - 0.5) / math.sqrt(var)
    assert res.p_value == pytest.approx(math.erfc(z / math.sqrt(2)), rel=1e-12)
    assert res.p_value == mann_whitney_u(s2, s1).p_value
