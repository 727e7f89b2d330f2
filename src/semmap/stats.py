"""Exact and asymptotic statistical tests shared across the pipeline.

All exact tests work with log-space factorials so that tail sums stay
finite well beyond n = 170.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TestResult",
    "fisher_exact",
    "binomial_test",
    "chi_square_2x2",
    "welch_t",
    "mann_whitney_u",
]

# Relative slack when comparing point probabilities for two-sided exact
# tests: catches exact ties despite log-space rounding without ever
# pulling in a genuinely distinct hypergeometric/binomial mass.
_TIE_SLACK = 1e-12


@dataclass
class TestResult:
    statistic: float
    p_value: float
    tails: str
    method: str
    df: float | None = None
    cramers_v: float | None = None
    odds_ratio: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if not (math.isnan(self.p_value) or 0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value out of range: {self.p_value}")


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _check_tails(tails: str) -> str:
    if tails not in ("one", "two"):
        raise ValueError(f"tails must be 'one' or 'two', got {tails!r}")
    return tails


def _exact_p(log_pmf, lo: int, hi: int, obs: int, upper: bool, tails: str) -> float:
    """Exact p-value of ``obs`` over the support ``lo..hi`` of ``log_pmf``.

    Two-sided: the mass of every outcome whose point probability does not
    exceed the observed one (up to ``_TIE_SLACK``). One-sided: the tail
    from ``obs`` upward when ``upper``, else downward. Masses are summed
    in increasing outcome order; each log-mass is computed once.
    """
    if tails == "two":
        logs = [log_pmf(x) for x in range(lo, hi + 1)]
        cut = logs[obs - lo] + math.log1p(_TIE_SLACK)
        return sum(math.exp(v) for v in logs if v <= cut)
    tail = range(obs, hi + 1) if upper else range(lo, obs + 1)
    return sum(math.exp(log_pmf(x)) for x in tail)


def fisher_exact(a: int, b: int, c: int, d: int, tails: str = "two") -> TestResult:
    """Fisher's exact test on the 2x2 table [[a, b], [c, d]].

    The two-sided p-value is the sum of the probabilities of all tables
    (with the observed margins) whose point probability does not exceed
    the observed one. The one-sided p-value takes the tail in the
    direction of the observed deviation from independence.
    """
    _check_tails(tails)
    for x in (a, b, c, d):
        if x < 0 or int(x) != x:
            raise ValueError("cell counts must be non-negative integers")
    a, b, c, d = int(a), int(b), int(c), int(d)
    n = a + b + c + d
    row1, col1 = a + b, a + c
    if n == 0 or row1 == 0 or row1 == n or col1 == 0 or col1 == n:
        return TestResult(
            statistic=math.nan, p_value=1.0, tails=tails,
            method="fisher-exact", degenerate=True,
        )

    # P(X = x) for x successes in the first cell, X hypergeometric.
    def log_pmf(x: int) -> float:
        return (
            _log_comb(row1, x)
            + _log_comb(n - row1, col1 - x)
            - _log_comb(n, col1)
        )

    lo = max(0, col1 - (n - row1))
    hi = min(row1, col1)
    p = _exact_p(log_pmf, lo, hi, a, a >= row1 * col1 / n, tails)
    odds = math.inf if a * d == 0 else (b * c) / (a * d)
    return TestResult(
        statistic=odds, p_value=min(1.0, p), tails=tails,
        method="fisher-exact", odds_ratio=odds,
    )


def binomial_test(k: int, n: int, p0: float, tails: str = "two") -> TestResult:
    """Exact binomial test of k successes in n trials against rate p0.

    Two-sided p sums all outcomes whose point probability does not
    exceed that of k; one-sided takes the tail containing k.
    """
    _check_tails(tails)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")

    lp, lq = math.log(p0), math.log1p(-p0)

    def log_pmf(x: int) -> float:
        return _log_comb(n, x) + x * lp + (n - x) * lq

    p = _exact_p(log_pmf, 0, n, k, k >= n * p0, tails)
    return TestResult(
        statistic=float(k), p_value=min(1.0, p), tails=tails,
        method="binomial-exact",
    )


def _chi2_sf_df1(x: float) -> float:
    # For one degree of freedom the chi-square survival function reduces
    # to the complementary error function.
    if x <= 0:
        return 1.0
    return math.erfc(math.sqrt(x / 2.0))


def chi_square_2x2(a: int, b: int, c: int, d: int, yates: bool = True) -> TestResult:
    """Chi-square test of independence on [[a, b], [c, d]].

    Applies the Yates continuity correction by default. Also reports
    Cramer's V = sqrt(chi2 / N) and the odds ratio oriented as the odds
    of the second column in the first row relative to the second row,
    (b/a) / (d/c); a zero denominator cell yields infinity.
    """
    for x in (a, b, c, d):
        if x < 0:
            raise ValueError("cell counts must be non-negative")
    n = a + b + c + d
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if min(r1, r2, c1, c2) == 0:
        raise ValueError("chi-square undefined for a zero margin")
    diff = abs(a * d - b * c)
    if yates:
        diff = max(0.0, diff - n / 2.0)
    chi2 = n * diff * diff / (r1 * r2 * c1 * c2)
    v = math.sqrt(chi2 / n)
    odds = math.inf if a * d == 0 else (b * c) / (a * d)
    return TestResult(
        statistic=chi2,
        p_value=_chi2_sf_df1(chi2),
        tails="two",
        method="chi-square-yates" if yates else "chi-square",
        df=1.0,
        cramers_v=v,
        odds_ratio=odds,
    )


def _betacf(x: float, a: float, b: float) -> float:
    # Continued fraction for the regularized incomplete beta function
    # (modified Lentz method).
    eps, fpmin, max_iter = 1e-15, 1e-300, 300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    dd = 1.0 - qab * x / qap
    if abs(dd) < fpmin:
        dd = fpmin
    dd = 1.0 / dd
    h = dd
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # one Lentz step for the even coefficient, then one for the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            dd = 1.0 + aa * dd
            if abs(dd) < fpmin:
                dd = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            dd = 1.0 / dd
            delta = dd * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betainc_reg(x: float, a: float, b: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def _t_sf(t: float, df: float) -> float:
    # P(T > t) for Student's t with df degrees of freedom.
    if df <= 0:
        raise ValueError("df must be positive")
    x = df / (df + t * t)
    p = 0.5 * _betainc_reg(x, df / 2.0, 0.5)
    return p if t >= 0 else 1.0 - p


def welch_t(sample1, sample2, tails: str = "two") -> TestResult:
    """Welch's unequal-variance t-test with Satterthwaite degrees of freedom."""
    _check_tails(tails)
    xs = [float(v) for v in sample1]
    ys = [float(v) for v in sample2]
    n1, n2 = len(xs), len(ys)
    if n1 < 2 or n2 < 2:
        raise ValueError("welch_t needs at least two values per sample")
    m1 = sum(xs) / n1
    m2 = sum(ys) / n2
    v1 = sum((v - m1) ** 2 for v in xs) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in ys) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        if m1 == m2:
            return TestResult(0.0, 1.0, tails, "welch-t", df=float(n1 + n2 - 2),
                              degenerate=True)
        t = math.inf if m1 > m2 else -math.inf
        return TestResult(t, 0.0, tails, "welch-t", df=float(n1 + n2 - 2),
                          degenerate=True)
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 * se2 / (
        (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
    )
    tail = _t_sf(abs(t), df)
    p = 2.0 * tail if tails == "two" else tail
    return TestResult(t, min(1.0, p), tails, "welch-t", df=df)


def _midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mid
        i = j + 1
    return ranks


def _u_exact_counts(double_ranks, n1):
    # Distribution of the sample-1 doubled rank sum over all equally
    # likely assignments of n1 pooled observations, by dynamic
    # programming over the doubled (hence integer) midranks.
    dp = [dict() for _ in range(n1 + 1)]
    dp[0][0] = 1
    for r in double_ranks:
        for j in range(min(n1, len(double_ranks)), 0, -1):
            prev = dp[j - 1]
            cur = dp[j]
            for s, cnt in prev.items():
                cur[s + r] = cur.get(s + r, 0) + cnt
    return dp[n1]


def mann_whitney_u(sample1, sample2, tails: str = "two") -> TestResult:
    """Mann-Whitney U test.

    Exact (assignment-enumeration) p-values for pooled sizes up to 20,
    handled with a rank-sum distribution over doubled midranks so ties
    are exact too; a tie-corrected normal approximation with continuity
    correction beyond that.
    """
    _check_tails(tails)
    xs = [float(v) for v in sample1]
    ys = [float(v) for v in sample2]
    n1, n2 = len(xs), len(ys)
    if n1 < 1 or n2 < 1:
        raise ValueError("mann_whitney_u needs at least one value per sample")
    pooled = xs + ys
    ranks = _midranks(pooled)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    if n1 + n2 <= 20:
        double_ranks = [int(round(2 * r)) for r in ranks]
        counts = _u_exact_counts(double_ranks, n1)
        total = math.comb(n1 + n2, n1)
        # doubled rank sum threshold corresponding to the observed r1
        s_obs = int(round(2 * r1))
        le = sum(c for s, c in counts.items() if s <= s_obs)
        ge = sum(c for s, c in counts.items() if s >= s_obs)
        p_lo, p_hi = le / total, ge / total
        if tails == "two":
            p = min(1.0, 2.0 * min(p_lo, p_hi))
        else:
            p = min(p_lo, p_hi)
        method = "mann-whitney-exact"
    else:
        n = n1 + n2
        tie_groups = {}
        for v in pooled:
            tie_groups[v] = tie_groups.get(v, 0) + 1
        tie_term = sum(t ** 3 - t for t in tie_groups.values())
        var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        if var <= 0:
            return TestResult(u1, 1.0, tails, "mann-whitney-normal",
                              degenerate=True)
        diff = u1 - mu
        # continuity correction toward the mean
        if diff > 0:
            diff -= 0.5
        elif diff < 0:
            diff += 0.5
        z = diff / math.sqrt(var)
        tail = 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
        p = min(1.0, 2.0 * tail) if tails == "two" else tail
        method = "mann-whitney-normal"
    degenerate = u1 == mu and len(set(pooled)) == 1
    return TestResult(u1, p, tails, method, degenerate=degenerate)
