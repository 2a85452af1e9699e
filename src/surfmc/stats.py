"""Small statistics helpers for campaign reporting and paired tests."""

from __future__ import annotations

import math

# scipy is imported inside the functions: at the top it would make up most of
# the package's import time.


def wilson_interval(failures: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (valid at low counts)."""
    if trials <= 0:
        return (0.0, 1.0)
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + confidence / 2.0))
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def mcnemar_one_sided_pvalue(n_favor: int, n_against: int) -> float:
    """Exact one-sided McNemar p-value on paired discordant counts.

    ``n_favor`` counts trials where only the reference algorithm failed,
    ``n_against`` trials where only the candidate failed.  Small values mean
    the candidate's failure rate is credibly lower.
    """
    n = n_favor + n_against
    if n == 0:
        return 1.0
    from scipy.stats import binom

    return float(binom.sf(n_favor - 1, n, 0.5))
