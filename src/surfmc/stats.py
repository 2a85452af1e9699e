"""Small statistics helpers: campaign reporting, paired tests and the numerics
of the free-energy decoder and the oracle.

scipy is no runtime dependency.  ``simpson`` and ``logsumexp`` transcribe
scipy 1.17.1's ``integrate.simpson`` (odd point counts) and
``special.logsumexp`` (real input, no weights) op for op, so their results are
bit-equal to scipy's; the tests check that against scipy when it is installed.
``simpson`` is split in two, the grid's factors (``simpson_terms``) and the
sum over the samples (``simpson_sum``), with the same operations in the same
order.
"""

from __future__ import annotations

import math

import numpy as np

# float(scipy.stats.norm.ppf(0.975)): the two-sided 95% normal quantile
Z_95 = 1.959963984540054


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (valid at low counts)."""
    if trials <= 0:
        return (0.0, 1.0)
    z = Z_95
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def mcnemar_one_sided_pvalue(n_favor: int, n_against: int) -> float:
    """Exact one-sided McNemar p-value on paired discordant counts.

    ``n_favor`` counts trials where only the reference algorithm failed,
    ``n_against`` trials where only the candidate failed.  Small values mean
    the candidate's failure rate is credibly lower.  The value is the binomial
    tail P(X >= n_favor), X ~ Bin(n, 1/2), as an exact integer sum divided by
    2^n as an int, so it is correctly rounded at any n.  By symmetry the tail
    is the sum of C(n, j) over j <= n_against, or 2^n minus the sum over
    j < n_favor; the shorter of the two is summed.
    """
    n = n_favor + n_against
    if n == 0:
        return 1.0
    head, c = 0, 1
    for j in range(min(n_favor, n_against + 1)):
        head += c
        c = c * (n - j) // (j + 1)
    tail = head if n_against < n_favor else 2**n - head
    return tail / 2**n


def simpson(y, x) -> float:
    """Composite Simpson integral of samples y at points x (odd count >= 3)."""
    y = np.asarray(y)
    x = np.asarray(x)
    if x.shape != y.shape:
        raise ValueError("simpson needs an odd count >= 3 of samples, one per point")
    return simpson_sum(y, simpson_terms(x))


def simpson_terms(x) -> tuple[np.ndarray, ...]:
    """The factors of ``simpson`` that depend on the points x alone, computed
    as scipy computes them; a caller that integrates many samples on one grid
    computes them once, and ``simpson_sum`` adds the samples."""
    x = np.asarray(x)
    n = len(x)
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson needs an odd count >= 3 of samples, one per point")
    h = np.diff(x)
    h0 = h[0 : n - 2 : 2].astype(float, copy=False)
    h1 = h[1 : n - 1 : 2].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    return (
        hsum / 6.0,
        2.0 - np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0),
        hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0),
        2.0 - h0divh1,
    )


def simpson_sum(y, terms: tuple[np.ndarray, ...]) -> float:
    """``simpson`` of the samples y on the grid of ``terms`` (``simpson_terms``)."""
    y = np.asarray(y)
    scale, c0, c1, c2 = terms
    n = len(y)
    if n != 2 * len(scale) + 1:
        raise ValueError("simpson needs an odd count >= 3 of samples, one per point")
    y0, y1, y2 = y[0 : n - 2 : 2], y[1 : n - 1 : 2], y[2:n:2]
    return float(np.sum(scale * (y0 * c0 + y1 * c1 + y2 * c2)))


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a non-empty real 1-D array, without overflow.

    The maxima are taken out of the sum: log1p(s / m) + log(m) + max, with m
    the number of maxima and s the sum of the other exp(a - max).  A result
    that is not finite falls back to the direct log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max.astype(a.dtype), keepdims=True, dtype=a.dtype)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])
