"""Marginal distribution and moments of order statistics for any family.

Given a parent :class:`~repro.distributions.Distribution` ``X`` and sample
size ``k``, the ``i``-th order statistic ``X_(i:k)`` has CDF
``I_{F(x)}(i, k-i+1)`` (regularized incomplete Beta). This module exposes
that marginal as a Distribution itself (so the whole library composes),
plus closed forms for the uniform/exponential special cases used in tests,
and the expected-arrival-count identities behind Equation 2 / Appendix C.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy import integrate, special

from ..distributions.base import Distribution
from ..errors import DistributionError
from ..rng import SeedLike, resolve_rng

__all__ = [
    "OrderStatistic",
    "expected_uniform_order_stat",
    "expected_exponential_order_stat",
    "exponential_order_stat_scores",
    "expected_arrivals",
    "expected_arrivals_given_incomplete",
]


class OrderStatistic(Distribution):
    """The marginal distribution of ``X_(i:k)`` for parent ``X``."""

    family = "orderstat"

    def __init__(self, parent: Distribution, i: int, k: int) -> None:
        if k < 1:
            raise DistributionError(f"sample size k must be >= 1, got {k}")
        if not 1 <= i <= k:
            raise DistributionError(f"rank i must be in [1, {k}], got {i}")
        self.parent = parent
        self.i = int(i)
        self.k = int(k)

    def params(self) -> Mapping[str, float]:
        out = {f"parent.{key}": v for key, v in self.parent.params().items()}
        out["i"] = float(self.i)
        out["k"] = float(self.k)
        return out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        u = np.asarray(self.parent.cdf(x), dtype=float)
        out = special.betainc(self.i, self.k - self.i + 1, np.clip(u, 0.0, 1.0))
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        # scipy.stats is imported here, not at module level: it costs
        # about a third of `import repro` and nothing else needs it.
        from scipy import stats

        u = np.asarray(self.parent.cdf(x), dtype=float)
        fu = np.asarray(self.parent.pdf(x), dtype=float)
        beta_pdf = stats.beta.pdf(np.clip(u, 0.0, 1.0), self.i, self.k - self.i + 1)
        out = beta_pdf * fu
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, p: float | np.ndarray) -> float | np.ndarray:
        p = np.asarray(p, dtype=float)
        if np.any((p < 0.0) | (p > 1.0)):
            raise DistributionError("quantile probability out of [0,1]")
        u = special.betaincinv(self.i, self.k - self.i + 1, p)
        out = self.parent.quantile(u)
        return float(out) if np.ndim(out) == 0 else np.asarray(out)

    def sample(
        self, size: int | tuple[int, ...] = 1, seed: SeedLike = None
    ) -> np.ndarray:
        """Sample via the Beta representation: U ~ Beta(i, k-i+1), X = Q(U)."""
        rng = resolve_rng(seed)
        u = rng.beta(self.i, self.k - self.i + 1, size=size)
        return np.asarray(self.parent.quantile(u))

    def mean(self) -> float:
        """E[X_(i:k)] = integral over p of Q_parent(p) Beta(i, k-i+1) density."""
        from scipy import stats

        i, k = self.i, self.k

        def integrand(p: float) -> float:
            return float(self.parent.quantile(p)) * stats.beta.pdf(p, i, k - i + 1)

        val, _ = integrate.quad(integrand, 0.0, 1.0, limit=400)
        return float(val)

    def var(self) -> float:
        from scipy import stats

        m = self.mean()
        i, k = self.i, self.k

        def integrand(p: float) -> float:
            q = float(self.parent.quantile(p))
            return (q - m) ** 2 * stats.beta.pdf(p, i, k - i + 1)

        val, _ = integrate.quad(integrand, 0.0, 1.0, limit=400)
        return float(val)

    def support(self) -> tuple[float, float]:
        return self.parent.support()


def expected_uniform_order_stat(i: int, k: int) -> float:
    """E[U_(i:k)] = i / (k+1) for U ~ Uniform(0,1)."""
    if not 1 <= i <= k:
        raise DistributionError(f"rank i must be in [1, {k}], got {i}")
    return i / (k + 1.0)


def expected_exponential_order_stat(i: int, k: int, lam: float = 1.0) -> float:
    """E[T_(i:k)] = (1/lam) * sum_{j=0}^{i-1} 1/(k-j) for Exp(lam)."""
    if not 1 <= i <= k:
        raise DistributionError(f"rank i must be in [1, {k}], got {i}")
    if lam <= 0.0:
        raise DistributionError(f"rate must be positive, got {lam}")
    return sum(1.0 / (k - j) for j in range(i)) / lam


def exponential_order_stat_scores(k: int) -> np.ndarray:
    """All k unit-rate exponential order-stat expectations (harmonic sums)."""
    if k < 1:
        raise DistributionError(f"sample size k must be >= 1, got {k}")
    inv = 1.0 / np.arange(k, 0, -1, dtype=float)
    return np.cumsum(inv)


def expected_arrivals(dist: Distribution, t: float, k: int) -> float:
    """Unconditional expected number of the k draws that are <= t: k F(t)."""
    if k < 0:
        raise DistributionError(f"k must be >= 0, got {k}")
    return k * float(dist.cdf(t))


def expected_arrivals_given_incomplete(dist: Distribution, t: float, k: int) -> float:
    """E[#arrived by t | not all k arrived] = k (F - F^k) / (1 - F^k).

    This is the Appendix-C identity behind the loss term (Equation 2): the
    deadline-miss penalty only applies when the aggregator is still waiting,
    i.e. conditioned on at least one straggler.
    """
    if k < 1:
        raise DistributionError(f"k must be >= 1, got {k}")
    big_f = float(dist.cdf(t))
    if big_f >= 1.0:
        # all arrived almost surely; conditioning event has probability 0 —
        # return the unconditional limit k-? The natural continuous limit of
        # the expression as F -> 1 is k - 1/?; we return k for safety since
        # callers multiply by P(incomplete) = 0 anyway.
        return float(k)
    fk = big_f**k
    denom = 1.0 - fk
    if denom <= 0.0:
        return float(k)
    return k * (big_f - fk) / denom
