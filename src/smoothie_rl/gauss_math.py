"""Analytic KL between diagonal Gaussians, and Gauss-Hermite quadrature.

Conventions:

* covariances are diagonal and carried as per-dimension log variances,
* smoothing an arbitrary function f against N(center, var) is done with
  Gauss-Hermite quadrature after the change of variables
  x = center + sqrt(2 var) t, so E[f] = pi^{-1/2} sum_i w_i f(x_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT_PI = float(np.sqrt(np.pi))


def kl_terms(
    mean_p: np.ndarray,
    log_var_p: np.ndarray,
    mean_q: np.ndarray,
    log_var_q: np.ndarray,
) -> np.ndarray:
    """Rowwise KL(p || q) for batched means with shared log variances.

    Per dimension: 0.5 * (exp(lp - lq) + (mp - mq)^2 / exp(lq) - 1 + lq - lp),
    summed over the last axis.
    """
    diff2 = (mean_p - mean_q) ** 2 / np.exp(log_var_q)
    per_dim = np.exp(log_var_p - log_var_q) + diff2 - 1.0 + log_var_q - log_var_p
    return 0.5 * np.sum(per_dim, axis=-1)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for weight function exp(-t^2)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=32)
def hermite_rule(order: int) -> QuadratureRule:
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def gh_quadrature(f, center: float, variance: float, order: int = 64) -> float:
    """E[f(x)] for x ~ N(center, variance), by Gauss-Hermite quadrature.

    ``f`` is called once, on the array of nodes, and must return one value
    per node.
    """
    if not np.isfinite(variance) or variance <= 0.0:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    rule = hermite_rule(order)
    pts = center + np.sqrt(2.0 * variance) * rule.nodes
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError(f"integrand returned shape {vals.shape} for nodes of shape {pts.shape}")
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite integrand values in quadrature")
    return float(np.dot(rule.weights, vals) / SQRT_PI)
