"""Diagonal Gaussians, analytic KL, Gauss-Hermite quadrature, density derivatives.

Everything downstream (policies, critics, oracles) leans on this module, so
the conventions are spelled out once here:

* covariances are diagonal and carried as per-dimension log variances,
* smoothing an arbitrary function f against N(center, var) is done with
  Gauss-Hermite quadrature after the change of variables
  x = center + sqrt(2 var) t, so E[f] = pi^{-1/2} sum_i w_i f(x_i),
* ``density_derivative`` returns derivatives of N(x | a, var) with respect
  to the location a, which are the kernels of the derivative versions of
  the smoothed Bellman operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
SQRT_PI = float(np.sqrt(np.pi))


@dataclass
class DiagGaussian:
    """Gaussian with diagonal covariance exp(log_var)."""

    mean: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.log_var = np.atleast_1d(np.asarray(self.log_var, dtype=float))
        if self.mean.shape != self.log_var.shape:
            raise ValueError(
                f"mean shape {self.mean.shape} != log_var shape {self.log_var.shape}"
            )
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.log_var)):
            raise ValueError("non-finite Gaussian parameters")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def var(self) -> np.ndarray:
        return np.exp(self.log_var)

    @property
    def std(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var)


def log_density(g: DiagGaussian, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != g.mean.shape:
        raise ValueError(f"point shape {x.shape} != Gaussian dim {g.mean.shape}")
    z2 = (x - g.mean) ** 2 / g.var
    return float(-0.5 * np.sum(LOG_2PI + g.log_var + z2))


def density(g: DiagGaussian, x: np.ndarray) -> float:
    return float(np.exp(log_density(g, x)))


def sample(g: DiagGaussian, rng: np.random.Generator) -> np.ndarray:
    return g.mean + g.std * rng.standard_normal(g.dim)


def kl_divergence(p: DiagGaussian, q: DiagGaussian) -> float:
    """KL(p || q) for diagonal Gaussians.

    Per dimension: 0.5 * (exp(lp - lq) + (mp - mq)^2 / exp(lq) - 1 + lq - lp).
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch {p.dim} != {q.dim}")
    lp, lq = p.log_var, q.log_var
    term = np.exp(lp - lq) + (p.mean - q.mean) ** 2 / np.exp(lq) - 1.0 + lq - lp
    return float(0.5 * np.sum(term))


def kl_terms(
    mean_p: np.ndarray,
    log_var_p: np.ndarray,
    mean_q: np.ndarray,
    log_var_q: np.ndarray,
) -> np.ndarray:
    """Rowwise KL for batched means with shared log variances."""
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


def density_derivative(k: int, x: np.ndarray, a: np.ndarray, var: np.ndarray):
    """Derivative of order k of N(x | a, diag(var)) with respect to the location a.

    k=0 returns the density, k=1 the gradient vector
    N * Sigma^{-1} (x - a), and k=2 the Hessian matrix
    N * (Sigma^{-1} (x - a)(x - a)^T Sigma^{-1} - Sigma^{-1}).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if var.shape == (1,) and x.shape[0] > 1:
        var = np.full(x.shape, var[0])
    if x.shape != a.shape or x.shape != var.shape:
        raise ValueError("x, a and var must share a common dimension")
    g = DiagGaussian(a, np.log(var))
    n = density(g, x)
    if k == 0:
        return n
    u = (x - a) / var
    if k == 1:
        return n * u
    if k == 2:
        return n * (np.outer(u, u) - np.diag(1.0 / var))
    raise ValueError(f"unsupported derivative order k={k}")
