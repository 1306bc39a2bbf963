"""Entropy-number curves and empirical covering estimates.

Curves here bound entropy numbers eps_k(W) of function classes W: the
smallest radius at which W can be covered by 2^k balls.  Every curve has the
same two-regime shape

    bound(k) = c * L * (D / k)        for k <= knee,
    bound(k) = c * L * 2^(-k / knee)  for k >  knee,

with a dimension proxy D, a logarithmic factor L, and knee = 2 D for classes
over complex scalars (continuous join) or D for real scalars (a factor-2
drop at the knee).  The L1 chaining budget in :mod:`normdisc.l1disc`
consumes these curves level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EntropyCurve:
    dimension_proxy: float
    log_factor: float
    constant: float
    field: str = "complex"  # complex: knee at 2D, continuous; real: knee at D

    def __post_init__(self):
        if self.dimension_proxy <= 0 or self.constant <= 0 or self.log_factor <= 0:
            raise ValueError("curve parameters must be positive")
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")

    @property
    def knee(self) -> float:
        return (2.0 if self.field == "complex" else 1.0) * self.dimension_proxy

    def bound(self, k: float) -> float:
        if k < 1:
            raise ValueError("entropy index k must be at least 1")
        amp = self.constant * self.log_factor
        if k <= self.knee:
            return amp * self.dimension_proxy / k
        return amp * 2.0 ** (-k / self.knee)

    def log2_bound(self, k: float) -> float:
        """log2 of bound(k); safe far past the knee where bound underflows."""
        if k < 1:
            raise ValueError("entropy index k must be at least 1")
        amp = math.log2(self.constant * self.log_factor)
        if k <= self.knee:
            return amp + math.log2(self.dimension_proxy / k)
        return amp - k / self.knee


def entropy_curve_trig(size: int, n: int, c4: float = 1.0) -> EntropyCurve:
    """Curve for the unit coefficient-l1 ball of a level-n cross of given size.

    The logarithmic factor n^(3/2) reflects the depth of the dyadic-block
    decomposition; the knee sits at twice the size because the coefficients
    are complex.
    """
    return EntropyCurve(dimension_proxy=float(size), log_factor=float(n) ** 1.5, constant=c4, field="complex")


def conditional_entropy_curve(N: int, big_b: float) -> EntropyCurve:
    """Curve B * min(N/k, 2^(-k/N)) assumed for a conditional budget."""
    return EntropyCurve(dimension_proxy=float(N), log_factor=1.0, constant=big_b, field="real")


def combine_sigma_to_entropy(r: float, N: int, k: float, field: str = "complex", c: float = 1.0) -> float:
    """Entropy bound transferred from an m-term approximation rate m^(-r).

    For k <= N the bound is c (ln(2N/k)/k)^r (natural log); past N the decay
    turns exponential, 2^(-k/(2N)) over complex scalars and 2^(-k/N) over
    real ones, scaled by N^(-r).
    """
    if r <= 0 or k < 1:
        raise ValueError("need r > 0 and k >= 1")
    if k <= N:
        return c * (math.log(2.0 * N / k) / k) ** r
    denom = 2.0 * N if field == "complex" else float(N)
    return c * N ** (-r) * 2.0 ** (-k / denom)


def empirical_covering(values: np.ndarray, eps: float) -> list[int]:
    """Greedy packing of value tables at separation strictly above eps.

    ``values`` holds one function per row, tabulated on a common point set;
    distance is the maximum absolute difference.  Returns the indices of a
    maximal eps-separated subset in scan order.  Its size lower-bounds the
    covering number at radius eps/2, so ``log2(len(...))`` is a certified
    lower estimate of the entropy profile.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("values must be (n_functions, n_points)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    picked: list[int] = []
    kept: list[np.ndarray] = []
    for i, row in enumerate(values):
        if all(np.abs(row - q).max() > eps for q in kept):
            picked.append(i)
            kept.append(row)
    return picked
