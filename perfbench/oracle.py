"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions, independently of
``normdisc``: trigonometric polynomials are summed term by term as
``sum_k c_k exp(i <k, x>)`` over explicit product grids, and spectral
certificates come from ``eigvalsh`` of the Hermitian matrix
``sum_nu w_nu e(x_nu) e(x_nu)^*`` in the exponential basis, whose
eigenvalues equal those of the real-basis matrix for a symmetric frequency
set.  None of it runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def exp_table(points, freqs) -> np.ndarray:
    """(m, |Q|) table of exp(i <k, x>)."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    return np.exp(1j * (pts @ np.asarray(freqs, dtype=float).T))


def product_grid(sizes) -> np.ndarray:
    """Uniform product grid on the torus with ``sizes[j]`` nodes on axis j."""
    axes = [TWO_PI * np.arange(s) / s for s in sizes]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(sizes))


def reference_grid(freqs, oversample: int) -> np.ndarray:
    """The grid with ``oversample * (2 max|k_j| + 1)`` nodes per axis."""
    max_abs = np.abs(np.asarray(freqs)).max(axis=0)
    return product_grid([oversample * (2 * int(f) + 1) for f in max_abs])


def values(coeffs, points, freqs) -> np.ndarray:
    return exp_table(points, freqs) @ np.asarray(coeffs, dtype=complex)


def spectrum(points, weights, freqs) -> tuple[float, float]:
    """(lam_min, lam_max) of sum_nu w_nu e(x_nu) e(x_nu)^*."""
    E = exp_table(points, freqs)
    H = (np.conj(E) * np.asarray(weights, dtype=float)[:, None]).T @ E
    lam = np.linalg.eigvalsh(H)
    return float(lam[0]), float(lam[-1])


def eps_of(lam_min: float, lam_max: float) -> float:
    return max(1.0 - lam_min, lam_max - 1.0)


def l1_ratio(coeffs, points, weights, freqs, oversample: int) -> float:
    """Weighted mean of |f| over the points divided by ||f||_1 on the reference grid."""
    emp = float(np.asarray(weights) @ np.abs(values(coeffs, points, freqs)))
    true = float(np.abs(values(coeffs, reference_grid(freqs, oversample), freqs)).mean())
    return emp / true


def bss_ratio_bound(d: float) -> float:
    rd = math.sqrt(d)
    return (d + 1 + 2 * rd) / (d + 1 - 2 * rd)
