"""Dictionaries of atoms used by the greedy solvers.

Atoms live in coefficient coordinates with respect to a fixed ambient
orthonormal basis, so L2 inner products of functions reduce to Euclidean
inner products of columns:

* complex exponential coordinates (basis ``exp(i<k,x>)``, k in Q) for
  dictionaries built directly from a frequency set,
* real coordinates (basis ``u_1 .. u_N``) for dictionaries built from an
  :class:`~normdisc.spaces.OrthonormalSystem`.

A dictionary's field is that of its atoms: complex atoms are complex
coordinates.  Kernel translates are taken at the nodes of a
:func:`delta_net`, itself a tensor rule.

The main families:

* :func:`exponential_dict`        the ambient basis itself,
* :func:`shifted_kernel_dict`     normalized Dirichlet-kernel translates
  (complex coordinates),
* :func:`kernel_shift_dict`       the same translates in real coordinates,
  scaled to unit norm via 1/sqrt(N),
* :func:`scaled_kernel_dict`      kernel translates scaled by 1/sqrt(K2 N),
  so that <h, atom> = h(y)/sqrt(K2 N),
* :func:`scaled_basis_dict`       signed basis elements ±u_i/sqrt(K2),
* :func:`symmetrize`              appends the negated copy of every atom.

All atoms have L2 norm at most one; selection helpers break ties toward the
lowest atom index so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    TWO_PI,
    FrequencySet,
    OrthonormalSystem,
    Quadrature,
    as_points,
    grid_P,
)


@dataclass
class Dictionary:
    """A finite dictionary stored as an (ambient_dim, n_atoms) column matrix."""

    kind: str
    atoms: np.ndarray

    def __post_init__(self):
        if self.atoms.ndim != 2:
            raise ValueError("atoms must be a 2d array (ambient_dim, n_atoms)")
        norms = np.linalg.norm(self.atoms, axis=0)
        if norms.size and norms.max() > 1.0 + 1e-9:
            raise ValueError(f"{self.kind}: atom norms exceed one (max {norms.max():.6g})")

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.atoms) else "real"

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def inner_products(self, v: np.ndarray) -> np.ndarray:
        """<v, atom_j> for every atom (conjugate-linear in the atom)."""
        return np.conj(self.atoms).T @ v


@dataclass(frozen=True)
class SelectResult:
    index: int
    score: float


def argmax_inner_product(dictionary: Dictionary, residual: np.ndarray, weakness: float = 1.0, mode: str = "abs") -> SelectResult:
    """Pick an atom by inner-product score.

    ``mode="abs"`` scores by |<r, g>| (orthogonal-greedy style); ``"real"``
    scores by Re <r, g> (relaxed-greedy style over a signed dictionary).
    ``weakness < 1`` returns the lowest-indexed atom whose score reaches
    ``weakness * max_score``, which is the laziest choice a weak greedy step
    is allowed to make; ``weakness = 1`` returns the argmax, ties toward the
    lowest index.
    """
    if not (0.0 < weakness <= 1.0):
        raise ValueError("weakness must lie in (0, 1]")
    ips = dictionary.inner_products(residual)
    scores = np.abs(ips) if mode == "abs" else ips.real.astype(float)
    best = int(np.argmax(scores))
    if weakness < 1.0 and scores[best] > 0:
        thresh = weakness * scores[best]
        best = int(np.nonzero(scores >= thresh - 1e-15 * abs(thresh))[0][0])
    return SelectResult(best, float(scores[best]))


# ---------------------------------------------------------------------------
# nets of shift points


def delta_net(dim: int, delta: float) -> Quadrature:
    """The tensor rule of ceil(2*pi/delta) nodes per axis: its nodes are a product grid of spacing at most delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return Quadrature([max(1, math.ceil(TWO_PI / delta))] * dim)


def choose_delta0(system: OrthonormalSystem) -> float:
    """Net resolution at which every u_i varies by at most N^(-1/2).

    From |u_i(x) - u_i(y)| <= k1 N^beta ||x-y||^alpha, spacing
    delta0 = (k1^(-1) N^(-1/2-beta))^(1/alpha) gives per-function variation
    N^(-1/2), hence kernel-atom variation O(1) across a net cell.  The
    trigonometric system has alpha = beta = 1, so delta0 = k1^(-1) N^(-3/2).
    Systems with k1 = 0 (constants only) need a single point: returns 2*pi.
    """
    c = system.constants
    if c.k1 == 0.0:
        return TWO_PI
    return min(1.0 / c.k1 * system.size**-1.5, TWO_PI)


# ---------------------------------------------------------------------------
# dictionary builders


def exponential_dict(Q: FrequencySet) -> Dictionary:
    """The complex exponentials exp(i<k,x>), k in Q, i.e. the identity matrix."""
    n = len(Q)
    return Dictionary(kind="exponentials", atoms=np.eye(n, dtype=complex))


def shifted_kernel_dict(Q: FrequencySet, points: np.ndarray | None = None) -> Dictionary:
    """Translates of the normalized Dirichlet kernel in complex coordinates.

    Column for shift y has entries |Q|^(-1/2) exp(-i<k,y>), so that
    <f, atom_y> = |Q|^(-1/2) f(y) for every f supported on Q.  With no
    points given, shifts default to the exact grid of the smallest box
    containing Q.
    """
    if points is None:
        points = grid_P(Q.max_abs).points
    atoms = Q.characters(as_points(points, Q.dim)).conj() / math.sqrt(len(Q))
    return Dictionary(kind="kernel-translates", atoms=atoms)


def kernel_shift_dict(system: OrthonormalSystem, points: np.ndarray) -> Dictionary:
    """Kernel translates u(y)/sqrt(N) in real coordinates.

    Under condition D (christoffel identically N) every atom has unit norm,
    and <f, atom_y> = f(y)/sqrt(N).
    """
    atoms = system.evaluate(points).T * (1.0 / math.sqrt(system.size))
    return Dictionary(kind="kernel-shifts", atoms=atoms)


def scaled_kernel_dict(system: OrthonormalSystem, points: np.ndarray | None = None) -> Dictionary:
    """Kernel atoms g_y = u(y)/sqrt(K2 N) so that <h, g_y> = h(y)/sqrt(K2 N).

    Atom norms are sqrt(w(y)/(K2 N)) <= t/sqrt(K2) under condition E, which
    is at most one whenever t^2 <= K2.  Default shifts come from the
    system's delta0 net.
    """
    if points is None:
        points = delta_net(system.dim, choose_delta0(system)).nodes
    atoms = system.evaluate(points).T * (1.0 / math.sqrt(system.constants.k2 * system.size))
    return Dictionary(kind="scaled-kernel-shifts", atoms=atoms)


def scaled_basis_dict(system: OrthonormalSystem) -> Dictionary:
    """Signed scaled basis elements ±u_i / sqrt(K2), interleaved +,-.

    The scaling keeps sup-norms at most one: ||u_i/sqrt(K2)||_inf <= 1.
    """
    n = system.size
    scale = 1.0 / math.sqrt(system.constants.k2)
    eye = np.eye(n) * scale
    atoms = np.empty((n, 2 * n))
    atoms[:, 0::2] = eye
    atoms[:, 1::2] = -eye
    return Dictionary(kind="scaled-basis-signed", atoms=atoms)


def symmetrize(d: Dictionary) -> Dictionary:
    """Append the negated copy of every atom (for signed relaxed greedy)."""
    atoms = np.concatenate([d.atoms, -d.atoms], axis=1)
    return Dictionary(kind=d.kind + "-signed", atoms=atoms)
