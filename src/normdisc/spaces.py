"""Frequency sets, trigonometric polynomials, orthonormal systems and norms.

Everything downstream (dictionaries, greedy solvers, discretization
certificates) is built from the small set of types defined here:

* :class:`FrequencySet`     finite sets of integer frequency vectors in Z^d, each one
  read-only (|Q|, d) int64 array in lexicographic order,
* :class:`TrigPolynomial`   complex trigonometric polynomials on the torus,
* :class:`OrthonormalSystem` the real trigonometric system of T(Q) on its
  tensor rule,
* :class:`PointSet`         sampling knots with optional nonnegative weights,
* :class:`Quadrature`       equal-weight product trapezoidal rules, the
  reference measure for every norm computed by the package; a rule is its
  per-axis sizes, and its nodes and weights are built on first read.

Conventions.  All coordinates are radians in ``[0, 2*pi)`` and the reference
measure is the *normalized* Lebesgue measure on the torus, so
``norm_lp(constant c) == |c|`` for every p.
All containers are treated as immutable after construction, which makes them
safe to share across worker processes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
GRAM_BLOCK_ROWS = 4096  # rows per block of weighted_gram
SUP_REFINE_TOP_K = 3  # grid maxima refined by Newton steps in sup_norm_on_grid
SUP_REFINE_ITERS = 7  # iterations of that refinement, each one character table of all its trial points
MAX_RULE_NODES = 2**24  # node cap of a Quadrature: 134 MB of weights and 134 MB of nodes per axis


def as_points(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to an (m, dim) float array of torus points."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError("scalar point only valid in dimension 1")
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1) if dim == 1 else a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"points have shape {np.shape(x)}, expected (m, {dim})")
    return a


# ---------------------------------------------------------------------------
# frequency sets


@dataclass(frozen=True, eq=False)
class FrequencySet:
    """A finite, duplicate-free set of integer frequency vectors in Z^d.

    ``array`` is the set as a read-only (|Q|, d) int64 array in
    lexicographic order, so equal sets have equal arrays.  Negation
    reverses that order: -Q is ``array[::-1]`` negated.
    """

    dim: int
    array: np.ndarray

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        a = np.asarray(self.array, dtype=np.int64)
        if a.size == 0:
            a = a.reshape(0, self.dim)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise ValueError(f"frequencies of shape {a.shape} do not have dimension {self.dim}")
        a = a[np.lexsort(a.T[::-1])]  # lexsort's primary key is its last, so column 0 goes last
        same = (a[1:] == a[:-1]).all(axis=1)
        if same.any():
            raise ValueError(f"duplicate frequency {tuple(a[same.argmax()].tolist())}")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.array, other.array)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def characters(self, points: np.ndarray) -> np.ndarray:
        """The (|Q|, m) table exp(i <k, x>) over the frequencies k and the (m, d) points x."""
        return np.exp(1j * (self.array @ points.T))

    @cached_property
    def symmetric(self) -> bool:
        """True iff k in Q implies -k in Q."""
        return np.array_equal(-self.array[::-1], self.array)

    @cached_property
    def max_abs(self) -> np.ndarray:
        """Componentwise max of |k_j| over the set (zeros for an empty set)."""
        return np.abs(self.array).max(axis=0, initial=0)

    @cached_property
    def max_l1(self) -> int:
        return int(np.abs(self.array).sum(axis=1).max(initial=0))

    def differences(self) -> tuple["FrequencySet", np.ndarray]:
        """The difference set D = Q - Q, and the position in D of l - k for each pair (k, l) of Q.

        Pairs run in the row-major order of a (|Q|, |Q|) array over Q's sorted
        order.  D is found by one sort of the differences, encoded as their
        flat index in the box [-2 max|k|, 2 max|k|], whose C order is the
        lexicographic order of ``FrequencySet``.
        """
        diffs = (self.array[None, :, :] - self.array[:, None, :]).reshape(-1, self.dim)
        reach = 2 * self.max_abs
        codes = np.ravel_multi_index(tuple((diffs + reach).T), tuple(2 * reach + 1))
        order = np.argsort(codes, kind="stable")
        new = np.diff(codes[order], prepend=-1) != 0  # the first pair of each difference
        position = np.empty(len(codes), dtype=np.int64)
        position[order] = np.cumsum(new) - 1
        return FrequencySet(self.dim, diffs[order[new]]), position

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "freqs": self.array.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FrequencySet":
        obj = json.loads(text)
        return cls(int(obj["dim"]), obj["freqs"])


def freqset(vectors, dim: int | None = None) -> FrequencySet:
    """The set of the integer vectors of the iterable ``vectors``, a ``set`` included."""
    array = np.array(list(vectors), dtype=np.int64)
    if dim is None:
        if not len(array):
            raise ValueError("cannot infer dimension from an empty list")
        dim = array.shape[-1]
    return FrequencySet(dim, array)


def build_box(n_vec, dim: int | None = None) -> FrequencySet:
    """All k in Z^d with |k_j| <= N_j for every axis j."""
    n_vec = tuple(int(v) for v in np.atleast_1d(np.asarray(n_vec, dtype=np.int64)))
    if dim is not None and dim != len(n_vec):
        raise ValueError(f"dim={dim} does not match len(N)={len(n_vec)}")
    if any(v < 0 for v in n_vec):
        raise ValueError("box sizes must be nonnegative")
    return FrequencySet(len(n_vec), np.array(np.meshgrid(*[np.arange(-v, v + 1) for v in n_vec])).reshape(len(n_vec), -1).T)


def _dyadic_axis(s: int) -> list[int]:
    # |k| in [floor(2^(s-1)), 2^s)
    hi = 1 << s
    lo = (1 << (s - 1)) if s >= 1 else 0
    if lo == 0:
        return list(range(-(hi - 1), hi))
    return list(range(-(hi - 1), -(lo - 1))) + list(range(lo, hi))


def build_hyperbolic_cross(n: int, dim: int) -> FrequencySet:
    """Union of dyadic blocks over all s in Z^d_+ with ||s||_1 <= n; the blocks are disjoint."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be positive")
    blocks = [np.array(np.meshgrid(*map(_dyadic_axis, s))).reshape(dim, -1).T for s in itertools.product(range(n + 1), repeat=dim) if sum(s) <= n]
    return FrequencySet(dim, np.concatenate(blocks))


# ---------------------------------------------------------------------------
# points, grids, quadrature


@dataclass
class PointSet:
    """Sampling knots on the torus with optional nonnegative weights.

    Points are canonicalized to ``[0, 2*pi)``.  ``weights is None`` means the
    equal-weight rule ``1/m``.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must be an (m, d) array")
        pts = np.mod(pts, TWO_PI)
        pts[pts == TWO_PI] = 0.0  # mod rounds tiny negatives up to 2*pi
        self.points = pts
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.shape[0] != self.points.shape[0]:
                raise ValueError("weights length does not match point count")
            if (w < 0).any():
                raise ValueError("weights must be nonnegative")
            self.weights = w

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def effective_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return np.full(self.m, 1.0 / self.m)

    def to_json(self) -> str:
        return json.dumps(
            {
                "points": [list(map(float, p)) for p in self.points],
                "weights": None if self.weights is None else [float(w) for w in self.weights],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        obj = json.loads(text)
        w = obj.get("weights")
        return cls(np.asarray(obj["points"], dtype=float), None if w is None else np.asarray(w, dtype=float))


def grid_P(n_vec) -> PointSet:
    """The exact interpolation grid x^n = (2*pi*n_j / (2*N_j + 1)) for Pi(N).

    Its points are the nodes of ``Quadrature.tensor_torus(N, oversample=1)``.
    """
    return PointSet(Quadrature.tensor_torus(n_vec, oversample=1).nodes)


@dataclass(frozen=True)
class Quadrature:
    """The equal-weight product trapezoidal rule of ``sizes`` nodes per axis on the torus.

    A rule is its description: ``nodes`` and ``weights`` are built on first
    read, so a rule that only places frequencies (:meth:`cells`) holds no
    array.  Node n sits at 2*pi*n_j/sizes_j on axis j, rows in the C order
    of a ``sizes`` array.  The rule integrates exp(i <h, x>) to 1 when
    h = 0 mod sizes on every axis and to 0 otherwise, so it integrates every
    product of T(Q) exactly iff k -> k mod sizes is injective on Q
    (:func:`resolves_products`).  A per-axis size above twice the maximal
    frequency is sufficient, not necessary.  ``meta`` records how
    :meth:`tensor_torus` chose the sizes.
    """

    sizes: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        sizes = tuple(map(int, self.sizes))
        if any(s < 1 for s in sizes):
            raise ValueError(f"a tensor rule needs positive sizes, got {list(sizes)}")
        if math.prod(sizes) > MAX_RULE_NODES:
            raise ValueError(f"a tensor rule of {math.prod(sizes):,} nodes exceeds MAX_RULE_NODES = {MAX_RULE_NODES:,}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The read-only (size, dim) nodes."""
        d = self.dim
        out = np.empty((self.size, d))
        grid = out.reshape(*self.sizes, d)  # a view: each axis is written once, with no meshgrid copies
        for j, s in enumerate(self.sizes):
            grid[..., j] = (TWO_PI * np.arange(s) / s).reshape([-1 if i == j else 1 for i in range(d)])
        out.flags.writeable = False
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        out = np.full(self.size, 1.0 / self.size)
        out.flags.writeable = False
        return out

    @classmethod
    def tensor_torus(cls, max_freqs, oversample: int = 4) -> "Quadrature":
        """The rule of ``oversample * (2 f_j + 1)`` nodes on each axis j of maximal frequency f_j; a negative f_j is refused as a size below 1."""
        max_freqs = np.atleast_1d(np.asarray(max_freqs, dtype=np.int64))
        if oversample < 1:
            raise ValueError("oversample must be >= 1")
        return cls([int(oversample) * (2 * int(f) + 1) for f in max_freqs], meta={"oversample": oversample})

    def axis_spacing(self) -> np.ndarray:
        return TWO_PI / np.array(self.sizes)

    def cells(self, K: np.ndarray) -> np.ndarray:
        """The flat index of the cell k mod sizes of each row k of the (n, dim) integer array ``K``, in node order.

        It is where ``fftn`` of the rule's grid puts frequency k.
        """
        if K.shape[1] != self.dim:
            raise ValueError(f"tensor rule of sizes {list(self.sizes)} does not match frequencies of dimension {K.shape[1]}")
        return np.ravel_multi_index(tuple((K % self.sizes).T), self.sizes)


def resolves_products(Q: FrequencySet, quad: Quadrature) -> bool:
    """True iff the tensor rule ``quad`` integrates exp(i <k - l, x>) exactly for all k, l in Q.

    The mean of exp(i <h, x>) over the nodes is 1 if h = 0 mod sizes on
    every axis and 0 otherwise, so the complex Gram of Q (and the real Gram
    of a symmetric Q) is the identity iff k -> k mod sizes is injective on
    Q: no rounding, and O(|Q| log |Q|) instead of a product over the nodes.
    """
    cells = np.sort(quad.cells(Q.array))
    return bool((cells[1:] != cells[:-1]).all())


# ---------------------------------------------------------------------------
# trigonometric polynomials


@dataclass
class TrigPolynomial:
    """f(x) = sum_{k in Q} c_k exp(i <k, x>) with coefficients aligned to Q."""

    support: FrequencySet
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if c.shape[0] != len(self.support):
            raise ValueError("coefficient count does not match support size")
        self.coeffs = c

    def evaluate(self, x):
        vals = self.coeffs @ self.support.characters(as_points(x, self.support.dim))
        if np.ndim(x) == 0 or (np.ndim(x) == 1 and self.support.dim > 1):
            return vals[0]
        return vals

    def values_on(self, quad: Quadrature) -> np.ndarray:
        """Values at the nodes of the tensor rule ``quad``, in node order.

        This is an inverse FFT: each coefficient is added into the grid at
        its cell ``k mod sizes``, so a rule too coarse to separate two
        frequencies stays exact.
        """
        grid = np.zeros(quad.sizes, dtype=complex)
        np.add.at(grid.reshape(-1), quad.cells(self.support.array), self.coeffs)
        return np.fft.ifftn(grid).reshape(-1) * grid.size


def dirichlet_poly(Q: FrequencySet) -> TrigPolynomial:
    """D_Q = sum_{k in Q} exp(i <k, .>); D_Q(0) = |Q|."""
    return TrigPolynomial(Q, np.ones(len(Q), dtype=complex))


# ---------------------------------------------------------------------------
# norms


def norm_values_lp(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p) for finite p >= 1."""
    if not (p >= 1.0) or math.isinf(p):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    a = np.abs(np.asarray(values))
    return float((weights @ a**p) ** (1.0 / p))


def sup_norm_on_grid(f: TrigPolynomial, quad: Quadrature, values: np.ndarray) -> float:
    """Grid maximum of |f| over the nodes of ``quad``, where f has ``values``, refined by one batched Newton ascent.

    The ``SUP_REFINE_TOP_K`` largest nodes seed a safeguarded Newton ascent
    on g = |f|^2.  One character table per iteration gives f, grad f =
    sum_k i k c_k e_k and Hess f = -sum_k k k^T c_k e_k at every trial point,
    hence grad g / 2 = Re(conj(f) grad f) and Hess g / 2 = Re(conj(f) Hess f
    + grad f grad f^*).  The step V |Lambda|^-1 V^T grad g, from the
    eigenpairs of Hess g, is Newton's where Hess g is negative definite and
    an ascent step elsewhere; it is clipped to half a grid spacing per axis.
    Each iteration values the current point and the fractions 1/2 and 1 of
    its step, and moves to the best of them, so g never falls, and every
    trial stays within one grid spacing of its seed on each axis.  The
    result is the largest |f| at a point actually evaluated: a certified
    lower bound of the sup norm, never below the grid maximum.  No accuracy
    is claimed beyond that: a peak with none of the top nodes nearby is
    missed, as happens on grids without oversampling.
    """
    vals = np.abs(values)
    seeds = quad.nodes[np.argsort(vals)[::-1][:SUP_REFINE_TOP_K]]
    s, d = seeds.shape
    K, c = f.support.array.astype(float), f.coeffs[:, None]
    iK = 1j * K.T
    derivs = np.concatenate([c, 1j * K * c, -(K[:, :, None] * K[:, None, :]).reshape(-1, d * d) * c], axis=1)
    fractions = np.array([0.0, 0.5, 1.0])[None, :, None]  # of the step; 0 keeps the current point
    first_trial = np.arange(s) * fractions.shape[1]
    spacing = quad.axis_spacing()
    lo, hi, half = seeds[:, None, :] - spacing, seeds[:, None, :] + spacing, 0.5 * spacing
    x, step = seeds, np.zeros_like(seeds)
    for it in range(SUP_REFINE_ITERS):
        trials = np.minimum(np.maximum(x[:, None, :] + fractions * step[:, None, :], lo), hi).reshape(-1, d)
        # the bits of support.characters, with i K formed once for the 7 tables of a norm: on sup-greedy's hot path,
        # and 4.0 against 5.8 us a table on cross:3:1 (2-vCPU VM)
        t = np.exp(trials @ iK) @ derivs
        w = (np.conj(t[:, :1]) * t).real  # columns: g, grad g / 2, then the conj(f) Hess f part of Hess g / 2
        if it == SUP_REFINE_ITERS - 1:
            return max(float(vals.max()), math.sqrt(float(w[:, 0].max())))
        grad_f = t[:, 1 : 1 + d].view(float).reshape(-1, d, 2)  # real and imaginary parts, so Re(grad f grad f^*) is one product
        lam, vec = np.linalg.eigh(w[:, 1 + d :].reshape(-1, d, d) + grad_f @ grad_f.transpose(0, 2, 1))
        steps = (vec @ ((w[:, None, 1 : 1 + d] @ vec) / (np.abs(lam[:, None, :]) + 1e-300)).transpose(0, 2, 1))[..., 0]
        pick = first_trial + w[:, 0].reshape(s, -1).argmax(axis=1)
        x, step = trials[pick], np.minimum(np.maximum(steps[pick], -half), half)


def poly_norm(f: TrigPolynomial, p: float, quad: Quadrature | None = None) -> float:
    """L_p norm of a trigonometric polynomial under the normalized measure.

    ``p = math.inf`` uses the grid maximum refined by Newton steps
    (:func:`sup_norm_on_grid`), a lower bound of the true sup norm.
    """
    if quad is None:
        quad = Quadrature.tensor_torus(f.support.max_abs)
    values = f.values_on(quad)
    if math.isinf(p):
        return sup_norm_on_grid(f, quad, values)
    return norm_values_lp(values, quad.weights, p)


# ---------------------------------------------------------------------------
# orthonormal systems


@dataclass(frozen=True)
class SystemConstants:
    """The analytic constants of the real trigonometric system of T(Q).

    k1: modulus bound |u_i(x) - u_i(y)| <= k1 N ||x-y||, that is
    k1 N^beta ||x-y||^alpha with alpha = beta = 1.
    k2: uniform bound ||u_i||_inf^2 <= k2.
    t: christoffel cap w(x) <= N t^2.
    """

    k1: float
    k2: float
    t: float


@dataclass(frozen=True)
class TrigBasis:
    """Real orthonormal trigonometric basis 1, sqrt2 cos<k,.>, sqrt2 sin<k,.> of T(Q).

    ``freqs`` is Q, nonempty and symmetric.  One representative per pair
    {k, -k}; the representative has a positive leading nonzero coordinate.
    Column order: constant first (when present), then cos/sin interleaved
    per representative in sorted order, so each cos/sin pair is the real
    and imaginary part of sqrt2 exp(i <k, x>).
    """

    freqs: FrequencySet

    def __post_init__(self):
        if not self.freqs.symmetric:
            raise ValueError("real trigonometric system needs a symmetric frequency set")
        if len(self.freqs) == 0:
            raise ValueError("frequency set is empty")

    @cached_property
    def has_const(self) -> bool:
        # the nonzero members of a symmetric Q come in pairs {k, -k}
        return len(self.freqs) % 2 == 1

    @cached_property
    def rep_array(self) -> np.ndarray:
        # the representatives, sorted, are the upper half of Q, above 0
        return self.freqs.array[len(self.freqs) // 2 + self.has_const :]

    @property
    def n_funcs(self) -> int:
        return len(self.freqs)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        m = points.shape[0]
        out = np.empty((m, self.n_funcs))
        col = 0
        if self.has_const:
            out[:, 0] = 1.0
            col = 1
        phase = points @ self.rep_array.T
        np.cos(phase, out=out[:, col::2])
        np.sin(phase, out=out[:, col + 1 :: 2])
        out[:, col:] *= math.sqrt(2.0)
        return out

    def exp_coeffs(self, c: np.ndarray) -> np.ndarray:
        """The (|Q|, r) coefficients over Q, in its sorted order, of the functions u^T c[:, i], for a real (N, r) ``c``.

        sqrt2 cos<k,x> = (e_k + e_-k)/sqrt2 and sqrt2 sin<k,x> = -i (e_k - e_-k)/sqrt2,
        so the pair (a, b) of a representative k becomes (a - i b)/sqrt2 at k
        and its conjugate at -k.  Q is sorted, so it holds -k in the reverse
        order of the representatives, then 0 (when present), then them.
        """
        r = len(self.rep_array)
        col = int(self.has_const)
        out = np.empty((self.n_funcs, c.shape[1]), dtype=complex)
        out[r : r + col] = c[:col]
        out[r + col :] = (c[col::2] - 1j * c[col + 1 :: 2]) / math.sqrt(2.0)
        np.conjugate(out[r + col :][::-1], out=out[:r])
        return out


def weighted_gram(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_nu weights_nu u_nu u_nu^T over the rows u_nu of the (m, N) table ``u``.

    Summed over blocks of ``GRAM_BLOCK_ROWS`` rows: a weighted copy of the
    whole table would double peak memory.
    """
    g = np.zeros((u.shape[1], u.shape[1]))
    for s in range(0, u.shape[0], GRAM_BLOCK_ROWS):
        block = u[s : s + GRAM_BLOCK_ROWS]
        g += (block * weights[s : s + GRAM_BLOCK_ROWS, None]).T @ block
    return g


@dataclass
class OrthonormalSystem:
    """The real orthonormal trigonometric system of T(Q), Q = ``basis.freqs``, on a tensor rule.

    Orthonormality is checked exactly on the difference set, by
    :func:`resolves_products`, so construction builds no value table and
    reads no node, and ``span_norm`` builds no value table either.
    Its name and constants are functions of Q.
    """

    basis: TrigBasis
    quadrature: Quadrature

    def __post_init__(self):
        if not resolves_products(self.freqs, self.quadrature):
            raise ValueError(f"{self.name}: quadrature Gram is not the identity")

    @cached_property
    def name(self) -> str:
        return f"trig[{self.freqs.dim}d,N={self.size}]"

    @cached_property
    def constants(self) -> SystemConstants:
        """k1 = sqrt2 d max||k||_1 / N and k2 = 2, or k1 = 0 and k2 = 1 for Q = {0}; t = 1, as w = N (condition D)."""
        Q = self.freqs
        if Q.max_l1 == 0:
            return SystemConstants(k1=0.0, k2=1.0, t=1.0)
        return SystemConstants(k1=math.sqrt(2.0) * Q.dim * Q.max_l1 / len(Q), k2=2.0, t=1.0)

    @property
    def freqs(self) -> FrequencySet:
        return self.basis.freqs

    @property
    def size(self) -> int:
        return self.basis.n_funcs

    @property
    def dim(self) -> int:
        return self.quadrature.dim

    def evaluate(self, points) -> np.ndarray:
        return self.basis.evaluate(as_points(points, self.dim))

    def span_norm(self, coeffs: np.ndarray, p: float) -> float:
        """L_p norm of sum_i coeffs_i u_i on the quadrature; its node values are one inverse FFT."""
        f = TrigPolynomial(self.freqs, self.basis.exp_coeffs(np.asarray(coeffs, dtype=float)[:, None])[:, 0])
        values = f.values_on(self.quadrature).real
        if math.isinf(p):
            return sup_norm_on_grid(f, self.quadrature, values)
        return norm_values_lp(values, self.quadrature.weights, p)


def real_trig_system(Q: FrequencySet, oversample: int = 4) -> OrthonormalSystem:
    """The real orthonormal trigonometric system spanning T(Q) on the torus.

    Requires a nonempty symmetric Q.  The system satisfies condition D
    exactly: w(x) = |Q| for all x.
    """
    return OrthonormalSystem(TrigBasis(Q), Quadrature.tensor_torus(Q.max_abs, oversample=oversample))
