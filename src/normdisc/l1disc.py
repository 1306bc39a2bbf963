"""L1 norm discretization: chaining budgets, falsifiers, certificates.

Unlike the L2 case there is no eigenvalue shortcut: whether a point set
discretizes the L1 norm of every polynomial in a space has to be argued
(chaining over an entropy curve) and attacked (optimization over the
space hunting for a polynomial that breaks the claimed two-sided ratio).
This module provides both directions:

* :func:`chaining_budget` / :func:`min_m_chaining` turn an entropy curve
  into a failure-probability budget for m iid uniform points and invert it,
* :func:`certify_l1` is the falsifier: deterministic adversarial candidates
  plus one batched projected gradient ascent per side of the
  empirical-to-true ratio on the coefficient sphere, started from random
  rows and from the best deterministic candidates, reporting the worst
  ratios found as an :class:`L1Certificate`,
* :func:`discrepancy` and :func:`nikolskii_check` are the small measurement
  tools shared by tests and scripts.

All torus L_q norms here are taken with respect to an explicit oversampled
quadrature; certificates record ratios relative to that reference rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropyCurve, conditional_entropy_curve, entropy_curve_trig
from .spaces import (
    TWO_PI,
    FrequencySet,
    PointSet,
    Quadrature,
    TrigPolynomial,
    norm_values_lp,
    poly_norm,
    sup_norm_on_grid,
    torus_grid,
)

LOG_HUGE = 700.0  # exp beyond this overflows a double
BERNSTEIN_C = 8.0  # denominator constant of the chaining budget's Bernstein term
PAIR_C = 16.0  # denominator constant of each chaining level's pair term
ASCENT_STEP = 0.5  # first step length of every row in the falsifier's gradient ascent
ASCENT_GROW = 1.5  # step length factor after an accepted trial
ASCENT_SHRINK = 0.5  # step length factor after a rejected trial
ASCENT_TRIALS = 4  # trials per row and ascent iteration
SCORE_BLOCK_ROWS = 64  # candidate rows valued at once when all candidates are scored
DEEP_HOLE_MESH = 4096  # about this many mesh points are scored for deep holes
HOLE_GAP_SLACK = 1e-12  # margin of the deep-hole search's stopping rule, see _nearest_distances
NIKOLSKII_OVERSAMPLE = 8  # reference rule of nikolskii_check


# ---------------------------------------------------------------------------
# discrepancy of a point set on a single polynomial


def discrepancy(f: TrigPolynomial, pointset: PointSet, q: float, quad: Quadrature | None = None) -> float:
    """(weighted mean of |f|^q over the points) minus ||f||_q^q."""
    if quad is None:
        quad = Quadrature.tensor_torus(f.support.max_abs)
    w = pointset.effective_weights()
    emp = float(w @ np.abs(f.evaluate(pointset.points)) ** q)
    return emp - poly_norm(f, q, quad) ** q


# ---------------------------------------------------------------------------
# chaining failure-probability budgets


@dataclass(frozen=True)
class ChainingParams:
    """Inputs of the L1 chaining budget over a class of unit-norm elements.

    ``size`` is the space dimension (|Q| for a trigonometric space), ``n``
    the cross level, ``dim`` the torus dimension.  ``eta`` is the target
    two-sided accuracy of the discretization, restricted to (0, 1/4]: the
    chaining radii are calibrated to eta/4.  With ``curve="trig"`` the
    entropy curve is the level-n cross curve with constant ``c4`` and the
    per-level accuracy is eta/(4 n dim); with ``curve="conditional"`` an
    assumed curve B * min(N/k, 2^(-k/N)) is used and the accuracy is split
    evenly over the J active levels.  ``size`` also bounds the sup norm of
    class members, which feeds the first, Bernstein-type term.
    """

    size: int
    n: int
    dim: int = 1
    eta: float = 0.25
    c4: float = 1.0
    curve: str = "trig"
    big_b: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 0.25):
            raise ValueError("eta must lie in (0, 1/4]")
        if self.curve not in ("trig", "conditional"):
            raise ValueError("curve must be 'trig' or 'conditional'")
        if self.size < 1 or self.n < 1 or self.dim < 1:
            raise ValueError("size, n and dim must be positive")

    def entropy_curve(self) -> EntropyCurve:
        if self.curve == "trig":
            return entropy_curve_trig(self.size, self.n, self.c4)
        return conditional_entropy_curve(self.size, self.big_b)


@dataclass
class ChainingBudget:
    """Failure-probability budget of one (params, m) pair, term by term."""

    m: int
    J: int
    eta_level: float
    first_log: float  # natural-log of the Bernstein term
    level_logs: list[tuple[int, float, float]]  # (j, delta_{j-1}, log term)
    log_total: float
    in_theorem_window: bool
    two_J_bound: float
    meta: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return math.inf if self.log_total > LOG_HUGE else math.exp(self.log_total)


def _find_terminal_level(curve: EntropyCurve, eta: float) -> int:
    target = math.log2(eta / 4.0)
    for j in range(1, 64):
        if curve.log2_bound(2.0**j) <= target:
            return j
    raise RuntimeError("entropy curve does not reach eta/4")


def chaining_budget(params: ChainingParams, m: int) -> ChainingBudget:
    """Failure probability that m iid uniform points miss eta-accuracy.

    The budget walks the entropy curve dyadically: delta_j = bound(2^j),
    stopping at the first J with delta_J <= eta/4.  One Bernstein term
    covers the coarsest net; each level 2..J contributes a union bound over
    at most 2^(2^j) pairs with increments controlled by delta_{j-1}:

        8 exp(-m eta_lvl^2 / (8 size))
          + sum_j 2 * 2^(2^j) exp(-m eta_lvl^2 / (16 delta_{j-1})).

    Everything is evaluated in log space; the count 2^(2^j) overflows a
    double long before the budget itself is meaningful.
    """
    if m < 1:
        raise ValueError("m must be positive")
    curve = params.entropy_curve()
    J = _find_terminal_level(curve, params.eta)
    if params.curve == "trig":
        eta_level = params.eta / (4.0 * params.n * params.dim)
    else:
        eta_level = params.eta / (4.0 * J)
    first_log = math.log(2.0 * 4.0) - m * eta_level**2 / (BERNSTEIN_C * params.size)
    level_logs = []
    for j in range(2, J + 1):
        delta_prev = curve.bound(2.0 ** (j - 1))
        t = math.log(2.0) * (1.0 + 2.0**j) - m * eta_level**2 / (PAIR_C * delta_prev)
        level_logs.append((j, delta_prev, t))
    logs = [first_log] + [t for _, _, t in level_logs]
    peak = max(logs)
    log_total = peak + math.log(sum(math.exp(t - peak) for t in logs))
    in_window = (J <= 2 * params.n * params.dim) if params.curve == "trig" else True
    two_j = 4.0 * params.size * max(1.0, math.log2(4.0 * params.c4 * params.n**1.5 / params.eta))
    return ChainingBudget(
        m=m,
        J=J,
        eta_level=eta_level,
        first_log=first_log,
        level_logs=level_logs,
        log_total=log_total,
        in_theorem_window=in_window,
        two_J_bound=two_j,
        meta={"curve": params.curve},
    )


def min_m_chaining(params: ChainingParams, target: float = 1.0) -> int:
    """Smallest m whose chaining budget drops strictly below ``target``."""
    if target <= 0:
        raise ValueError("target must be positive")
    log_target = math.log(target)

    def ok(m: int) -> bool:
        return chaining_budget(params, m).log_total < log_target

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 2**60:
            raise RuntimeError("budget does not reach the target")
    lo = hi // 2  # ok(lo) is False (or lo == 0)
    lo = max(lo, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 1 and ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# random point sets and the falsifier


def random_l1_pointset(dim: int, m: int, seed: int = 0) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, TWO_PI, size=(m, dim)))


@dataclass(frozen=True)
class FalsifierEffort:
    """How hard :func:`certify_l1` searches.

    Each side's gradient ascent runs ``restarts // 2`` random rows plus as
    many deterministic candidates for ``iters`` iterations, on at most
    ``subsample_cap`` of the points.  ``translate_cap`` kernel translates at
    sampling points and ``hole_count`` at deep holes join the deterministic
    candidates, and ``oversample`` sets the reference rule of the true norm.
    The CLI's ``effort=quick`` is :meth:`quick`, ``effort=full`` the defaults.
    """

    restarts: int = 200
    iters: int = 40
    subsample_cap: int = 512
    translate_cap: int = 128
    hole_count: int = 8
    oversample: int = 16

    def __post_init__(self):
        # a negative count would act as a negative slice bound on the candidate tables
        if min(self.restarts, self.iters, self.translate_cap, self.hole_count) < 0:
            raise ValueError("restarts, iters, translate_cap and hole_count must be nonnegative")
        if self.subsample_cap < 1:
            raise ValueError("subsample_cap must be positive")

    @classmethod
    def quick(cls) -> "FalsifierEffort":
        return cls(restarts=40, iters=30, oversample=8)


@dataclass
class L1Certificate:
    """Worst empirical-to-true L1 ratios a falsification attack could find.

    ``r_min``/``r_max`` bound the attack's best violations from below and
    above; ``passed`` compares them against the target ratio window.  A
    certificate is only as strong as the attack: it proves the presence of
    violations, never their absence.
    """

    r_min: float
    r_max: float
    argmin_coeffs: np.ndarray
    argmax_coeffs: np.ndarray
    n_candidates: int
    targets: tuple[float, float]
    passed: bool
    effort: FalsifierEffort
    seed: int
    meta: dict = field(default_factory=dict)


def _ratio_values(C: np.ndarray, P: np.ndarray, w: np.ndarray, R: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical/true L1 ratio of every row of C, and its true L1 norm.

    ``P`` and ``R`` are the character tables of the points and of the
    reference rule (columns are nodes), ``w`` and ``omega`` their weights.
    """
    tru = np.abs(C @ R) @ omega
    return (np.abs(C @ P) @ w) / np.maximum(tru, 1e-300), tru


def _ratio_values_blocked(C: np.ndarray, P: np.ndarray, w: np.ndarray, R: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ratio_values` over blocks of ``SCORE_BLOCK_ROWS`` rows, so no more rows than that are valued at once."""
    blocks = [_ratio_values(C[s : s + SCORE_BLOCK_ROWS], P, w, R, omega) for s in range(0, len(C), SCORE_BLOCK_ROWS)]
    return np.concatenate([r for r, _ in blocks]), np.concatenate([t for _, t in blocks])


def _ratio_gradient(C: np.ndarray, P: np.ndarray, w: np.ndarray, R: np.ndarray, omega: np.ndarray, PH: np.ndarray, RH: np.ndarray) -> np.ndarray:
    """Wirtinger gradient 2 d(ratio)/d(conj c) of every row of C; ``PH``, ``RH`` are the conjugate transposes of P, R.

    With F = C P, G = C R, E = |F| w and T = |G| omega, grad E = (w F/|F|) P^H
    and grad T = (omega G/|G|) R^H, so grad (E/T) = (grad E - (E/T) grad T) / T.
    Its real and imaginary parts are the derivatives along the real and
    imaginary parts of the coefficients.  A node where a value vanishes
    contributes nothing (a subgradient of |.|).
    """
    F = C @ P
    G = C @ R
    aF = np.maximum(np.abs(F), 1e-300)
    aG = np.maximum(np.abs(G), 1e-300)
    tru = np.maximum(aG @ omega, 1e-300)
    ratio = (aF @ w) / tru
    # weighted phases in place: on a fine rule G is the largest array of the search
    F *= np.divide(w, aF, out=aF)
    G *= np.divide(omega, aG, out=aG)
    return (F @ PH - ratio[:, None] * (G @ RH)) / tru[:, None]


def _periodic_linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic l-infinity distance of the rows of a and b, both in [0, 2*pi).

    Each coordinate difference is wrapped by the branches of a periodic
    ``cKDTree`` with ``boxsize=2*pi`` (add 2*pi below -pi, subtract it
    above pi), so the distances are the same doubles as that tree's.
    """
    diff = a - b
    diff = np.where(diff < -math.pi, TWO_PI + diff, np.where(diff > math.pi, diff - TWO_PI, diff))
    return np.abs(diff).max(axis=1)


def _nearest_distances(points: np.ndarray, mesh: np.ndarray) -> tuple[np.ndarray, int]:
    """Periodic l-infinity distance from every mesh node to its nearest point, and the number of point distances valued.

    Points and nodes lie in [0, 2*pi).  The points are sorted on axis 0 and
    each node is placed among them by ``searchsorted``.  Then every node
    walks outward cyclically, one point to each side per round, and the
    rounds are vectorised over the nodes still walking.  A node stops when
    the axis-0 gap to the next point on both sides is at least its best
    distance so far.  That is exact: every point not yet valued lies on the
    arc between those two next points, so its axis-0 distance is at least
    the smaller gap, and an l-infinity distance is never below its axis-0
    part.  The gaps are compared with a slack of ``HOLE_GAP_SLACK``, far
    above the few ulps of 2*pi by which a rounded gap can exceed a rounded
    distance it bounds; stopping later never changes a minimum.  Each
    distance is valued by :func:`_periodic_linf`, so the result is
    bit-identical to ``cKDTree(points, boxsize=2*pi).query(mesh, p=inf)[0]``.

    Cost: a sort of the points, then at most ceil(m/2) rounds, each
    O(walking nodes * d) in time and memory; no nodes x points array is
    formed.  In 1-d every node stops after its two axis neighbours; m
    uniform points in d dimensions cost about m^(1-1/d) distances a node.
    """
    m = len(points)
    pts = points[np.argsort(points[:, 0])]
    x0 = pts[:, 0]
    start = np.searchsorted(x0, mesh[:, 0])  # first point at or right of each node on axis 0
    best = np.full(len(mesh), np.inf)
    node = np.arange(len(mesh))
    evaluated = 0
    for k in range((m + 1) // 2):
        # indices unwrapped: past m - 1 (below 0) they continue at 0 (m - 1) one turn further on
        right = start[node] + k
        left = start[node] - 1 - k
        y = mesh[node]
        best[node] = np.minimum(best[node], np.minimum(_periodic_linf(y, pts[right % m]), _periodic_linf(y, pts[left % m])))
        evaluated += 2 * node.size
        ahead = x0[(right + 1) % m] + TWO_PI * ((right + 1) // m) - y[:, 0]
        behind = y[:, 0] - x0[(left - 1) % m] - TWO_PI * ((left - 1) // m)
        node = node[np.minimum(ahead, behind) < best[node] + HOLE_GAP_SLACK]
        if not node.size:
            break
    return best, evaluated


def _deep_holes(points: np.ndarray, dim: int, count: int, record: dict | None = None) -> np.ndarray:
    """Mesh points of the torus farthest (in periodic l-infinity) from every input point.

    The mesh has about ``DEEP_HOLE_MESH`` nodes, at least 8 per axis.  Each
    node's score is its distance to the nearest point, found exactly by
    :func:`_nearest_distances`; the ``count`` best-scored nodes are returned,
    in decreasing score.  ``record``, if given, receives the mesh size and
    the number of point distances the search valued.
    """
    per_axis = max(8, int(round(DEEP_HOLE_MESH ** (1.0 / dim))))
    mesh = torus_grid([per_axis] * dim)
    score, evaluated = _nearest_distances(points, mesh)
    if record is not None:
        record.update(mesh=len(mesh), distances=evaluated)
    order = np.argsort(score)[::-1][:count]
    return mesh[order]


def _deterministic_candidates(Q: FrequencySet, pointset: PointSet, point_values: np.ndarray, effort: FalsifierEffort, record: dict | None = None) -> np.ndarray:
    """Coefficient rows of structured attack polynomials.

    ``point_values`` is the character table ``Q.characters(pointset.points)``;
    ``record`` is passed to :func:`_deep_holes`.
    """
    rows = []
    nq = len(Q)
    # single exponentials: |f| constant, ratio exactly one
    eye = np.eye(nq, dtype=complex)
    rows.append(eye)
    # kernel translates centered at sampling points, coefficients exp(-i<k, x>): mass concentrates there
    rows.append(point_values[:, : effort.translate_cap].T.conj())
    # kernel translates centered at deep holes: mass hides from the points
    holes = _deep_holes(pointset.points, Q.dim, effort.hole_count, record)
    rows.append(Q.characters(holes).T.conj())
    # vanishing pairs: e_{k_a} - phase * e_{k_b} is zero at the first point
    if pointset.m >= 1 and nq >= 2:
        xi = pointset.points[0]
        pair_rows = []
        for a in range(min(nq, 8)):
            for b in range(a + 1, min(nq, 8)):
                ka, kb = Q.array[a], Q.array[b]
                phase = np.exp(1j * float((ka - kb) @ xi))
                row = np.zeros(nq, dtype=complex)
                row[a] = 1.0
                row[b] = -phase
                pair_rows.append(row)
        if pair_rows:
            rows.append(np.array(pair_rows))
    return np.concatenate(rows, axis=0)


def _optimize_ratio(C0: np.ndarray, P: np.ndarray, w: np.ndarray, R: np.ndarray, omega: np.ndarray, iters: int, sign: float, min_l1: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Batched projected gradient ascent of the ratio on the coefficient sphere; sign=+1 minimizes, -1 maximizes.

    Each iteration steps every row along its normalized gradient direction
    by its own length and renormalizes it (the ratio is scale invariant, so
    its gradient is tangent to the sphere).  A trial is accepted only if it
    improves that row's objective and keeps its true norm at or above
    ``min_l1``; the length then grows by ``ASCENT_GROW``, and after a
    rejection it shrinks by ``ASCENT_SHRINK`` and the row tries again, up to
    ``ASCENT_TRIALS`` times per iteration.  So no row's objective ever
    worsens.  Returns the rows, their objectives sign * ratio and the number
    of accepted steps.
    """
    C = C0 / np.maximum(np.linalg.norm(C0, axis=1)[:, None], 1e-300)
    obj = sign * _ratio_values(C, P, w, R, omega)[0]
    step = np.full(len(C), ASCENT_STEP)
    PH, RH = P.conj().T, R.conj().T
    accepted = 0
    for _ in range(iters):
        d = -sign * _ratio_gradient(C, P, w, R, omega, PH, RH)
        d /= np.maximum(np.linalg.norm(d, axis=1)[:, None], 1e-300)
        todo = np.arange(len(C))
        for _ in range(ASCENT_TRIALS):
            trial = C[todo] + step[todo, None] * d[todo]
            trial /= np.linalg.norm(trial, axis=1)[:, None]
            ratio, tru = _ratio_values(trial, P, w, R, omega)
            ok = (sign * ratio < obj[todo]) & (tru >= min_l1)
            rows = todo[ok]
            C[rows], obj[rows] = trial[ok], sign * ratio[ok]
            step[rows] *= ASCENT_GROW
            accepted += rows.size
            todo = todo[~ok]
            step[todo] *= ASCENT_SHRINK
            if not todo.size:
                break
    return C, obj, accepted


def certify_l1(pointset: PointSet, Q: FrequencySet, targets: tuple[float, float] = (0.5, 1.5), effort: FalsifierEffort | None = None, seed: int = 0) -> L1Certificate:
    """Attack the two-sided L1 discretization claim of a point set.

    Reports the smallest and largest ratio (weighted empirical L1 mean over
    the points) / (true L1 norm) found over the space of polynomials on Q.
    Each side runs one batched gradient ascent (:func:`_optimize_ratio`)
    from ``effort.restarts // 2`` random rows plus as many deterministic
    candidates, those with the best ratio for that side; ``effort.iters``
    counts its iterations.  The ascent runs on a subsample of at most
    ``effort.subsample_cap`` points; every candidate, deterministic or
    ascended, is then scored exactly (relative to the reference quadrature)
    on the full point set.  ``meta["search"]`` records each side's ascent,
    ``meta["holes"]`` the deep-hole search's mesh size and point distances.
    """
    if effort is None:
        effort = FalsifierEffort()
    if pointset.m < 1:
        raise ValueError("certify_l1 needs at least one point")
    if pointset.dim != Q.dim:
        raise ValueError(f"points of dimension {pointset.dim} do not match a space of dimension {Q.dim}")
    rng = np.random.default_rng(seed)
    quad = Quadrature.tensor_torus(Q.max_abs, oversample=effort.oversample)
    # value tables: columns are evaluation points, rows will be coefficients
    quad_values = Q.characters(quad.nodes)  # (|Q|, n_quad)
    point_values_full = Q.characters(pointset.points)
    w_full = pointset.effective_weights()

    holes = {}
    det = _deterministic_candidates(Q, pointset, point_values_full, effort, holes)
    det /= np.maximum(np.linalg.norm(det, axis=1)[:, None], 1e-300)

    if pointset.m > effort.subsample_cap:
        sub = rng.choice(pointset.m, size=effort.subsample_cap, replace=False)
        point_values = point_values_full[:, sub]
        w_sub = w_full[sub]
        w_sub = w_sub / w_sub.sum()
    else:
        point_values = point_values_full
        w_sub = w_full
    tables = (point_values, w_sub, quad_values, quad.weights)

    min_l1 = 1.0 / math.sqrt(len(Q))  # unit coefficient sphere keeps ||f||_1 above this
    half = max(1, effort.restarts // 2)
    C_rand = rng.standard_normal((2 * half, len(Q))) + 1j * rng.standard_normal((2 * half, len(Q)))
    det_order = np.argsort(_ratio_values_blocked(det, *tables)[0], kind="stable")
    sides = (("min", +1.0, C_rand[:half], det_order[:half]), ("max", -1.0, C_rand[half:], det_order[::-1][:half]))
    ascended, search = [], {}
    for side, sign, rand, starts in sides:
        C, _, accepted = _optimize_ratio(np.concatenate([rand, det[starts]]), *tables, effort.iters, sign, min_l1)
        ascended.append(C)
        search[side] = {"iterations": effort.iters, "accepted_steps": accepted, "rows": len(C), "deterministic_starts": len(starts), "subsample": point_values.shape[1]}

    all_C = np.concatenate([det, *ascended], axis=0)
    ratios, tru = _ratio_values_blocked(all_C, point_values_full, w_full, quad_values, quad.weights)
    # rows that collapsed to zero true norm are meaningless
    ratios[tru < 1e-12] = 1.0
    i_min = int(np.argmin(ratios))
    i_max = int(np.argmax(ratios))
    r_min, r_max = float(ratios[i_min]), float(ratios[i_max])
    return L1Certificate(
        r_min=r_min,
        r_max=r_max,
        argmin_coeffs=all_C[i_min].copy(),  # a row view would keep all of all_C alive
        argmax_coeffs=all_C[i_max].copy(),
        n_candidates=all_C.shape[0],
        targets=targets,
        passed=(r_min >= targets[0]) and (r_max <= targets[1]),
        effort=effort,
        seed=seed,
        meta={"m": pointset.m, "space": len(Q), "subsampled": pointset.m > effort.subsample_cap, "search": search, "holes": holes},
    )


# ---------------------------------------------------------------------------
# sanity inequalities


def nikolskii_check(Q: FrequencySet, sample_size: int = 100, seed: int = 0, p_list=(1.0, 2.0)) -> dict:
    """Verify ||f||_inf <= |Q| ||f||_p on random polynomials.

    For p >= 2 the sharper constant sqrt(|Q|) is checked instead.  The sup
    norm is evaluated as a refined grid maximum, i.e. a lower bound of the
    true sup norm, so a reported violation is a real one.
    """
    rng = np.random.default_rng(seed)
    quad = Quadrature.tensor_torus(Q.max_abs, oversample=NIKOLSKII_OVERSAMPLE)
    out = {p: {"max_ratio": 0.0, "violations": 0} for p in p_list}
    for _ in range(sample_size):
        c = rng.standard_normal(len(Q)) + 1j * rng.standard_normal(len(Q))
        f = TrigPolynomial(Q, c)
        values = f.values_on(quad)
        sup = sup_norm_on_grid(f, quad, values)
        for p in p_list:
            const = len(Q) if p < 2 else math.sqrt(len(Q))
            np_norm = norm_values_lp(values, quad.weights, p)
            ratio = sup / (const * np_norm)
            rec = out[p]
            rec["max_ratio"] = max(rec["max_ratio"], ratio)
            if ratio > 1.0 + 1e-9:
                rec["violations"] += 1
    return out
