"""Spans and counters around the calls into each normdisc module.

The tracer replaces selected public functions and methods with wrappers
that record a span ``(name, start, end, parent, job)`` per call and update
counters computed from the call's arguments and result.  Wrappers are
installed on every ``normdisc`` module that binds the function (``cli``
imports ``real_trig_system`` by name, for instance), so calls made inside
the library are traced too.  Nothing in ``src/`` is edited: the wrappers
live only in the traced process and are removed when a traced pass ends.

A span's self time is its duration minus the durations of its direct
children.  Layer metrics are self times and counts summed by span name.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

from normdisc import dictionaries, greedy, l1disc, l2disc, spaces


def _n_points(x, dim: int) -> int:
    shape = np.shape(x)
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 1 and dim == 1:
        return shape[0]
    return 1


# counters: called as fn(counts, result, *args, **kwargs) with the traced call's arguments


def _poly_norm(c, out, f, p, quad=None, refine=True):
    size = quad.size if quad is not None else int(np.prod(4 * (2 * f.support.max_abs + 1)))
    c["spaces.poly_norm.terms"] += size * len(f.support)


def _poly_evaluate(c, out, self, x):
    c["spaces.evaluate.terms"] += _n_points(x, self.support.dim) * len(self.support)


def _basis_evaluate(c, out, self, points):
    c["spaces.evaluate.terms"] += points.shape[0] * self.n_funcs


def _certificate(c, out, system, pointset):
    c["l2disc.l2_certificate.gram_terms"] += pointset.m * system.size**2


def _frobenius(c, out, *args, **kwargs):
    c["l2disc.frobenius.steps"] += len(out.selected)
    c["l2disc.frobenius.bound_violations"] += out.bound_violations()


def _bss(c, out, *args, **kwargs):
    c["l2disc.bss.steps"] += out.steps
    c["l2disc.bss.support"] += out.support


def _certify_l1(c, out, pointset, Q, *args, **kwargs):
    quad_size = math.prod(out.effort.oversample * (2 * int(f) + 1) for f in Q.max_abs)
    c["l1disc.certify_l1.candidates"] += out.n_candidates
    c["l1disc.certify_l1.table_terms"] += len(Q) * (quad_size + pointset.m)


def _greedy_run(c, out, *args, **kwargs):
    c["greedy.bound_violations"] += out.bound_violations()


# (span name, owner object, attribute, counter)
TRACED = [
    ("spaces.poly_norm", spaces, "poly_norm", _poly_norm),
    ("spaces.evaluate", spaces.TrigPolynomial, "evaluate", _poly_evaluate),
    ("spaces.evaluate", spaces.TrigBasis, "evaluate", _basis_evaluate),
    ("spaces.sup_norm", spaces, "sup_norm_on_grid", None),
    ("spaces.real_trig_system", spaces, "real_trig_system", None),
    ("l2disc.l2_certificate", l2disc, "l2_certificate", _certificate),
    ("l2disc.random", l2disc, "random_l2_pointset", None),
    ("l2disc.frobenius", l2disc, "frobenius_rga_pointset", _frobenius),
    ("l2disc.bss", l2disc, "bss_weighted_sparsify", _bss),
    ("l1disc.certify_l1", l1disc, "certify_l1", _certify_l1),
    ("greedy.sigma_m_curve", greedy, "sigma_m_curve", None),
    ("greedy.oga", greedy, "oga", _greedy_run),
    ("greedy.rga", greedy, "rga", _greedy_run),
] + [
    ("dictionaries.build", dictionaries, name, None)
    for name in ("exponential_dict", "shifted_kernel_dict", "kernel_shift_dict", "scaled_kernel_dict", "scaled_basis_dict", "symmetrize")
]


class Tracer:
    """Records spans in memory; ``job`` labels the spans of the running job."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.job)
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, out, *args, **kwargs)
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "normdisc" or n.startswith("normdisc.")]
        for name, owner, attr, counter in TRACED:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn, counter)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def self_times(self, jobs=None) -> dict[str, float]:
        """Self time summed by span name, over spans whose job is in ``jobs`` (all if None)."""
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: defaultdict = defaultdict(float)
        for sid, (name, t0, t1, parent, job) in enumerate(self.spans):
            if jobs is None or job in jobs:
                out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "job": job}) + "\n")
