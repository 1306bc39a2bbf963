#!/usr/bin/env python3
"""Sweep random L2 point sets over m and record certificate eps.

Shows the ~1/sqrt(m) decay of the sampling error and the gap to the
greedy and reweighted constructions at equal budget.
"""

import argparse
import sys

import numpy as np

from normdisc.l2disc import bss_weighted_sparsify, frobenius_rga_pointset, l2_certificate, random_l2_pointset
from normdisc.spaces import build_hyperbolic_cross, real_trig_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="hyperbolic cross parameter")
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    Q = build_hyperbolic_cross(args.n, args.dim)
    system = real_trig_system(Q)
    N = system.size
    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    print("N,m,method,eps_median,eps_max", file=fh)

    for mult in (2, 4, 8, 16, 32):
        m = mult * N
        eps = [random_l2_pointset(system, m, seed=s)[1].eps for s in range(args.seeds)]
        print(f"{N},{m},random,{np.median(eps):.6g},{max(eps):.6g}", file=fh)
        g = frobenius_rga_pointset(system, m).certificate.eps
        print(f"{N},{m},greedy,{g:.6g},{g:.6g}", file=fh)

    bss = bss_weighted_sparsify(system, 4.0)
    cert = l2_certificate(system, bss.pointset)
    print(f"{N},{bss.pointset.m},bss,{cert.eps:.6g},{cert.eps:.6g}", file=fh)
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
