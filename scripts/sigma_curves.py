#!/usr/bin/env python3
"""Greedy m-term approximation curves over the bundled coefficient balls.

Runs sigma_m_curve for each ball and reports how the measured residuals
sit against the guaranteed envelopes.
"""

import argparse
import sys

from normdisc.greedy import SIGMA_BALLS, sigma_m_curve
from normdisc.spaces import build_hyperbolic_cross, real_trig_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--balls", default=",".join(SIGMA_BALLS))
    ap.add_argument("--m", default="1,2,4,8,16,32")
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    system = real_trig_system(build_hyperbolic_cross(args.n, 1))
    m_list = [int(v) for v in args.m.split(",")]
    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    print("ball,m,median_residual,max_residual,curve,hard_bound", file=fh)
    for ball in args.balls.split(","):
        for pt in sigma_m_curve(system, ball, m_list, n_samples=args.samples):
            hard = "" if pt.hard_bound is None else f"{pt.hard_bound:.6g}"
            print(f"{ball},{pt.m},{pt.median_residual:.6g},{pt.max_residual:.6g},"
                  f"{pt.curve:.6g},{hard}", file=fh)
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
