#!/usr/bin/env python3
"""Vöcking's d-left scheme with double hashing (paper Table 7).

d-left hashing is the multiple-choice layout used in hardware hash tables:
d subtables probed in parallel, ties broken left, giving near-perfect
occupancy with O(1) worst-case lookups.  This example shows the load
distribution under fully random vs double-hashed subtable choices, against
the d-left fluid limit — and contrasts both with the *standard* (symmetric)
d-choice scheme to show why the asymmetric variant is preferred.

Run:  python examples/dleft_hash_table.py [--n 16384] [--d 4]
"""

from __future__ import annotations

import argparse

from repro import DoubleHashingChoices, simulate_batch, simulate_dleft
from repro.core.dleft import make_dleft_scheme
from repro.fluid import solve_balls_bins, solve_dleft


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2**14)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--block", type=int, default=None,
                        help="ball-steps per kernel superblock "
                             "(default: sweep-derived)")
    args = parser.parse_args()
    kernel_kwargs = {} if args.block is None else {"block": args.block}

    print(f"d-left: {args.n} bins in {args.d} subtables of "
          f"{args.n // args.d}, {args.n} balls, {args.trials} trials\n")

    random_dist = simulate_dleft(
        make_dleft_scheme(args.n, args.d, "random"),
        args.n, args.trials, seed=args.seed, **kernel_kwargs,
    ).distribution()
    double_dist = simulate_dleft(
        make_dleft_scheme(args.n, args.d, "double"),
        args.n, args.trials, seed=args.seed + 1, **kernel_kwargs,
    ).distribution()
    fluid = solve_dleft(args.d, 1.0)

    print(f"{'Load':>4}  {'Fully Random':>13}  {'Double Hashing':>14}  "
          f"{'Fluid Limit':>11}")
    width = max(len(random_dist.counts), len(double_dist.counts))
    for load in range(width):
        print(f"{load:>4}  {random_dist.fraction_at(load):>13.5f}  "
              f"{double_dist.fraction_at(load):>14.5f}  "
              f"{fluid.fraction_at(load):>11.5f}")

    # Contrast: the symmetric d-choice scheme on the same geometry.
    standard = simulate_batch(
        DoubleHashingChoices(args.n, args.d), args.n, args.trials,
        seed=args.seed + 2, **kernel_kwargs,
    ).distribution()
    sym_fluid = solve_balls_bins(args.d, 1.0)
    print(f"\nfraction of bins with load >= 2 "
          f"(lower is better for a hash table):")
    print(f"  d-left + double hashing:   {double_dist.tail_at(2):.5f}")
    print(f"  standard + double hashing: {standard.tail_at(2):.5f}")
    print(f"  (fluid limits: {fluid.tails[2]:.5f} vs "
          f"{sym_fluid.tail_at(2):.5f} — asymmetry helps)")
    print(f"max loads: d-left random {random_dist.max_load}, "
          f"d-left double {double_dist.max_load}, "
          f"standard double {standard.max_load}")


if __name__ == "__main__":
    main()
