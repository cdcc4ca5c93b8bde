#!/usr/bin/env python3
"""Router-style load balancing: the supermarket model with double hashing.

The paper's motivation: multiple-choice hashing is used in hardware (e.g.
routers), where generating d independent hash values per packet is costly
but double hashing needs only two.  This example simulates a bank of
server queues fed by a Poisson packet stream: each packet samples d queues
and joins the shortest.  It reports mean time-in-system for both schemes
against the fluid-limit equilibrium — the paper's Table 8 experiment.

Run:  python examples/router_load_balancer.py [--queues 1024] [--lam 0.9]
"""

from __future__ import annotations

import argparse

from repro import DoubleHashingChoices, FullyRandomChoices
from repro.fluid import equilibrium_mean_sojourn_time, solve_supermarket
from repro.queueing import simulate_supermarket


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queues", type=int, default=512)
    parser.add_argument("--lam", type=float, default=0.9,
                        help="arrival rate per queue (must be < 1)")
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--time", type=float, default=500.0)
    parser.add_argument("--burn-in", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{args.queues} queues, lambda = {args.lam}, d = {args.d}, "
          f"horizon {args.time}s (burn-in {args.burn_in}s)\n")

    for label, scheme in (
        ("fully random ", FullyRandomChoices(args.queues, args.d)),
        ("double hashing", DoubleHashingChoices(args.queues, args.d)),
    ):
        result = simulate_supermarket(
            scheme, args.lam, args.time,
            burn_in=args.burn_in, seed=args.seed,
        )
        print(f"{label}: mean sojourn {result.mean_sojourn_time:.4f}  "
              f"({result.completed_jobs} jobs, "
              f"mean queue length {result.mean_queue_length:.3f})")

    eq = equilibrium_mean_sojourn_time(args.lam, args.d)
    one_choice = 1.0 / (1.0 - args.lam)  # M/M/1 mean sojourn
    print(f"\nfluid-limit equilibrium:   {eq:.4f}")
    print(f"one-choice (M/M/1) would be: {one_choice:.4f}  "
          f"({one_choice / eq:.1f}x worse)")

    transient = solve_supermarket(args.lam, args.d, args.time)
    print(f"transient fluid mean at t={args.time:.0f}: "
          f"{transient.mean_sojourn_time:.4f}")


if __name__ == "__main__":
    main()
