#!/usr/bin/env python3
"""Compare leave-one-out strategies (exact / op1 / op2) over a lambda grid.

For each grid value the script runs leave-one-out three ways on the same
synthetic problem and tabulates how many fold problems each strategy solved,
the solver iterations it spent, and wall time.  All three strategies must
reach the same verdict on every fold, not only the same error rate: the
faster ones only skip work that the fold bounds prove unnecessary.  The
script exits with an error naming the lambda and the folds where any two
disagree.

Run from the repository root:

    python scripts/loocv_mode_benchmark.py
    python scripts/loocv_mode_benchmark.py --n 400 --d 100 --loss l2-hinge
"""
from __future__ import annotations

import argparse

import delta_scope as dsc


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11, help="problem seed")
    parser.add_argument("--n", type=int, default=208, help="training instances")
    parser.add_argument("--d", type=int, default=60, help="features")
    parser.add_argument(
        "--loss",
        default="logistic",
        choices=[k.value for k in dsc.LossKind],
        help="loss function",
    )
    parser.add_argument(
        "--min-power", type=int, default=-10, help="smallest lambda as 2**p"
    )
    parser.add_argument(
        "--max-power", type=int, default=0, help="largest lambda as 2**p"
    )
    parser.add_argument(
        "--fold-tol", type=float, default=1e-8, help="fold solve tolerance"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    kind = dsc.LossKind.from_name(args.loss)
    ds = dsc.make_synthetic(args.seed, args.n, args.d, separation=1.0)
    powers = range(args.min_power, args.max_power + 1)
    print(
        f"problem: n={ds.n} d={ds.d} loss={args.loss} "
        f"grid lambda=2^{args.min_power}..2^{args.max_power}"
    )
    print()

    header = (
        f"{'lambda':>10} {'mode':>6} {'errors':>7} {'solves':>7} "
        f"{'iters':>8} {'bound s':>8} {'solve s':>8} {'wall s':>8}"
    )
    print(header)
    print("-" * len(header))

    totals = {mode: [0, 0, 0.0] for mode in dsc.LoocvMode}
    for p in powers:
        lam = float(2.0**p)
        full, _ = dsc.train(ds, lam, kind, tol=1e-10)
        verdicts = {}
        for mode in dsc.LoocvMode:
            res = dsc.run_loocv(
                ds,
                lam,
                kind,
                mode=mode,
                fold_tol=args.fold_tol,
                full=full,
            )
            verdicts[mode] = {o.index: o.correct for o in res.outcomes}
            totals[mode][0] += res.solves_performed
            totals[mode][1] += res.solver_iterations
            totals[mode][2] += res.wall_time
            print(
                f"{f'2^{p}':>10} {mode.value:>6} {res.error_rate:>7.4f} "
                f"{res.solves_performed:>7} {res.solver_iterations:>8} "
                f"{res.bound_time:>8.3f} {res.solve_time:>8.3f} "
                f"{res.wall_time:>8.3f}"
            )
        exact = verdicts[dsc.LoocvMode.EXACT]
        for mode, folds in verdicts.items():
            differ = [h for h in range(ds.n) if folds.get(h) != exact.get(h)]
            if differ:
                raise SystemExit(
                    f"{mode.value} and exact disagree at lambda=2^{p} on "
                    f"{len(differ)} fold verdicts, folds {differ[:10]}"
                )

    print()
    print("totals over the grid (modes agreed on every fold verdict):")
    base_iters = totals[dsc.LoocvMode.EXACT][1]
    for mode in dsc.LoocvMode:
        solves, iters, wall = totals[mode]
        saving = 1.0 - iters / base_iters if base_iters else 0.0
        print(
            f"  {mode.value:>6}: {solves:>5} fold solves, {iters:>7} solver "
            f"iterations ({saving:>6.1%} saved), {wall:>7.3f}s wall"
        )


if __name__ == "__main__":
    main()
