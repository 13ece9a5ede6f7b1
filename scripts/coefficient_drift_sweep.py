#!/usr/bin/env python3
"""Sweep update sizes and report certified coefficient boxes vs. exact retrains.

Trains one model on a synthetic problem, then applies nested updates of
growing size: one pool of arrivals and departures is drawn up front and each
sweep point uses a prefix of it (half additions, half removals), so every
update extends the previous one and the width growth is deterministic for a
given seed.  For every update size the script prints the certified
per-coefficient interval next to the coefficient of the exactly retrained
model, confirms containment, and tracks how the interval width grows with
the number of changed instances.

Run from the repository root:

    python scripts/coefficient_drift_sweep.py
    python scripts/coefficient_drift_sweep.py --n 2000 --lam 0.05 --loss l2-hinge
"""
from __future__ import annotations

import argparse

import numpy as np

import delta_scope as dsc

EXACT_TOL = 1e-12


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="problem seed")
    parser.add_argument("--n", type=int, default=1000, help="training instances")
    parser.add_argument("--d", type=int, default=5, help="features")
    parser.add_argument("--lam", type=float, default=0.1, help="L2 strength")
    parser.add_argument(
        "--loss",
        default="logistic",
        choices=[k.value for k in dsc.LossKind],
        help="loss function",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1, 2, 5, 10, 20, 50],
        help="total changed instances per sweep point",
    )
    return parser.parse_args()


def draw_update_pool(
    ds: dsc.SparseDataset, rng: np.random.Generator, k_max: int
) -> tuple[dsc.SparseDataset, np.ndarray]:
    """One shared pool of arrivals and departure indices; sweeps take prefixes."""
    pool_add = k_max // 2 + k_max % 2
    pool_remove = min(k_max // 2, ds.n - 1)
    arrivals = dsc.make_synthetic(int(rng.integers(2**31)), pool_add, ds.d)
    departures = rng.choice(ds.n, size=pool_remove, replace=False)
    return arrivals, departures


def prefix_update(
    arrivals: dsc.SparseDataset, departures: np.ndarray, k_total: int
) -> tuple[dsc.SparseDataset | None, tuple[int, ...]]:
    """The nested update of size k_total: first ceil(k/2) arrivals, floor(k/2) departures."""
    n_add = min(k_total // 2 + k_total % 2, arrivals.n)
    n_remove = min(k_total - n_add, len(departures))
    added = arrivals.take(list(range(n_add))) if n_add else None
    removed_idx = tuple(int(i) for i in np.sort(departures[:n_remove]))
    return added, removed_idx


def main() -> None:
    args = parse_args()
    kind = dsc.LossKind.from_name(args.loss)
    rng = np.random.default_rng(args.seed)

    ds = dsc.make_synthetic(int(rng.integers(2**31)), args.n, args.d)
    old, report = dsc.train(ds, args.lam, kind, tol=EXACT_TOL)
    print(
        f"base model: n={ds.n} d={ds.d} lam={args.lam} loss={args.loss} "
        f"({report.iterations} iterations, grad norm {report.final_grad_norm:.2e})"
    )

    header = f"{'k':>4} {'radius':>12} {'max width':>12} {'mean width':>12} {'contained':>10}"
    print()
    print(header)
    print("-" * len(header))

    arrivals, departures = draw_update_pool(ds, rng, max(args.sizes))
    rows = []
    for k_total in sorted(args.sizes):
        added, removed_idx = prefix_update(arrivals, departures, k_total)
        removed = ds.take(list(removed_idx)) if removed_idx else None
        stats = dsc.compute_delta_s(old, added, removed)
        ball = dsc.old_optimum_ball(old, stats)
        box = dsc.coefficient_bounds(ball)

        new_ds = dsc.apply_update(ds, added, removed_idx)
        exact, _ = dsc.train(new_ds, args.lam, kind, tol=EXACT_TOL, init=old.beta)

        widths = box.upper - box.lower
        contained = bool(
            np.all(box.lower <= exact.beta) and np.all(exact.beta <= box.upper)
        )
        rows.append((k_total, box, exact, contained))
        print(
            f"{k_total:>4} {ball.radius:>12.4e} {widths.max():>12.4e} "
            f"{widths.mean():>12.4e} {'yes' if contained else 'NO':>10}"
        )

    k_last, box, exact, _ = rows[-1]
    print()
    print(f"per-coefficient detail at k={k_last}:")
    print(f"{'j':>4} {'lower':>14} {'exact':>14} {'upper':>14}")
    for j in range(ds.d):
        print(
            f"{j:>4} {box.lower[j]:>14.8f} {exact.beta[j]:>14.8f} "
            f"{box.upper[j]:>14.8f}"
        )

    if all(contained for _, _, _, contained in rows):
        print()
        print("every exact retrained coefficient fell inside its certified box")
    else:
        raise SystemExit("containment violated — this indicates a bug")


if __name__ == "__main__":
    main()
