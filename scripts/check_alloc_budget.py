#!/usr/bin/env python3
"""Gate the arena's steady-state allocation rate against a committed budget.

bench_runtime's alloc-audit act drives closed-loop traffic through the
staged assembly path and emits alloc_audit.csv with a "steady" row counting
arena slab mallocs per request after warm-up. The arena's contract is
that the steady-state hot path never allocates — every staging block is a
free-list hit — so that number must stay at ~0 forever.

The budget lives in bench_results/alloc_budget.txt (a single float;
'#' comments allowed). This check is strict by design, unlike the
throughput comparison in check_bench_regression.py: allocation counts are
deterministic, so there is no runner noise to absorb.

Usage:
  check_alloc_budget.py --csv build/bench/bench_results/smoke/alloc_audit.csv \
      --budget bench_results/alloc_budget.txt
"""

import argparse
import csv
import sys

VALUE_COL = "allocs per request"


def read_budget(path):
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                return float(line)
    sys.exit(f"{path}: no budget value found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--csv", required=True,
                    help="alloc_audit.csv from a bench_runtime run")
    ap.add_argument("--budget", required=True,
                    help="committed budget file (bench_results/alloc_budget.txt)")
    args = ap.parse_args()

    budget = read_budget(args.budget)
    steady = None
    with open(args.csv, newline="") as f:
        for row in csv.DictReader(f):
            if row.get("phase", "").strip() == "steady":
                try:
                    steady = float(row[VALUE_COL])
                except (KeyError, ValueError) as e:
                    sys.exit(f"{args.csv}: bad steady row {row!r}: {e}")
    if steady is None:
        sys.exit(f"{args.csv}: no 'steady' phase row")

    print(f"alloc-budget: steady state {steady:.4f} slab allocs/request "
          f"(budget {budget:.4f})")
    if steady > budget:
        print("alloc-budget: OVER BUDGET — the steady-state hot path is "
              "allocating; arena free-list reuse is broken")
        return 1
    print("alloc-budget: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
