"""Walk a small family of shifts, print their invariant reports, and decide
flow and orbit equivalence for every pair.  Then expand each matrix once and
confirm the flow invariants do not move.

Run from the repository root:

    python3 scripts/demo_classification.py
"""
from __future__ import annotations

import argparse

from sftlab import classify, moves
from sftlab.errors import require
from sftlab.shifts import validate

FAMILY = (
    ("fibonacci", "vertex", ((1, 1), (1, 0))),
    ("full-2", "vertex", ((1, 1), (1, 1))),
    ("full-3", "vertex", ((1, 1, 1), (1, 1, 1), (1, 1, 1))),
    ("two-loops", "edge", ((2,),)),
    ("lazy-golden", "vertex", ((1, 1, 0), (0, 0, 1), (1, 0, 0))),
)


def show_invariants(name, p):
    inv = classify.invariants(p)
    lo, hi = inv.spectral_radius_bounds
    print(f"{name}:")
    print(f"  bf-group: {inv.bf_group.describe()}")
    print(f"  det-sign: {inv.det_sign}")
    print(f"  k0-pointed: {inv.k0_pointed.group.describe()}"
          f" marked={list(inv.k0_pointed.marked)}")
    print(f"  spectral-radius in [{lo}, {hi}]")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    shifts = [(name, validate(rows, kind)) for name, kind, rows in FAMILY]

    for name, p in shifts:
        show_invariants(name, p)
    print()

    print("pairwise verdicts:")
    for i, (na, pa) in enumerate(shifts):
        for nb, pb in shifts[i + 1:]:
            flow = classify.flow_equivalent(pa, pb)
            coe = classify.coe_verdict(pa, pb)
            print(f"  {na} vs {nb}: flow={'yes' if flow.verdict else 'no'}"
                  f" coe={coe.verdict}  ({flow.reason})")
    print()

    print("one expansion step leaves the flow invariants unchanged:")
    for name, p in shifts:
        if p.kind != "vertex":
            continue
        e = moves.expand(p)
        flow = classify.flow_equivalent(p, e.expanded)
        require(flow.verdict, f"{name}: expansion moved the flow invariants")
        print(f"  {name}: {p.n_vertices} -> {e.expanded.n_vertices} vertices,"
              f" still {flow.a.bf_group.describe()} /"
              f" sign {flow.a.det_sign}")


if __name__ == "__main__":
    main()
