"""Randomized exploration of the matrix moves and their function transfers.

Draws random elementary equivalences and vertex expansions, checks the
transfer identities on random functions, and tallies how the bounded strong
shift equivalence search fares on small pairs.

    python3 scripts/explore_random_moves.py --seed 3 --count 50
"""
from __future__ import annotations

import argparse
import random

from sftlab import cohomology as coh
from sftlab import moves
from sftlab import transducers as tr
from sftlab.errors import require
from sftlab.randgen import random_elementary, random_function, random_irreducible


def check_elementary(rng) -> None:
    ee = random_elementary(rng, outer_max=3, inner_max=2, entry_max=2)
    f = random_function(rng, ee.a, max_depth=2, low=-3, high=3)
    g = random_function(rng, ee.b, max_depth=2, low=-3, high=3)
    require(moves.psi(ee, moves.phi(ee, f)) == coh.pullback_sigma(f),
            "psi(phi(f)) is not f(shift .)")
    require(moves.phi(ee, moves.psi(ee, g)) == coh.pullback_sigma(g),
            "phi(psi(g)) is not g(shift .)")


def check_expansion(rng) -> None:
    p = random_irreducible(rng, 5)
    e = moves.expand(p, rng.randrange(p.n_vertices))
    f = random_function(rng, p, max_depth=2)
    ft = random_function(rng, e.expanded, max_depth=2)
    require(moves.psi_xi(e, moves.psi_eta(e, f)) == f, "psi_xi(psi_eta(f)) is not f")
    f0 = coh.multiply(ft, coh.indicator(e.expanded, (0,)))
    require(coh.subtract(moves.psi_eta(e, moves.psi_xi(e, ft)), ft) ==
            coh.subtract(coh.pullback_sigma(f0), f0),
            "psi_eta(psi_xi(f)) - f is not f0(shift .) - f0")
    require(tr.verify_orbit_relation(e.split, e.split_data).holds,
            "the split map fails its orbit relation")


def search_small_pairs(rng, count) -> tuple[int, int]:
    found = 0
    for _ in range(count):
        p = random_irreducible(rng, 2)
        q = random_irreducible(rng, 3)
        res = moves.sse_search(p.adjacency, q.adjacency, chain_bound=2)
        found += res.found is not None
    return found, count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=25)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    for _ in range(args.count):
        check_elementary(rng)
        check_expansion(rng)
    print(f"transfer identities held on {args.count} random elementary"
          f" equivalences and {args.count} random expansions")

    found, tried = search_small_pairs(rng, max(1, args.count // 5))
    print(f"sse chains found for {found}/{tried} random small pairs"
          " (bounded search; misses prove nothing)")


if __name__ == "__main__":
    main()
