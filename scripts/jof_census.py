#!/usr/bin/env python3
"""Census of joint ordered factorisations by dimension vector.

For each product up to a bound, lists how many dims vectors exist and
how many factorisations (equivalently: sum systems, or principal
reversible cuboids) they admit in total.  Shows why exhaustive sweeps
explode: high-order vectors like (2, 2, ..., 2) contribute factorially
many orderings.

Usage: python scripts/jof_census.py [max_product]
"""

import sys
from pathlib import Path

from addsys import count_jofs

# The benchmark's oracle (``perfbench/oracle.py``) lists the dims vectors.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import ordered_factorisations  # noqa: E402


def main() -> None:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    print(f"{'product':>8} {'dims vectors':>13} {'factorisations':>15}  busiest dims")
    grand_vectors = 0
    grand_total = 0
    for product in range(2, bound + 1):
        vectors = 0
        total = 0
        busiest = (0, ())
        for dims in sorted(ordered_factorisations(product)):
            vectors += 1
            n = count_jofs(dims)
            total += n
            if n > busiest[0]:
                busiest = (n, dims)
        grand_vectors += vectors
        grand_total += total
        if total:
            print(f"{product:>8} {vectors:>13} {total:>15}  {busiest[1]} ({busiest[0]})")
    print(f"{'all':>8} {grand_vectors:>13} {grand_total:>15}")


if __name__ == "__main__":
    main()
