"""Profile the radial approach of the doubled-word sequence: bracket widths
for the limit point and the distance from each orbit point theta_n(i) to the
geodesic ray aimed at it.

Usage: python scripts/radial_profile.py [n_max]
"""

import sys

from schottky_limits.limits import (
    estimate_limit_point,
    limit_point_brackets,
    radial_check,
)
from schottky_limits.schottky import default_generators


def main(argv):
    n_max = int(argv[1]) if len(argv) > 1 else 12
    sd = default_generators()

    brackets, orbit = limit_point_brackets(sd, n_max)
    witness = radial_check(estimate_limit_point(brackets, 1e-10), orbit)

    print(f"eta = {float(witness.eta.x):.12g}")
    print(f"{'n':>3} {'bracket width':>14} {'dist to ray':>12}")
    for (lo, hi), (n, d) in zip(brackets, witness.per_n):
        print(f"{n:>3} {float(hi - lo):>14.4e} {d:>12.6f}")
    print(f"\nconstant c = {witness.constant_c:.6f}, "
          f"bounded trend: {witness.bounded_trend}")
    return 0 if witness.bounded_trend else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
