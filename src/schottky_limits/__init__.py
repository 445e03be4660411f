"""Exact construction and bounded verification of a rank-2 Schottky group
whose odd/even doubled-word subgroups intersect trivially yet share a radial
limit point on the boundary of the hyperbolic plane.

The package root exports only __version__; import every other name from its
module, such as schottky_limits.schottky or schottky_limits.limits.
"""

__version__ = "0.1.0"
