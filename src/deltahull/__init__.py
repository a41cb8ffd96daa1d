"""Exact-arithmetic toolkit for rational H-polyhedra: vertex enumeration by
basis pivoting, normal-fan triangulations, subdeterminant statistics,
diameter certificates, the barycentric-subdivision generator family, and an
exact integer-point count. Names are reached through their modules
(deltahull.stats.delta_max); the command line is deltahull.cli."""

from . import counting, errors, graphs, hull, linalg, model, serialize, stats, subdivision

__version__ = "0.1.0"
