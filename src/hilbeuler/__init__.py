"""Exact equivariant Euler characteristics of tautological classes on
Hilbert schemes of points in the plane, computed by three independent
methods in exact arithmetic: integer Laurent tables per basis element of f,
with f's rational-function coefficients multiplied in at the end."""

__version__ = "0.1.0"
