"""Closed forms that the tests compare lcpforge's constructions with."""

from lcpforge.errors import InputError
from lcpforge.polynomials import IntPoly, is_prime, minpoly_from_traces, trace_polys


def real_subfield_minpoly(m: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/m) for an odd prime m: Phi_m(x) / x**d
    in y = x + 1/x, d = (m - 1)/2, as minpoly_from_traces builds it."""
    if m % 2 == 0 or not is_prime(m):
        raise InputError("index must be an odd prime, got %d" % m)
    return minpoly_from_traces(trace_polys((m - 1) // 2))
