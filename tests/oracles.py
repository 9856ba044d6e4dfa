"""Closed forms that the tests compare lcpforge's constructions with."""

from lcpforge.errors import InputError
from lcpforge.numberfield import galois_generator
from lcpforge.polynomials import IntPoly, is_prime, minpoly_from_traces, trace_polys


def real_subfield_minpoly(m: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/m) for an odd prime m: Phi_m(x) / x**d
    in y = x + 1/x, d = (m - 1)/2, as minpoly_from_traces builds it."""
    if m % 2 == 0 or not is_prime(m):
        raise InputError("index must be an odd prime, got %d" % m)
    return minpoly_from_traces(trace_polys((m - 1) // 2))


def substitute(x, image):
    """The image of x under the field map alpha -> image: x's power-basis
    coordinates as a polynomial, evaluated at image by Horner."""
    acc = image.field.from_rational(x.coords[-1])
    for c in reversed(x.coords[:-1]):
        acc = acc * image + c
    return acc


def galois_sigma(field):
    """sigma_g on the elements of a real cyclotomic subfield, for the residue
    g that galois_generator chooses: x -> x with c_g(alpha) for alpha."""
    cs = trace_polys(field.degree)
    image = field.from_int_poly(cs[galois_generator(field, cs)])
    return lambda x: substitute(x, image)
