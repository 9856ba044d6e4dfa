"""Number fields in the monogenic model Q[x]/(p) with power basis Z[alpha].

Elements are coordinate vectors over the power basis 1, alpha, ...,
alpha^(d-1) with exact rational entries.  The defining polynomial is monic
with integer coefficients, so products reduce by it on integers, over one
common denominator, and Z[alpha] lies in the ring of integers.  Unit-ness
is exact: an element with integer coordinates is an algebraic integer, and
a unit iff its norm, the determinant of its multiplication matrix, is +-1.
Any other element is a unit iff its minimal polynomial, kept as the
primitive integer multiple, is monic with constant term +-1; that
polynomial is derived for such elements, for inverses and for the
minpoly_constant that certificates seal.

The real cyclotomic subfields Q(2cos(2*pi/m)), m an odd prime, are built
from one trace_polys(d) list, d = (m - 1)/2: the field polynomial is
minpoly_from_traces of it, the signature is (d, 0) by construction, as the
roots 2cos(2*pi*k/m) are real and distinct, and galois_generator reads the
residue g of the Galois generator sigma_g off the same list.  Every other
field takes its signature from a Sturm chain.

Irreducibility of a defining polynomial is decided by a layered heuristic:
squarefreeness and rational roots first, then factor-degree patterns modulo
small primes.  The polynomial is monic, so its rational roots are integers,
and each real root's isolating interval, refined to width 1/2, holds at
most one: that integer is tested, and degree <= 3 with none is
irreducible.  A pattern equal to {d} proves irreducibility outright; an
empty intersection of achievable factor degrees across several primes
does too.  Anything else is reported as inconclusive rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import (
    Immutable,
    InconclusiveIrreducibilityError,
    InputError,
    NonIntegralError,
    NonUnitError,
    ReduciblePolynomialError,
)
from .intlinalg import IntMatrix, field_kernel_basis, is_gl_z
from .polynomials import (
    IntPoly,
    as_rat,
    binary_power,
    is_prime,
    isolate_real_roots,
    minpoly_from_traces,
    rat_from_json,
    refine_root,
    sign_at,
    sturm_chain,
)


class NumberField(Immutable):
    """Q[x]/(minpoly) with the power basis of the class of x."""

    __slots__ = ("minpoly", "degree", "signature", "irreducibility")

    def __init__(self, minpoly: IntPoly, irreducibility: str):
        s = sturm_chain(minpoly).count_all()
        self._seal(minpoly, (s, (minpoly.degree - s) // 2), irreducibility)

    @classmethod
    def _totally_real(cls, minpoly: IntPoly, irreducibility: str):
        """The field of a polynomial whose degree-many roots are real and
        distinct by construction, signature (degree, 0) with no Sturm
        chain: the real cyclotomic subfields of constructions._exfield."""
        field = object.__new__(cls)
        field._seal(minpoly, (minpoly.degree, 0), irreducibility)
        return field

    def _seal(self, minpoly, signature, irreducibility):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "degree", minpoly.degree)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "irreducibility", irreducibility)

    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.degree)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def gen(self) -> "FieldElem":
        if self.degree == 1:
            # the root of x - c is the rational c itself
            return self.from_rational(-self.minpoly.constant())
        coords = [0] * self.degree
        coords[1] = 1
        return FieldElem(self, coords)

    def from_rational(self, q) -> "FieldElem":
        coords = [0] * self.degree
        coords[0] = q
        return FieldElem(self, coords)

    def from_coords(self, coords: Sequence) -> "FieldElem":
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise InputError(
                "expected %d coordinates, got %d" % (self.degree, len(coords))
            )
        return FieldElem(self, coords)

    def from_int_poly(self, p: IntPoly) -> "FieldElem":
        return self._reduce(list(p.coeffs), 1)

    def _reduce(self, nums: List[int], den: int) -> "FieldElem":
        """The class of (nums[0] + nums[1] x + nums[2] x^2 + ...) / den.

        The minimal polynomial is monic with integer coefficients, so the
        reduction from the top degree down stays on integers, and den
        divides once at the end.
        """
        m, d = self.minpoly.coeffs, self.degree
        for k in range(len(nums) - 1, d - 1, -1):
            top = nums[k]
            if top:
                for i in range(d):
                    nums[k - d + i] -= top * m[i]
        nums += [0] * (d - len(nums))
        return FieldElem(self, [Fraction(c, den) for c in nums[:d]])

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

    def __repr__(self):
        return "NumberField(%r, signature=%r)" % (self.minpoly, self.signature)


class FieldElem(Immutable):
    """Element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: Sequence):
        coords = tuple(c if type(c) is Fraction else as_rat(c) for c in coords)
        if len(coords) != field.degree:
            raise InputError("coordinate length mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __bool__(self):
        return any(c != 0 for c in self.coords)

    def is_integral_coords(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    # ------------------------------------------------------------------
    def _coerce(self, other) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise InputError("elements live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field, tuple(a * other for a in self.coords))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, da = _over_common_denominator(self.coords)
        b, db = _over_common_denominator(other.coords)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.field._reduce(prod, da * db)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """a**-1 = -(P1 + P2 a + ... + Pk a**(k-1)) / P0, read off the
        minimal polynomial P0 + P1 x + ... + Pk x**k of a by Horner."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        mp = minimal_polynomial(self).coeffs
        if not mp[0]:
            # only a zero divisor, which a field has none of, has P0 = 0
            raise ReduciblePolynomialError(
                "field polynomial shares a factor with an element; field is broken"
            )
        acc = self.field.from_rational(mp[-1])
        for c in reversed(mp[1:-1]):
            acc = acc * self + c
        return acc * Fraction(-1, mp[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise InputError("field element powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, self.field.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, tuple((c.numerator, c.denominator) for c in self.coords)))

    def __repr__(self):
        from .polynomials import poly_to_string

        body = poly_to_string(self.coords, var="a") if self else "0"
        return "FieldElem(%s)" % body

    def to_json(self) -> List[str]:
        return [str(c) for c in self.coords]


def _over_common_denominator(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of rationals over their least common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def elem_from_json(field: NumberField, data: Sequence[str]) -> FieldElem:
    return field.from_coords([rat_from_json(c) for c in data])


# ----------------------------------------------------------------------
# minimal polynomials and units


@lru_cache(maxsize=64)
def minimal_polynomial(a: FieldElem) -> IntPoly:
    """Minimal polynomial over Q of a power-basis element, as its primitive
    integer multiple with positive leading coefficient.

    The first power of the element that depends rationally on the lower
    powers is the first free column of the coordinate matrix of 1, a, ...,
    a^d; its kernel vector, with that coordinate one, holds the monic
    coefficients, which are cleared of their common denominator.  The
    result is irreducible because the ambient ring is a field.

    Cached per element: FieldElem is immutable and hashes on (field
    minpoly, coords), so is_unit, require_unit and every check that reads
    the polynomial share one derivation per element.
    """
    d = a.field.degree
    powers = [a.field.one()]
    for _ in range(d):
        powers.append(powers[-1] * a)
    first = field_kernel_basis(
        [[p.coords[r] for p in powers] for r in range(d)]
    )[0]
    return IntPoly(_over_common_denominator(first)[0]).primitive()


def mult_matrix(u: FieldElem) -> IntMatrix:
    """Matrix of multiplication by u in the power basis: column j holds the
    coordinates of u * x^j.

    Each column is the previous one times x, reduced by the monic integral
    minimal polynomial, so integer coordinates of u give an integer matrix;
    other elements raise NonIntegralError.
    """
    if not u.is_integral_coords():
        raise NonIntegralError(
            "element has non-integer power-basis coordinates; its "
            "multiplication matrix is not integral"
        )
    m = u.field.minpoly.coeffs
    m0, upper = m[0], m[1:-1]
    col = [c.numerator for c in u.coords]
    cols = [col]
    for _ in range(u.field.degree - 1):
        top = col[-1]
        col = [-top * m0, *[c - top * b for c, b in zip(col, upper)]]
        cols.append(col)
    # every entry is an int by construction, so the rows skip IntMatrix's
    # per-entry check
    return IntMatrix._of_ints(tuple(zip(*cols)))


@lru_cache(maxsize=64)
def is_unit(a: FieldElem) -> bool:
    """True iff the element is an algebraic unit.  Exact; no tolerance.

    The defining polynomial is monic and integral, so Z[alpha] lies in the
    ring of integers: an element with integer coordinates is an algebraic
    integer, and it is a unit iff its norm det(mult_matrix(a)) is +-1.
    Other elements are units iff their monic minimal polynomial has integer
    coefficients and constant term +-1 (the golden ratio (1 + a)/2 over
    x^2 - 5 is one), that is iff their primitive integer minimal
    polynomial is monic with constant term +-1.  Cached per element, like
    minimal_polynomial, so the checks that require a unit share one
    decision.
    """
    if a.is_integral_coords():
        return is_gl_z(mult_matrix(a))
    mp = minimal_polynomial(a)
    return mp.is_monic() and abs(mp.constant()) == 1


def require_unit(a: FieldElem, what: str = "element") -> None:
    if not is_unit(a):
        raise NonUnitError("%s is not an algebraic unit: %r" % (what, a))


def real_sign(u: FieldElem, interval) -> int:
    """Exact sign of a nonzero u at the one real root r of the field
    polynomial f in interval = (lo, hi]: the sign of g(r), g the integer
    polynomial of u's coordinates over their positive common denominator.

    Bisects until g's Sturm chain counts no root in (lo, hi]; g then keeps
    one sign there, read at hi.  No midpoint is a root of f: f is
    irreducible, and g is constant when f is linear.
    """
    f = u.field.minpoly
    g = IntPoly(_over_common_denominator(u.coords)[0])
    chain = sturm_chain(g)
    lo, hi = interval
    while chain.count_in(lo, hi):
        mid = (lo + hi) / 2
        if sign_at(f, mid) == sign_at(f, hi):
            hi = mid
        else:
            lo = mid
    return sign_at(g, hi)


# ----------------------------------------------------------------------
# irreducibility heuristic


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _poly_mod(p: IntPoly, q: int) -> List[int]:
    return [c % q for c in p.coeffs]


def _pm_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mulmod(a: List[int], b: List[int], f: List[int], q: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    return _pm_divmod(out, f, q)[1]


def _pm_divmod(a: List[int], f: List[int], q: int) -> Tuple[List[int], List[int]]:
    """Long division of a by f modulo the prime q: (quotient, remainder),
    both trimmed, with deg remainder < deg f."""
    a = _pm_trim(list(a))
    df = len(f) - 1
    quo = [0] * max(1, len(a) - df)
    inv_lead = pow(f[-1], -1, q)
    while len(a) - 1 >= df:
        k = len(a) - 1 - df
        factor = a[-1] * inv_lead % q
        quo[k] = factor
        for i, c in enumerate(f):
            a[k + i] = (a[k + i] - factor * c) % q
        a.pop()
        _pm_trim(a)
    return _pm_trim(quo), a


def _pm_gcd(a: List[int], b: List[int], q: int) -> List[int]:
    a, b = _pm_trim(list(a)), _pm_trim(list(b))
    while b:
        a, b = b, _pm_divmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = [x * inv % q for x in a]
    return a


def _pm_pow_x(e: int, f: List[int], q: int) -> List[int]:
    """x**e modulo (f, q)."""
    x = _pm_divmod([0, 1], f, q)[1]
    return binary_power(x, e, [1], lambda a, b: _pm_mulmod(a, b, f, q))


def _factor_degree_pattern(p: IntPoly, q: int) -> Optional[List[int]]:
    """Multiset of irreducible factor degrees of p mod q, or None if the
    reduction is unusable (degree drop or repeated factors)."""
    f = _poly_mod(p, q)
    f = _pm_trim(f)
    if len(f) - 1 != p.degree:
        return None
    # derivative and squarefreeness mod q
    df = _pm_trim([(i * c) % q for i, c in enumerate(f)][1:])
    if not df or len(_pm_gcd(f, df, q)) - 1 != 0:
        return None
    pattern = []
    work = list(f)
    k = 0
    while len(work) - 1 > 0:
        k += 1
        if 2 * k > len(work) - 1:
            pattern.append(len(work) - 1)
            break
        h = _pm_pow_x(q ** k, work, q)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % q
        g = _pm_gcd(diff, work, q)
        dg = len(g) - 1
        if dg > 0:
            pattern.extend([k] * (dg // k))
            # divide work by g
            work = _pm_divmod(work, g, q)[0]
    return sorted(pattern)


def _subset_sums(pattern: List[int]) -> set:
    sums = {0}
    for x in pattern:
        sums |= {s + x for s in sums}
    return sums


def irreducibility_heuristic(p: IntPoly) -> Tuple[str, str]:
    """Classify a monic integer polynomial: returns (verdict, witness).

    verdict is "irreducible", "reducible" or "inconclusive".  The witness
    explains which layer decided: repeated factors, an integer root (the
    only rational roots a monic polynomial has), no such root at degree
    <= 3, a prime with irreducible reduction, or an empty intersection of
    factor-degree patterns.  A non-monic p raises InputError.
    """
    if not p.is_monic():
        raise InputError("irreducibility is decided for monic polynomials only")
    d = p.degree
    if d < 1:
        return "reducible", "constant polynomial"
    if d == 1:
        return "irreducible", "degree 1"
    if not sturm_chain(p).squarefree:
        return "reducible", "repeated factor (gcd with derivative is nonconstant)"
    for lo, hi in isolate_real_roots(p):
        # p is monic, so a rational root is an integer, and a root's
        # interval refined to width 1/2 holds one at most: the floor of its
        # upper end, as the root lies in (lo, hi] or is lo == hi
        k = floor(refine_root(p, lo, hi, 1)[1])
        if p(k) == 0:
            return "reducible", "rational root %d" % k
    if d <= 3:
        return "irreducible", "degree <= 3 with no rational root"
    patterns = []
    used = []
    for q in _SMALL_PRIMES:
        pat = _factor_degree_pattern(p, q)
        if pat is None:
            continue
        if pat == [d]:
            return "irreducible", "irreducible modulo %d" % q
        patterns.append(pat)
        used.append(q)
        if len(patterns) >= 6:
            break
    if patterns:
        candidates = set(range(1, d))
        for pat in patterns:
            candidates &= _subset_sums(pat)
        if not candidates:
            return (
                "irreducible",
                "no factor degree survives the patterns modulo %s"
                % ",".join(str(q) for q in used),
            )
    return (
        "inconclusive",
        "no modular witness among primes %s" % ",".join(str(q) for q in _SMALL_PRIMES),
    )


@lru_cache(maxsize=64)
def field_new(minpoly: IntPoly) -> NumberField:
    """Construct a number field after vetting the defining polynomial,
    once per polynomial per process: a NumberField is immutable."""
    if not minpoly.is_monic():
        raise InputError("defining polynomial must be monic")
    if minpoly.degree < 1:
        raise InputError("defining polynomial must have degree >= 1")
    verdict, witness = irreducibility_heuristic(minpoly)
    if verdict == "reducible":
        raise ReduciblePolynomialError(
            "defining polynomial is reducible: %s" % witness
        )
    if verdict == "inconclusive":
        raise InconclusiveIrreducibilityError(
            "irreducibility undecided (%s)" % witness
        )
    return NumberField(minpoly, witness)


# ----------------------------------------------------------------------
# Galois structure


def galois_generator(field: NumberField, cs: Sequence[IntPoly]) -> int:
    """The residue g of a generator sigma_g of the automorphism group of a
    real cyclotomic subfield, read off its trace polynomials.

    The field must be Q(2cos(2*pi/m)) for an odd prime conductor m = 2d + 1,
    given by minpoly_from_traces(cs), cs = trace_polys(d); that is checked
    here, and degree one, the trivial group, returns 1.

    sigma_g sends the generator alpha = 2cos(2*pi/m) to c_g(alpha), since
    c_g(z + 1/z) = z^g + z^-g, and it generates the cyclic group of order d
    exactly when g generates (Z/m)^x / {+-1}.  Of those, the g whose image
    has lexicographically least coordinates is returned, the first of order
    d in coordinate order, which makes the choice reproducible.  The
    coordinates of c_g(alpha) are those of c_g for g < d; c_d is monic of
    degree d, like the field polynomial, and one subtraction reduces it.
    No FieldElem is built.
    """
    d = field.degree
    if d == 1:
        return 1
    m, f = 2 * d + 1, field.minpoly.coeffs
    if not is_prime(m) or field.minpoly != minpoly_from_traces(cs):
        raise InputError(
            "Galois generators are only available for real cyclotomic "
            "subfields of prime conductor; %r is not one" % field.minpoly
        )

    def coords(g):
        c = cs[g].coeffs
        if g < d:
            return c + (0,) * (d - 1 - g)
        return tuple(a - b for a, b in zip(c[:-1], f))

    return next(
        g for g in sorted(range(2, d + 1), key=coords) if order_mod_sign(g, m) == d
    )


def order_mod_sign(g: int, m: int) -> int:
    """Order of the class of g in (Z/m)^x / {+-1}."""
    k, power = 1, g % m
    while power not in (1, m - 1):
        k += 1
        power = power * g % m
    return k


def dirichlet_rank_bound(field: NumberField) -> int:
    """Upper bound s + t - 1 for the rank of the unit group."""
    s, t = field.signature
    return s + t - 1
