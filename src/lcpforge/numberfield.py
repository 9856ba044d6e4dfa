"""Number fields in the monogenic model Q[x]/(p) with power basis Z[alpha].

Elements are coordinate vectors over the power basis 1, alpha, ...,
alpha^(d-1) with exact rational entries.  Unit tests of membership go
through minimal polynomials: an element is an algebraic unit iff its monic
minimal polynomial has integer coefficients and constant term +-1, which is
decidable exactly here.

Irreducibility of a defining polynomial is decided by a layered heuristic:
squarefreeness and rational roots first, then factor-degree patterns modulo
small primes.  A pattern equal to {d} proves irreducibility outright; an
empty intersection of achievable factor degrees across several primes does
too.  Anything else is reported as inconclusive rather than assumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ._backend import QQ, ZZ, qq_from_string, qq_to_string
from .errors import (
    InconclusiveIrreducibilityError,
    InputError,
    NonUnitError,
    NotCyclicError,
    NotNormalError,
    ReduciblePolynomialError,
)
from .intlinalg import field_kernel_basis
from .polynomials import (
    IntPoly,
    RatPoly,
    count_real_roots,
    is_prime,
    poly_gcd,
    real_subfield_minpoly,
    trace_poly,
)


class NumberField:
    """Q[x]/(minpoly) with the power basis of the class of x."""

    __slots__ = ("minpoly", "degree", "signature", "irreducibility")

    def __init__(self, minpoly: IntPoly, irreducibility: str):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "degree", minpoly.degree)
        s = count_real_roots(minpoly)
        object.__setattr__(self, "signature", (s, (minpoly.degree - s) // 2))
        object.__setattr__(self, "irreducibility", irreducibility)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def zero(self) -> "FieldElem":
        return FieldElem(self, (QQ(0),) * self.degree)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def gen(self) -> "FieldElem":
        if self.degree == 1:
            # the root of x - c is the rational c itself
            return self.from_rational(-self.minpoly.coeff(0))
        coords = [QQ(0)] * self.degree
        coords[1] = QQ(1)
        return FieldElem(self, coords)

    def from_rational(self, q) -> "FieldElem":
        coords = [QQ(0)] * self.degree
        coords[0] = QQ(q)
        return FieldElem(self, coords)

    def from_coords(self, coords: Sequence) -> "FieldElem":
        coords = tuple(QQ(c) for c in coords)
        if len(coords) != self.degree:
            raise InputError(
                "expected %d coordinates, got %d" % (self.degree, len(coords))
            )
        return FieldElem(self, coords)

    def from_int_poly(self, p: IntPoly) -> "FieldElem":
        return self.from_rat_poly(p.to_rat())

    def from_rat_poly(self, p: RatPoly) -> "FieldElem":
        _, rem = p.divmod(self.minpoly.to_rat())
        coords = [rem.coeff(k) for k in range(self.degree)]
        return FieldElem(self, coords)

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

    def __repr__(self):
        return "NumberField(%r, signature=%r)" % (self.minpoly, self.signature)


class FieldElem:
    """Element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: Sequence):
        coords = tuple(QQ(c) for c in coords)
        if len(coords) != field.degree:
            raise InputError("coordinate length mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __bool__(self):
        return any(c != 0 for c in self.coords)

    def is_integral_coords(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def as_rat_poly(self) -> RatPoly:
        return RatPoly(self.coords)

    def as_int_poly(self) -> IntPoly:
        if not self.is_integral_coords():
            raise InputError("element has non-integer coordinates")
        return IntPoly(ZZ(c.numerator) for c in self.coords)

    # ------------------------------------------------------------------
    def _coerce(self, other) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise InputError("elements live in different fields")
            return other
        if isinstance(other, int) or type(other) is type(ZZ(0)) or type(other) is type(QQ(0)):
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
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) or type(other) is type(ZZ(0)) or type(other) is type(QQ(0)):
            return FieldElem(self.field, tuple(a * QQ(other) for a in self.coords))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = self.as_rat_poly() * other.as_rat_poly()
        return self.field.from_rat_poly(prod)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Extended Euclid against the minimal polynomial of the field."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a = self.as_rat_poly()
        b = self.field.minpoly.to_rat()
        # track u with u*a == gcd modulo minpoly
        r0, r1 = a, b
        u0, u1 = RatPoly((QQ(1),)), RatPoly(())
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
        if r0.degree != 0:
            # the minimal polynomial is irreducible, so gcd must be constant
            raise ReduciblePolynomialError(
                "field polynomial shares a factor with an element; field is broken"
            )
        inv_poly = u0 * (QQ(1) / r0.constant())
        return self.field.from_rat_poly(inv_poly)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        return coerced * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise InputError("field element powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, type(ZZ(0)), type(QQ(0)))):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, tuple((int(c.numerator), int(c.denominator)) for c in self.coords)))

    def __repr__(self):
        from .polynomials import poly_to_string

        body = poly_to_string(self.as_rat_poly(), var="a") if self else "0"
        return "FieldElem(%s)" % body

    def to_json(self) -> List[str]:
        return [qq_to_string(c) for c in self.coords]


def elem_from_json(field: NumberField, data: Sequence[str]) -> FieldElem:
    try:
        return field.from_coords([qq_from_string(str(c)) for c in data])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad element JSON: %s" % exc) from None


def elem_arith(a: FieldElem, b: FieldElem, op: str) -> FieldElem:
    """String-dispatched arithmetic surface: add, sub, mul, div, pow."""
    if op == "pow":
        # exponent must be a rational integer element
        if any(c for c in b.coords[1:]) or b.coords[0].denominator != 1:
            raise InputError("pow exponent must be a rational integer")
        return a ** int(b.coords[0])
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise InputError("unknown field operation %r" % op)


# ----------------------------------------------------------------------
# minimal polynomials and units


def minimal_polynomial(a: FieldElem) -> RatPoly:
    """Monic minimal polynomial over Q of a power-basis element.

    The first power of the element that depends rationally on the lower
    powers is the first free column of the coordinate matrix of 1, a, ...,
    a^d; its kernel vector, with that coordinate one, holds the coefficients.
    The result is irreducible because the ambient ring is a field.
    """
    d = a.field.degree
    powers = [a.field.one()]
    for _ in range(d):
        powers.append(powers[-1] * a)
    first = field_kernel_basis(
        [[p.coords[r] for p in powers] for r in range(d)]
    )[0]
    return RatPoly(first)


def is_unit(a: FieldElem) -> bool:
    """True iff the element is an algebraic unit.

    Criterion: the monic minimal polynomial has integer coefficients and
    constant term +-1.  Exact; no tolerance is involved.
    """
    if not a:
        return False
    mp = minimal_polynomial(a)
    if not mp.is_integral():
        return False
    return abs(mp.constant()) == 1


def require_unit(a: FieldElem, what: str = "element") -> None:
    if not is_unit(a):
        raise NonUnitError("%s is not an algebraic unit: %r" % (what, a))


# ----------------------------------------------------------------------
# irreducibility heuristic


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _trial_divisors(n: int, limit: int = 10 ** 6) -> Tuple[List[int], bool]:
    """Positive divisors of |n| by trial division; flag says 'complete'."""
    n = abs(int(n))
    if n == 0:
        return [], False
    factors = {}
    rest = n
    f = 2
    while f * f <= rest and f <= limit:
        while rest % f == 0:
            factors[f] = factors.get(f, 0) + 1
            rest //= f
        f += 1 if f == 2 else 2
    complete = True
    if rest > 1:
        if rest <= limit * limit and (rest < limit or is_prime(rest)):
            factors[rest] = factors.get(rest, 0) + 1
        else:
            complete = False
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(set(divs)), complete


def _rational_roots(p: IntPoly) -> Tuple[List, bool]:
    """Rational roots via the integer root theorem; flag says 'complete'."""
    if p.constant() == 0:
        return [QQ(0)], True
    nums, cn = _trial_divisors(p.constant())
    dens, cd = _trial_divisors(p.leading())
    roots = []
    for a in nums:
        for b in dens:
            for cand in (QQ(a, b), QQ(-a, b)):
                if p(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots, cn and cd

def _poly_mod(p: IntPoly, q: int) -> List[int]:
    return [int(c) % q for c in p.coeffs]


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
    return _pm_rem(out, f, q)


def _pm_rem(a: List[int], f: List[int], q: int) -> List[int]:
    a = _pm_trim(list(a))
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, q)
    while len(a) - 1 >= df:
        k = len(a) - 1 - df
        factor = a[-1] * inv_lead % q
        for i, c in enumerate(f):
            a[k + i] = (a[k + i] - factor * c) % q
        a.pop()
        _pm_trim(a)
    return a


def _pm_gcd(a: List[int], b: List[int], q: int) -> List[int]:
    a, b = _pm_trim(list(a)), _pm_trim(list(b))
    while b:
        r = _pm_rem(a, b, q)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, q)
        a = [x * inv % q for x in a]
    return a


def _pm_pow_x(e: int, f: List[int], q: int) -> List[int]:
    """x**e modulo (f, q) by square and multiply on the exponent bits."""
    result = [1]
    base = _pm_rem([0, 1], f, q)
    while e:
        if e & 1:
            result = _pm_mulmod(result, base, f, q)
        base = _pm_mulmod(base, base, f, q)
        e >>= 1
    return result


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
            work = _pm_divide(work, g, q)
    return sorted(pattern)


def _pm_divide(a: List[int], b: List[int], q: int) -> List[int]:
    a = _pm_trim(list(a))
    out = [0] * max(1, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b):
        k = len(a) - len(b)
        factor = a[-1] * inv % q
        out[k] = factor
        for i, c in enumerate(b):
            a[k + i] = (a[k + i] - factor * c) % q
        a.pop()
        _pm_trim(a)
    return _pm_trim(out)


def _subset_sums(pattern: List[int]) -> set:
    sums = {0}
    for x in pattern:
        sums |= {s + x for s in sums}
    return sums


def irreducibility_heuristic(p: IntPoly) -> Tuple[str, str]:
    """Classify a monic integer polynomial: returns (verdict, witness).

    verdict is "irreducible", "reducible" or "inconclusive".  The witness
    explains which layer decided: repeated factors, a rational root, the
    complete low-degree root test, a prime with irreducible reduction, or an
    empty intersection of factor-degree patterns.
    """
    d = p.degree
    if d < 1:
        return "reducible", "constant polynomial"
    if d == 1:
        return "irreducible", "degree 1"
    if poly_gcd(p, p.derivative()).degree > 0:
        return "reducible", "repeated factor (gcd with derivative is nonconstant)"
    roots, complete = _rational_roots(p)
    if roots:
        return "reducible", "rational root %s" % qq_to_string(roots[0])
    if d <= 3 and complete:
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


def field_new(minpoly: IntPoly, force: bool = False) -> NumberField:
    """Construct a number field after vetting the defining polynomial."""
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
        if not force:
            raise InconclusiveIrreducibilityError(
                "irreducibility undecided (%s); pass force=True to proceed" % witness
            )
        witness = "assumed by caller; heuristics inconclusive (%s)" % witness
    return NumberField(minpoly, witness)


# ----------------------------------------------------------------------
# Galois structure


class GaloisMap:
    """Field endomorphism determined by the image of the generator."""

    __slots__ = ("field", "image")

    def __init__(self, field: NumberField, image: FieldElem):
        if image.field != field:
            raise InputError("image lives in a different field")
        check = field.minpoly(image)
        if check:
            raise InputError("image is not a root of the defining polynomial")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError("GaloisMap is immutable")

    def apply(self, elem: FieldElem) -> FieldElem:
        if elem.field != self.field:
            raise InputError("element lives in a different field")
        return elem.as_rat_poly()(self.image)

    def __call__(self, elem: FieldElem) -> FieldElem:
        return self.apply(elem)

    def compose(self, other: "GaloisMap") -> "GaloisMap":
        return GaloisMap(self.field, self.apply(other.image))

    def power(self, k: int) -> "GaloisMap":
        if k < 0:
            raise InputError("negative powers of a Galois map are not needed")
        result = GaloisMap(self.field, self.field.gen())
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self.image == self.field.gen()

    def order(self) -> int:
        current = self
        for k in range(1, self.field.degree + 1):
            if current.is_identity():
                return k
            current = self.compose(current)
        raise NotCyclicError("map order exceeds the field degree")

    def __eq__(self, other):
        if not isinstance(other, GaloisMap):
            return NotImplemented
        return self.field == other.field and self.image == other.image

    def __hash__(self):
        return hash(("GaloisMap", self.image))

    def __repr__(self):
        return "GaloisMap(alpha -> %r)" % self.image


def conjugates_in_field(field: NumberField) -> List[FieldElem]:
    """All roots of the defining polynomial lying in the field itself.

    Cyclotomic real subfields are handled exactly through the trace
    polynomials c_g (the images of 2cos(2*pi/m) under the Galois action are
    c_g evaluated at the generator).  Other fields go through a numeric
    reconstruction with exact verification of every candidate.
    """
    d = field.degree
    if d == 1:
        return [field.gen()]
    m = 2 * d + 1
    if is_prime(m) and field.minpoly == real_subfield_minpoly(m):
        out = []
        for g in range(1, d + 1):
            cand = field.from_int_poly(trace_poly(g))
            if cand not in out:
                out.append(cand)
        return out
    return _conjugates_by_search(field)


def _conjugates_by_search(field: NumberField) -> List[FieldElem]:
    """Numeric reconstruction of the conjugates lying in the field.

    Interpolates candidate coordinate polynomials through permutations of
    the numeric roots, commuting with complex conjugation, then verifies
    p(candidate) == 0 exactly.  Practical for degree <= 8; the exact
    verification step means a wrong candidate can never leak through.
    """
    from mpmath import mp

    from .embeddings import all_roots_numeric

    d = field.degree
    if d > 8:
        raise InputError(
            "conjugate search is only supported up to degree 8; degree %d field "
            "needs explicitly provided structure" % d
        )
    prec = 256 + 32 * d
    roots, conj_pairing = all_roots_numeric(field, prec)
    with mp.workprec(prec):
        # Lagrange basis coefficients over the numeric roots
        basis = []
        for i in range(d):
            num = [mp.mpc(1)]
            den = mp.mpc(1)
            for j in range(d):
                if j == i:
                    continue
                num = _poly_mul_c(num, [-roots[j], mp.mpc(1)])
                den *= roots[i] - roots[j]
            basis.append([c / den for c in num])
        found: List[FieldElem] = []
        alpha = field.gen()
        for k in range(d):
            if _is_close(roots[k], roots[0], prec):
                continue
            hit = None
            for perm in _conjugation_permutations(d, k, conj_pairing):
                coeffs = [mp.mpc(0)] * d
                for i in range(d):
                    ri = roots[perm[i]]
                    for j in range(d):
                        coeffs[j] += ri * basis[i][j]
                cand = _rationalize(coeffs, prec)
                if cand is None:
                    continue
                elem = field.from_coords(cand)
                if not field.minpoly(elem):
                    hit = elem
                    break
            if hit is not None and hit not in found and hit != alpha:
                found.append(hit)
        return found


def _poly_mul_c(a, b):
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _is_close(a, b, prec):
    from mpmath import mpf

    return abs(a - b) < mpf(2) ** (-prec // 2)


def _conjugation_permutations(d: int, k: int, pairing: Dict[int, int]):
    """Permutations of root indices with perm[0] == k that commute with the
    complex-conjugation involution on the indices."""
    perm = [None] * d

    def assign(i, v, used):
        updates = []
        stack = [(i, v)]
        ok = True
        while stack:
            a, b = stack.pop()
            if perm[a] is not None:
                if perm[a] != b:
                    ok = False
                    break
                continue
            if b in used:
                ok = False
                break
            perm[a] = b
            used.add(b)
            updates.append((a, b))
            stack.append((pairing[a], pairing[b]))
        return ok, updates

    def undo(updates, used):
        for a, b in updates:
            perm[a] = None
            used.discard(b)

    used: set = set()

    def backtrack(pos):
        if pos == d:
            yield tuple(perm)
            return
        if perm[pos] is not None:
            yield from backtrack(pos + 1)
            return
        for v in range(d):
            if v in used:
                continue
            ok, updates = assign(pos, v, used)
            if ok:
                yield from backtrack(pos + 1)
            undo(updates, used)

    ok, updates = assign(0, k, used)
    if ok:
        yield from backtrack(1)
    undo(updates, used)


def _rationalize(coeffs, prec) -> Optional[List]:
    """Round numeric coordinates to rationals with bounded denominators."""
    from mpmath import mpf

    tol = mpf(2) ** (-prec // 2)
    out = []
    for c in coeffs:
        if abs(c.imag) > tol:
            return None
        q = _nearest_rational(c.real, 10 ** 6, tol)
        if q is None:
            return None
        out.append(q)
    return out


def _nearest_rational(x, max_den: int, tol):
    """Continued-fraction convergent with denominator bound, or None."""
    from mpmath import mp, mpf

    p0, q0, p1, q1 = ZZ(0), ZZ(1), ZZ(1), ZZ(0)
    rem = x
    for _ in range(64):
        a = ZZ(int(mp.floor(rem)))
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1 > max_den:
            break
        if abs(x - mpf(int(p1)) / mpf(int(q1))) < tol:
            return QQ(p1, q1)
        frac = rem - a
        if abs(frac) < tol:
            break
        rem = 1 / frac
    return None


def galois_generator(field: NumberField) -> GaloisMap:
    """A generator of the automorphism group for a cyclic Galois field.

    Among the conjugates of the generator lying in the field, picks those
    whose orbit has full length and returns the one with lexicographically
    smallest coordinates, which makes the choice reproducible.
    """
    d = field.degree
    alpha = field.gen()
    if d == 1:
        return GaloisMap(field, alpha)
    conj = conjugates_in_field(field)
    candidates = [c for c in conj if c != alpha]
    if not candidates:
        raise NotNormalError(
            "no conjugate of the generator lies in the field; the field is "
            "not normal over Q"
        )
    generators = []
    for image in candidates:
        tau = GaloisMap(field, image)
        seen = alpha
        size = 0
        for _ in range(d):
            seen = tau.apply(seen)
            size += 1
            if seen == alpha:
                break
        if size == d and seen == alpha:
            generators.append(tau)
    if not generators:
        raise NotCyclicError(
            "conjugates exist but none generates a full orbit; the Galois "
            "group is not cyclic of order %d over this field" % d
        )
    generators.sort(key=lambda t: tuple(t.image.coords))
    return generators[0]


def dirichlet_rank_bound(field: NumberField) -> int:
    """Upper bound s + t - 1 for the rank of the unit group."""
    s, t = field.signature
    return s + t - 1
