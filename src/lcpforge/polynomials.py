"""Exact univariate polynomial arithmetic over Z.

Coefficients are stored lowest degree first, so ``p.coeffs[k]`` is the
coefficient of x**k.  IntPoly is the one polynomial class: its coefficients
are Python ints, an int operand lifts to a constant polynomial, and any
other operand, a Fraction included, is refused.  Every derived polynomial
stays on integers: _prs, the one primitive pseudo-remainder loop, scales a
remainder by the divisor's leading coefficient instead of dividing, and
each member is the primitive integer multiple of its rational counterpart.
Rationals appear only at the boundaries: as evaluation points, interval
endpoints and JSON.  binary_power is the one square-and-multiply loop.

Real roots: sturm_chain(p) runs that sequence on p and p' once per process,
and gcd, squarefree part, squarefreeness, signature and isolation all come
from it.  Bisection on the chain's counts separates roots, and refinement
bisects the sign-change bracket so that every enclosure is certified.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from .errors import InputError


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def as_int(c) -> int:
    """c as an int.  An int or a Fraction with denominator 1 converts;
    anything else, such as 1/2, a float or a bool, raises InputError rather
    than being truncated or read as 0 or 1."""
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise InputError("expected an integer, got %r" % (c,))


def as_rat(c) -> Fraction:
    """c as a Fraction.  An int or a Fraction converts; anything else,
    such as the float 0.1 or an mpf, raises InputError rather than being
    read as its binary expansion."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise InputError("expected a rational, got %r" % (c,))


def binary_power(base, k: int, one, mul=operator.mul):
    """base**k for an integer k >= 0 by square and multiply on the bits of
    k, starting from the identity one; mul is the ring product."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


class IntPoly:
    """Dense immutable polynomial with integer coefficients, lowest degree
    first.  An int operand lifts to a constant polynomial; any other
    operand, such as a Fraction, is refused with TypeError rather than
    truncated."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(
            self, "coeffs", _strip(c if type(c) is int else as_int(c) for c in coeffs)
        )

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # ------------------------------------------------------------------
    # structure
    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # ------------------------------------------------------------------
    # ring operations
    def __add__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        return binary_power(self, n, IntPoly((1,)))

    def __call__(self, x):
        """Horner evaluation; works for any ring element with + and *."""
        if not self.coeffs:
            return x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def content(self) -> int:
        return gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Divide out the content and make the leading term positive."""
        g = self.content()
        if g == 0:
            return self
        if self.leading() < 0:
            g = -g
        return IntPoly(c // g for c in self.coeffs)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPoly(%s)" % poly_to_string(self)


def _as_int_poly(x):
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return IntPoly((x,))
    return NotImplemented


def int_poly_exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact division over Z by integer long division; raises InputError if
    a quotient coefficient needs a denominator or a remainder is left."""
    rem, d = list(num.coeffs), den.coeffs
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [0] * max(0, len(rem) - len(d) + 1)
    for k in reversed(range(len(quo))):
        q, r = divmod(rem.pop(), d[-1])
        if r:
            raise InputError("polynomial quotient needs denominators")
        quo[k] = q
        for i, c in enumerate(d[:-1]):
            rem[k + i] -= q * c
    if any(rem):
        raise InputError("polynomial division left a remainder")
    return IntPoly(quo)


def _prs(a, b):
    """The primitive pseudo-remainder sequence a, b, r2, ... of integer
    coefficient sequences, r(k+1) = -(r(k-1) mod r(k)) over its positive
    content until it is zero, so the last member is a gcd of a and b.  Each
    remainder is a pseudo-remainder by r(k) made positive-leading: a
    positive multiple of the true one, so no sign changes."""
    seq = [a]
    while b:
        seq.append(b)
        r = _pseudo_remainder(a, b if b[-1] > 0 else [-c for c in b])
        a, b = b, _without_content([-c for c in r])
    return seq


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of a mod b, for integer
    coefficient sequences with b nonzero: each step scales the remainder by
    lead(b) over its gcd with the top coefficient, so no step divides.  The
    multiple is positive when lead(b) is."""
    rem = list(a)
    lead, db = b[-1], len(b) - 1
    while len(rem) > db:
        top = rem.pop()
        if top:
            g = gcd(top, lead)
            scale, top = lead // g, top // g
            k = len(rem) - db
            if scale != 1:
                rem = [c * scale for c in rem]
            for i in range(db):
                rem[k + i] -= top * b[i]
    return rem


# ----------------------------------------------------------------------
# domain constructions


def trace_polys(n: int) -> List[IntPoly]:
    """[c_0, ..., c_n] with c_k(z + 1/z) = z**k + z**-k, in one pass.

    Recurrence c_0 = 2, c_1 = y, c_{k+1} = y*c_k - c_{k-1}; these are the
    rescaled Chebyshev polynomials 2*T_k(y/2).
    """
    if n < 0:
        raise InputError("trace polynomial index must be >= 0")
    cs = [[2], [0, 1]]
    while len(cs) <= n:
        c = [0, *cs[-1]]
        for i, x in enumerate(cs[-2]):
            c[i] -= x
        cs.append(c)
    return [IntPoly(c) for c in cs[: n + 1]]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def minpoly_from_traces(cs: Sequence[IntPoly]) -> IntPoly:
    """sum(c_k) - 1 for cs = trace_polys(d): the minimal polynomial of
    2cos(2*pi/m), m = 2d + 1 an odd prime, read off a trace-polynomial list
    that a caller already holds.

    The cyclotomic polynomial of an odd prime m is palindromic of degree
    m - 1, so dividing it by x**d and substituting y = x + 1/x gives a
    monic integer polynomial of degree d:

        Phi_m(x) / x**d = 1 + sum_{k=1..d} (x**k + x**-k) = 1 + sum c_k(y).
    """
    # c_0 = 2 is in the sum, so the constant term starts at -1
    out = [-1] + [0] * (len(cs) - 1)
    for c in cs:
        for i, x in enumerate(c.coeffs):
            out[i] += x
    return IntPoly(out)


# ----------------------------------------------------------------------
# text and JSON forms


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*(?P<star>\*)?\s*"
    r"(?:(?P<var>[xX])\s*(?:\^\s*(?P<exp>\d+))?)?\s*"
)


def poly_from_string(text: str) -> IntPoly:
    """Parse integer polynomials in x or X: "x^3+x^2-2x-1", "3", "-x",
    "2*x^2 - 7".  A "*" may sit only between a coefficient and x."""
    s = text.strip()
    if not s:
        raise InputError("empty polynomial text")
    pos = 0
    terms = {}
    while pos < len(s):
        mo = _TERM_RE.match(s, pos)
        sign, coeff, star, var, exp = mo.group("sign", "coeff", "star", "var", "exp")
        if (coeff is None and var is None) or (star and (coeff is None or var is None)):
            raise InputError("cannot parse polynomial text at %r" % s[pos:])
        if sign is None and pos > 0:
            raise InputError("missing sign between terms in %r" % text)
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        k = 0
        if var is not None:
            k = int(exp) if exp is not None else 1
        terms[k] = terms.get(k, 0) + c
        pos = mo.end()
    return IntPoly(terms.get(k, 0) for k in range(max(terms) + 1))


def poly_to_string(p, var: str = "x") -> str:
    """Text form of an IntPoly, or of rational coefficients lowest degree
    first, such as a field element's coordinates."""
    coeffs = p.coeffs if isinstance(p, IntPoly) else tuple(p)
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            body = "" if mag == 1 else str(mag)
            body += var if k == 1 else "%s^%d" % (var, k)
        parts.append((sign, body))
    text = ""
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            text += ("-" if sign == "-" else "") + body
        else:
            text += sign + body
    return text


def poly_to_json(p: IntPoly) -> List[str]:
    """JSON form: array of decimal integer strings, lowest degree first."""
    return [str(c) for c in p.coeffs]


def poly_from_json(data: Sequence[str]) -> IntPoly:
    try:
        return IntPoly(int(str(c)) for c in data)
    except (ValueError, TypeError) as exc:
        raise InputError("bad polynomial JSON: %s" % exc) from None


def rat_to_json(q) -> str:
    """JSON form of an int or a Fraction: "n" or "n/d"."""
    return str(as_rat(q))


def rat_from_json(text: str) -> Fraction:
    """Parse "n" or "n/d" (decimal integers) into a Fraction."""
    text = str(text)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError("bad rational string %r: %s" % (text, exc)) from None


# ----------------------------------------------------------------------
# exact real root machinery


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _dyadic_parts(q) -> Tuple:
    """Split a rational with power-of-two denominator into (num, k)."""
    den = q.denominator
    k = den.bit_length() - 1
    if 1 << k != den:
        raise InputError("expected a dyadic rational, got %s" % q)
    return q.numerator, k


def _scaled_horner(coeffs, n, k: int):
    """p(n / 2**k) * 2**(k*deg) for integer n: Horner on integers only."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += k
        acc = acc * n + (c << shift)
    return acc


def sign_at(p: IntPoly, q) -> int:
    """Exact sign of p at a rational point.

    Dyadic points go through the all-integer ``_scaled_horner``; everything
    else falls back to rational Horner.  q goes through as_rat, so a float
    raises InputError rather than being read as its binary expansion.
    """
    q = as_rat(q)
    den = q.denominator
    if den & (den - 1) == 0:
        return sign(_scaled_horner(p.coeffs, *_dyadic_parts(q)))
    return sign(p(q))


def _without_content(coeffs) -> Tuple[int, ...]:
    """An integer coefficient sequence, stripped, over its positive content."""
    coeffs = _strip(coeffs)
    g = gcd(*coeffs)
    return tuple(c // g for c in coeffs) if g else ()


def _sign_changes(signs) -> int:
    """Sign changes along a sequence of signs, zeros skipped."""
    count = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


class SturmChain:
    """Sturm chain of the squarefree part as a tuple of primitive IntPolys,
    with the verdict whether p itself is squarefree.

    The chain is p0 = p / gcd(p, p'), primitive, p1 = p0' and
    p(k+1) = -(p(k-1) mod p(k)), each primitive over Z: the sequence _prs of p0 and p0'.  It
    runs first on p and p', ending at gcd(p, p'); only when that is not a
    constant does a second sequence run, on p0 = p / gcd(p, p').
    """

    __slots__ = ("polys", "squarefree")

    def __init__(self, p: IntPoly):
        p = p.primitive()
        seq = _prs(p.coeffs, _without_content(p.derivative().coeffs))
        object.__setattr__(self, "squarefree", len(seq[-1]) == 1)
        if len(seq[-1]) > 1:
            p = int_poly_exact_div(p, IntPoly(seq[-1]).primitive())
            seq = _prs(p.coeffs, _without_content(p.derivative().coeffs))
        object.__setattr__(self, "polys", tuple(IntPoly(c) for c in seq))

    def __setattr__(self, name, value):
        raise AttributeError("SturmChain is immutable")

    def variations_at(self, x) -> int:
        return _sign_changes(sign_at(p, x) for p in self.polys)

    def variations_at_pos_inf(self) -> int:
        return _sign_changes(sign(p.leading()) for p in self.polys)

    def variations_at_neg_inf(self) -> int:
        return _sign_changes(
            sign(p.leading()) * (-1 if p.degree % 2 else 1) for p in self.polys
        )

    def count_in(self, lo, hi) -> int:
        """Number of distinct real roots in (lo, hi]."""
        return self.variations_at(lo) - self.variations_at(hi)

    def count_all(self) -> int:
        return self.variations_at_neg_inf() - self.variations_at_pos_inf()


@lru_cache(maxsize=64)
def sturm_chain(p: IntPoly) -> SturmChain:
    """The SturmChain of p, derived once per process."""
    return SturmChain(p)


def cauchy_root_bound(p: IntPoly):
    """Integer B with every real root strictly inside (-B, B)."""
    if p.degree < 1:
        return 1
    lead = abs(p.leading())
    big = max(abs(c) for c in p.coeffs[:-1])
    return 1 + (big + lead - 1) // lead


def isolate_real_roots(p) -> List[Tuple]:
    """Disjoint isolating intervals for the distinct real roots, ascending.

    Returns (lo, hi) pairs of dyadic rationals: either lo == hi and the root
    is that exact rational, or the unique root lies in the open-closed
    interval (lo, hi] and p is nonzero at both endpoints' sign evaluations.
    """
    chain = sturm_chain(p)
    sf = chain.polys[0]
    if sf.degree <= 0:
        return []
    bound = cauchy_root_bound(sf)
    out: List[Tuple] = []

    def split(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if sign_at(sf, mid) == 0:
            # exact dyadic root: record the point and recurse on shrunk
            # intervals that exclude it
            out.append((mid, mid))
            eps = _exclusion_radius(chain, mid)
            la, lb = a, max(a, mid - eps)
            ra, rb = min(b, mid + eps), b
            if lb > la:
                split(la, lb, chain.count_in(la, lb))
            if rb > ra:
                split(ra, rb, chain.count_in(ra, rb))
            return
        left = chain.count_in(a, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    # every root lies inside the Cauchy bound, so count_all counts them
    split(Fraction(-bound), Fraction(bound), chain.count_all())
    out.sort(key=lambda iv: (iv[0], iv[1]))
    return out


def _exclusion_radius(chain: SturmChain, root):
    """A dyadic radius eps such that the exact rational root is the only
    root of the chain's polynomial in (root - eps, root + eps]."""
    eps = Fraction(1, 2)
    while chain.count_in(root - eps, root + eps) != 1:
        eps = eps / 2
    return eps


def _narrow_enclosure(f, df, L, H, e, slo, K):
    """Integers (A, B) with L/2**e <= A/2**K < B/2**K <= H/2**e, p of sign
    slo at A/2**K and -slo at B/2**K, for a bracket (L/2**e, H/2**e] of one
    root whose endpoints have signs slo and -slo; None if not certified.

    Newton runs from the bracket midpoint, each step one exact p and one
    exact p' rounded to the 2**-q grid, q twice the correct bits (read off
    the last step's size) and at most K, until a step at 2**-K moves the
    point by less than 2**16 grid steps.  The point is widened by that much
    each way and both signs are evaluated exactly, so a wild Newton step
    costs speed, never correctness.
    """
    a = e + 1 - (H - L).bit_length()
    X, s = L + H, e + 1
    for _ in range(K.bit_length() + 4):
        q = min(K, 2 * a)
        P = _scaled_horner(df, X, s)
        if P == 0:
            return None
        # X/2**s - p/p' is (X*P - F) / (P*2**s); round it on the 2**-q grid
        N, D = (X * P - _scaled_horner(f, X, s)) << q, P << s
        if D < 0:
            N, D = -N, -D
        Xq = (2 * N + D) // (2 * D)
        # the step's size on the 2**-q grid estimates the error of X
        step = abs((Xq << s) - (X << q)) >> s
        X, s, a = Xq, q, max(16, 2 * (q - step.bit_length()))
        if q == K and step < 1 << 16:
            break
    else:
        return None
    A, B = X - (1 << 16), X + (1 << 16)
    if (
        L << K <= A << e
        and B << e <= H << K
        and sign(_scaled_horner(f, A, K)) == slo
        and sign(_scaled_horner(f, B, K)) == -slo
    ):
        return A, B
    return None


def refine_root(p, lo, hi, bits: int) -> Tuple:
    """Shrink an isolating interval with dyadic endpoints to width <= 2**-bits.

    The bracket is kept as integers (L, H, e) with lo = L/2**e and
    hi = H/2**e, and every step runs on integer values of p and p' from
    ``_scaled_horner``; rationals appear only at entry and exit.  Each pass
    moves one endpoint to a Newton step from the midpoint (rounded to the
    nearest point of the 2**-k grid, k about twice the correct bits) when it
    lands inside the bracket, then bisects.  Without an inflection point in
    the bracket the Newton step always lands on the same side of the root,
    so convergence is linear: one bisection per bit.  Schema-1 certificates
    seal these endpoints, so the trajectory is part of their output and is
    kept bit for bit; only the cost of a pass may change.

    Two of a pass's four exact evaluations only decide a sign.  Once the
    bracket is 2**-16 wide, ``_narrow_enclosure`` certifies (A, B) around
    the root at scale 2**-K, K = 2*bits + 64: p has sign slo at A and -slo
    at B.  The root is the only one in the bracket, so p has sign slo at
    every bracket point up to A and -slo from B on, and a point is
    evaluated exactly only when it lies strictly between A and B.  Until
    then, or when the enclosure is not certified, (A, B) is the bracket
    itself and every point is evaluated: there is one loop either way.
    p and p' at the midpoint stay exact, since the Newton candidate N/D is
    made from them; its part M*2**(k-em) splits off exactly, so that only
    F/P, a quotient of about width_bits bits rather than k, is divided.

    The candidate N/D is kept only strictly inside the bracket.  When its
    grid 2**-k is at least as fine as the bracket's (k >= e), L and H lie
    on it and rounding to nearest is monotone, so the rounded candidate is
    strictly inside only if N/D is; N/D itself is tested only when k < e.

    p must be a squarefree IntPoly, as certified_poly_roots checks; the
    trajectory depends on p only up to a constant factor.  lo and hi go
    through as_rat, so floats raise InputError.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if lo == hi:
        return lo, hi
    (L, el), (H, eh) = _dyadic_parts(lo), _dyadic_parts(hi)
    e = max(el, eh)
    L, H = L << (e - el), H << (e - eh)
    f, df = p.coeffs, p.derivative().coeffs
    slo = sign(_scaled_horner(f, L, e))
    shi = sign(_scaled_horner(f, H, e))
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise InputError("interval endpoints do not bracket a sign change")
    A, B, s = L, H, e
    enclosed = False

    def sign_inside(X, k):
        # the sign of p at X/2**k, a point strictly inside the bracket
        if X << s <= A << k:
            return slo
        if X << s >= B << k:
            return shi
        return sign(_scaled_horner(f, X, k))

    while (H - L) << bits > 1 << e:
        if not enclosed and (H - L) << 16 <= 1 << e:
            enclosed, K = True, 2 * bits + 64
            narrow = _narrow_enclosure(f, df, L, H, e, slo, K)
            if narrow:
                (A, B), s = narrow, K
        # Newton from the midpoint M/2**em.  With P = p'(mid)*2**(em*(d-1))
        # and F = p(mid)*2**(em*d), d = deg p, the candidate
        # M/2**em - p(mid)/p'(mid) is (M*P - F) / (P*2**em)
        M, em = L + H, e + 1
        P = _scaled_horner(df, M, em)
        if P != 0:
            F = _scaled_horner(f, M, em)
            if P < 0:
                P, F = -P, -F
            # round to nearest on the 2**-k grid, k about twice the number
            # of correct bits
            width_bits = e + 1 - (H - L).bit_length()
            k = max(8, 2 * max(1, width_bits) + 8)
            if k >= e or 2 * L * P < M * P - F < 2 * H * P:
                # the candidate times 2**k is M*2**(k-em) - F*2**(k-em)/P,
                # with Mi the integral part of the first term
                a, b = max(0, k - em), max(0, em - k)
                Ma = M << a
                Mi = Ma >> b
                num = ((Ma - (Mi << b)) * P - (F << a)) * 2 + (P << b)
                R = Mi + num // (P << (b + 1))
                if L << k < R << e < H << k:
                    sc = sign_inside(R, k)
                    if sc == 0:
                        cand = Fraction(R, 1 << k)
                        return cand, cand
                    if k > e:
                        L, H, e = L << (k - e), H << (k - e), k
                    R <<= e - k
                    if sc == slo:
                        L = R
                    else:
                        H = R
        # bisection keeps guaranteed progress regardless of Newton
        M, e = L + H, e + 1
        sm = sign_inside(M, e)
        if sm == 0:
            mid = Fraction(M, 1 << e)
            return mid, mid
        if sm == slo:
            L, H = M, H << 1
        else:
            L, H = L << 1, M
        # drop the trailing zero bits L and H share
        z = min(e, ((L | H) & -(L | H)).bit_length() - 1)
        L, H, e = L >> z, H >> z, e - z
    return Fraction(L, 1 << e), Fraction(H, 1 << e)
