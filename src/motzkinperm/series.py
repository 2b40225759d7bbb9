"""Exact truncated formal power series.

A series lives in a ring fixed by a truncation order N and a tuple of
auxiliary variable names: it is a polynomial in the distinguished variable
x, kept modulo x^(N+1), whose coefficients are multivariate polynomials in
the auxiliary variables with exact rational coefficients, Python ints or
Fractions; there is no floating point anywhere.

Terms are a dict from packed keys to coefficients: the exponents
(x_degree, e_1, ..., e_m) in one int, e_m in the lowest 16-bit field and x
above all m fields, so multiplying monomials adds keys, keys sort by
x-degree, and a key is kept when below the cap (N+1) << 16m.  Each field
holds 0..MAX_EXPONENT under a guard bit; a product that sets one raises
InvariantError.  Tuples are packed and unpacked only at the ring boundary
(the constructor, monomial, coefficient, the substitutions and
``to_json_dict``).  The renderers make one pass over the keys in descending
order, a new x-degree starting where a key drops below the last one's
x-degree; each variable's "", name and name^e strings are made once per
call, and a monomial joins the ones its fields index.  ``evaluate`` moves
kept fields into the new ring's keys and multiplies by the powers of the
dropped values other than 1, each made once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Mapping

from .errors import InvariantError

Coefficient = int | Fraction

_FIELD = 16
_MASK = (1 << _FIELD) - 1
#: Largest exponent of an auxiliary variable that a key can hold.
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


def _norm(c: Coefficient) -> Coefficient:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _clear_denominators(terms: Mapping[int, Coefficient]) -> tuple[int, Mapping[int, int]]:
    """A common denominator d of the coefficients, and the terms times d,
    which are all ints; multiplying ints avoids a gcd per product."""
    d = 1
    for v in terms.values():
        if type(v) is Fraction:
            d = math.lcm(d, v.denominator)
    if d == 1:
        return 1, terms
    return d, {
        k: v.numerator * (d // v.denominator) if type(v) is Fraction else v * d
        for k, v in terms.items()
    }


def _divided(terms: dict[int, int], d: int) -> dict[int, Coefficient]:
    """The nonzero terms over d, normed; over 1 with no zero, the terms."""
    if d == 1 and 0 not in terms.values():
        return terms
    return {k: v if d == 1 else _norm(Fraction(v, d)) for k, v in terms.items() if v}


class _Cleared(dict):
    """The x^n coefficients of ``coeff`` as ``_clear_denominators`` gives
    them, each computed on first lookup."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        self.coeff = coeff

    def __missing__(self, n):
        self[n] = value = _clear_denominators(self.coeff(n))
        return value


def _shifted(terms: Mapping[int, Coefficient], key: int, c: Coefficient, room: int) -> dict[int, Coefficient]:
    """The product by the one-term c*key, c a nonzero normed rational, of
    the terms with a key below ``room``.  c = 1 does no arithmetic, and an
    int c norms only Fraction coefficients."""
    if c == 1:
        return {k + key: v for k, v in terms.items() if k < room}
    if type(c) is int:
        return {k + key: v * c if type(v) is int else _norm(v * c) for k, v in terms.items() if k < room}
    return {k + key: _norm(v * c) for k, v in terms.items() if k < room}


def _merge(a: Mapping[int, Coefficient], b: Mapping[int, Coefficient]) -> Mapping[int, Coefficient]:
    """The sum of two term dicts, without zero terms; an empty one gives
    the other back as it is."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s == 0:
            del out[k]
        else:
            out[k] = _norm(s)
    return out


@dataclass(frozen=True)
class SeriesRing:
    """Truncation order plus auxiliary variable names."""

    order: int
    vars: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if self.order < 0:
            raise ValueError("truncation order must be non-negative")
        if len(set(self.vars)) != len(self.vars) or "x" in self.vars:
            raise ValueError(f"bad auxiliary variable names: {self.vars}")
        # the shift of each auxiliary field, e_1 first, and of x above them
        shifts = tuple(range(_FIELD * len(self.vars) - _FIELD, -1, -_FIELD))
        object.__setattr__(self, "_shifts", shifts)
        object.__setattr__(self, "_x_shift", _FIELD * len(shifts))
        object.__setattr__(self, "_cap", (self.order + 1) << self._x_shift)
        object.__setattr__(self, "_guard", sum(1 << (s + _FIELD - 1) for s in shifts))

    @property
    def width(self) -> int:
        return 1 + len(self.vars)

    def _index(self, name: str) -> int:
        if name not in self.vars:
            raise ValueError(f"unknown variable {name!r}")
        return self.vars.index(name)

    def _pack(self, key: tuple[int, ...]) -> int:
        if len(key) != self.width:
            raise ValueError(f"exponent key {key} needs {self.width} entries (x, {', '.join(self.vars)})")
        if min(key) < 0:
            raise ValueError(f"exponent key {key} has a negative exponent, which a series cannot store")
        if max(key[1:], default=0) > MAX_EXPONENT:
            raise ValueError(f"exponent key {key} has an exponent above MAX_EXPONENT = {MAX_EXPONENT}")
        return sum(e << s for e, s in zip(key, (self._x_shift, *self._shifts)))

    def _unpack(self, packed: int) -> tuple[int, ...]:
        return (packed >> self._x_shift, *(packed >> s & _MASK for s in self._shifts))

    def _checked(self, terms: dict[int, Coefficient]) -> dict[int, Coefficient]:
        """The terms of a product, once no key of them has set a guard bit."""
        if reduce(or_, terms, 0) & self._guard:
            raise InvariantError(f"an auxiliary exponent of a product exceeds {MAX_EXPONENT}")
        return terms

    def zero(self) -> "TruncatedSeries":
        return _series(self, {})

    def one(self) -> "TruncatedSeries":
        return self.const(1)

    def const(self, c: Coefficient) -> "TruncatedSeries":
        c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return _series(self, {0: c} if c else {})

    def x(self, power: int = 1) -> "TruncatedSeries":
        return self.monomial(1, power)

    def var(self, name: str, power: int = 1) -> "TruncatedSeries":
        return self.monomial(1, 0, **{name: power})

    def monomial(self, coeff: Coefficient, x: int = 0, **exps: int) -> "TruncatedSeries":
        for name in exps:
            self._index(name)
        return TruncatedSeries(self, {(x, *(exps.get(name, 0) for name in self.vars)): coeff})


class TruncatedSeries:
    """Element of a SeriesRing.  Immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], Coefficient]):
        """Coefficients keyed by exponent tuples (x_degree, e_1, ..., e_m);
        terms past the order drop out, and malformed keys are refused."""
        packed = {ring._pack(k): _norm(v) for k, v in terms.items()}
        self.ring = ring
        self.terms = {k: v for k, v in packed.items() if v != 0 and k < ring._cap}

    # -- basics ------------------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise ValueError(f"mismatched rings: {self.ring} vs {other.ring}")

    def _coerce(self, value) -> "TruncatedSeries | None":
        if isinstance(value, TruncatedSeries):
            self._check(value)
            return value
        if isinstance(value, (int, Fraction)):
            return self.ring.const(value)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Coefficient:
        return self.terms.get(0, 0)

    def x_valuation(self) -> int:
        """Least x-degree with a nonzero term; order+1 for the zero series."""
        return min(self.terms, default=self.ring._cap) >> self.ring._x_shift

    def x_degrees(self) -> list[int]:
        """The x-degrees with a nonzero term, ascending."""
        return sorted({k >> self.ring._x_shift for k in self.terms})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _series(self.ring, _merge(self.terms, other.terms))

    __radd__ = __add__

    __neg__ = lambda self: _series(self.ring, {k: -v for k, v in self.terms.items()})

    __sub__ = lambda self, other: self + -other
    __rsub__ = lambda self, other: -self + other

    def __mul__(self, other) -> "TruncatedSeries":
        """The truncated product.  A rational factor scales each term, and 1
        gives the series back as it is.  A factor of one term c*key shifts
        the other's keys by key and scales them by c; the rest multiply
        every pair of terms below the cap, over ints once the denominators
        are cleared."""
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return ring.zero()
            return _series(ring, _shifted(self.terms, 0, other, ring._cap))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((key, c),) = a.items()
            return _series(ring, ring._checked(_shifted(b, key, c, ring._cap - key)))
        da, a = _clear_denominators(a)
        db, b = _clear_denominators(b)
        by_key = sorted(b.items())
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            room = ring._cap - k1
            for k2, c2 in by_key:
                if k2 >= room:
                    break
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return _series(ring, ring._checked(_divided(out, da * db)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        result, base = self.ring.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- inversion, square root ---------------------------------------------

    def _has_auxiliary_constant(self) -> bool:
        return any(0 < k < 1 << self.ring._x_shift for k in self.terms)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse of u, whose x^0 coefficient c_0 must be a
        nonzero rational free of auxiliary variables: the fixed point of
        G = (1 - (u - c_0)*G)/c_0, a contraction as u - c_0 has x-valuation
        >= 1.  With integer coefficients and c_0 = +-1, G has int ones."""
        c0 = self.constant_term()
        if c0 == 0 or self._has_auxiliary_constant():
            raise ValueError("invert needs a nonzero constant term free of auxiliaries")
        recip = _norm(Fraction(1, c0))
        return fixed_point_solve(lambda g: g * ((self - c0) * -recip) + recip, self.ring)

    def sqrt(self) -> "TruncatedSeries":
        """Square root with constant term 1 of u = 1 + v, whose constant term
        must be 1: 1 + v*G for G the root of v*G^2 + 2*G - 1 = 0, that is
        G = (1 - v*G^2)/2 (``solve_quadratic``).  As 2G + vG^2 = 1 up to the
        order and v has x-valuation >= 1, (1 + vG)^2 = 1 + v(2G + vG^2) = u.
        """
        if self.constant_term() != 1 or self._has_auxiliary_constant():
            raise ValueError("sqrt needs constant term exactly 1")
        v = self - 1
        return v * solve_quadratic(v, self.ring.const(2), -1) + 1

    # -- substitution --------------------------------------------------------

    def substitute(self, var: str, replacement: "TruncatedSeries | Coefficient") -> "TruncatedSeries":
        """Replace an auxiliary variable by a series in the same ring; x is
        only rescaled, x -> x*m, by ``rescale_x``, which shifts exponents."""
        if var == "x":
            raise ValueError("x is only rescaled, x -> x*m, with rescale_x")
        if isinstance(replacement, (int, Fraction)):
            replacement = self.ring.const(replacement)
        self._check(replacement)
        shift = self.ring._shifts[self.ring._index(var)]
        groups: dict[int, dict[int, Coefficient]] = {}
        for k, v in self.terms.items():
            e = k >> shift & _MASK
            groups.setdefault(e, {})[k - (e << shift)] = v
        result = self.ring.zero()
        power = self.ring.one()
        current = 0
        for e in sorted(groups):
            while current < e:
                power = power * replacement
                current += 1
            result = result + _series(self.ring, groups[e]) * power
        return result

    def evaluate(self, **values: Coefficient) -> "TruncatedSeries":
        """Evaluate auxiliary variables at rationals, returning a series in
        the ring on the remaining variables.  Each value is normed once, so
        integral values keep int coefficients ints, and each power value**e
        is computed once; a value of 1 multiplies nothing, and kept
        exponents move field by field into the keys.
        """
        ring = self.ring
        drop = {ring._index(name): _norm(Fraction(value)) for name, value in values.items()}
        keep = [i for i in range(len(ring.vars)) if i not in drop]
        target = SeriesRing(ring.order, tuple(ring.vars[i] for i in keep))
        moves = [(ring._shifts[i], shift) for i, shift in zip(keep, target._shifts)]
        powers = [(ring._shifts[i], {0: 1}, value) for i, value in drop.items() if value != 1]
        xs, txs = ring._x_shift, target._x_shift
        out: dict[int, Coefficient] = {}
        get = out.get
        for k, c in self.terms.items():
            key = k >> xs << txs
            for source, shift in moves:
                key |= (k >> source & _MASK) << shift
            if powers:
                for source, power, value in powers:
                    e = k >> source & _MASK
                    if e not in power:
                        power[e] = value**e
                    c = c * power[e]
            out[key] = get(key, 0) + c
        return _series(target, {k: _norm(v) if type(v) is Fraction else v for k, v in out.items() if v})

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict to a lower truncation order."""
        if order > self.ring.order:
            raise ValueError("cannot raise the truncation order")
        target = SeriesRing(order, self.ring.vars)
        return _series(target, {k: v for k, v in self.terms.items() if k < target._cap})

    # -- extraction and rendering --------------------------------------------

    def _lines(self, keys: list[int]) -> dict[int, str]:
        """The coefficient of each x-degree among ``keys``, packed keys in
        descending order, rendered as ``format_poly`` does: a degree's last
        key is its constant, and each other piece is a coefficient's head,
        made once per coefficient, and one table entry "name^e*" per field."""
        ring, terms = self.ring, self.terms
        bits = reduce(or_, keys, 0)
        fields = [
            (s, ["", f"{name}*", *(f"{name}^{e}*" for e in range(2, 1 << (bits >> s & _MASK).bit_length()))])
            for name, s in zip(ring.vars, ring._shifts)
        ]
        heads: dict[Coefficient, str] = {}
        lines = {}
        floor = ring._cap
        pieces: list[str] = []
        for k in keys:
            if k < floor:
                if pieces:
                    lines[floor >> ring._x_shift] = _line(pieces)
                floor = k >> ring._x_shift << ring._x_shift
                pieces = []
            c = terms[k]
            if k == floor:
                pieces.append(_piece(c, ""))
                continue
            body = ""
            for s, table in fields:
                body += table[k >> s & _MASK]
            head = heads.get(c)
            if head is None:
                # the piece of c before a one-letter monomial, less the letter
                head = heads[c] = _piece(c, "m")[:-1]
            pieces.append(head + body[:-1])
        if pieces:
            lines[floor >> ring._x_shift] = _line(pieces)
        return lines

    def coefficient(self, x_degree: int, at: Mapping[str, Coefficient] | None = None):
        """The coefficient of x**x_degree: a dict from auxiliary exponent
        vectors to rationals, or a single rational when ``at`` evaluates
        every auxiliary variable."""
        if not 0 <= x_degree <= self.ring.order:
            raise ValueError(f"x-degree {x_degree} outside 0..{self.ring.order}")
        if at is None:
            ring = self.ring
            return {ring._unpack(k)[1:]: v for k, v in self.terms.items() if k >> ring._x_shift == x_degree}
        if set(at) != set(self.ring.vars):
            raise ValueError("evaluation must cover every auxiliary variable")
        # with no auxiliary variable left, a key is its x-degree
        return self.evaluate(**at).terms.get(x_degree, 0)

    def format_coefficient(self, x_degree: int) -> str:
        if not 0 <= x_degree <= self.ring.order:
            raise ValueError(f"x-degree {x_degree} outside 0..{self.ring.order}")
        shift = self.ring._x_shift
        keys = sorted((k for k in self.terms if k >> shift == x_degree), reverse=True)
        return self._lines(keys).get(x_degree, "0")

    def format_coefficients(self) -> list[str]:
        """``format_coefficient`` of every x-degree 0..order, from one sort."""
        lines = self._lines(sorted(self.terms, reverse=True))
        return [lines.get(n, "0") for n in range(self.ring.order + 1)]

    def __str__(self) -> str:
        lines = self._lines(sorted(self.terms, reverse=True))
        return "\n".join(f"[n={d}] {lines[d]}" for d in reversed(lines)) if lines else "[0]"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.ring.order}, vars={self.ring.vars}, terms={len(self.terms)})"

    def to_json_dict(self) -> dict:
        """Exponent-vector export: {"x^n": {"e1,e2": coefficient}}."""
        out: dict = {}
        for k in sorted(self.terms):
            n, *exps = self.ring._unpack(k)
            v = self.terms[k]
            out.setdefault(str(n), {})[",".join(map(str, exps))] = v if isinstance(v, int) else str(v)
        return {"order": self.ring.order, "vars": list(self.ring.vars), "coefficients": out}


def _series(ring: SeriesRing, terms: dict[int, Coefficient]) -> TruncatedSeries:
    """A series from packed keys below the cap and nonzero normed coefficients."""
    series = object.__new__(TruncatedSeries)
    series.ring = ring
    series.terms = terms
    return series


class LazySeries:
    """A series of ``ring`` whose x^n coefficient, a dict over packed
    auxiliary keys, ``coeff(n)`` computes on request: a lifted constant, a
    sum, a rational multiple (by 1 the series itself), a shift by a factor
    of one term, a product or a rescale x -> x*m (``rescale_x``).  ``val``
    is a lower bound of its x-valuation.  Only product operands keep their
    coefficients (``_Cleared``); the rest recompute them."""

    __slots__ = ("ring", "coeff", "val")

    def __init__(self, ring: SeriesRing, coeff: Callable[[int], dict], val: int = 0):
        self.ring, self.coeff, self.val = ring, coeff, val

    def _lift(self, value) -> "LazySeries":
        if isinstance(value, LazySeries):
            return value
        shift, groups = self.ring._x_shift, {}
        for k, v in (self.ring.zero() + value).terms.items():
            groups.setdefault(k >> shift, {})[k & ~(-1 << shift)] = v
        return LazySeries(self.ring, lambda n: groups.get(n, {}), min(groups, default=self.ring.order + 1))

    def __add__(self, other) -> "LazySeries":
        other = self._lift(other)
        return LazySeries(self.ring, lambda n: _merge(self.coeff(n), other.coeff(n)), min(self.val, other.val))

    __radd__ = __add__
    __sub__ = lambda self, other: self + -other
    __rsub__ = lambda self, other: -self + other
    __neg__ = lambda self: self * -1

    def __mul__(self, other) -> "LazySeries":
        """A rational factor scales each coefficient: 1 gives self back and
        0 the zero series.  An eager factor of one term c*x^d*m shifts:
        the x^n coefficient is the x^(n-d) one of self times c*m, asked
        for only from n - d >= val.  A product skips pairs below either
        valuation, asks first for the factor coefficient of lower degree
        (on the tie at 0, ``other``'s) and skips the pair when it is zero,
        so x-valuation >= 1 keeps F_n off F_n.  It keeps each factor
        coefficient as ints over d (``_clear_denominators``), sums the
        pairs on ints over their common denominator and divides each term
        once.  Shifts and products check guard bits as the eager one does."""
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return self._lift(0)
            return LazySeries(ring, lambda n: _shifted(self.coeff(n), 0, other, ring._cap), self.val)
        if isinstance(other, TruncatedSeries) and len(other.terms) == 1 and other.ring == ring:
            ((key, c),) = other.terms.items()
            d, m = key >> ring._x_shift, key & ~(-1 << ring._x_shift)
            low = self.val + d
            return LazySeries(
                ring, lambda n: ring._checked(_shifted(self.coeff(n - d), m, c, ring._cap)) if n >= low else {}, low
            )
        a, b = self._lift(other), self
        fa, fb = _Cleared(a.coeff), _Cleared(b.coeff)

        def coeff(n):
            acc = {}
            get = acc.get
            den = 1
            for i in range(a.val, n - b.val + 1):
                early = 2 * i <= n
                du, u = fa[i] if early else fb[n - i]
                if not u:
                    continue
                dv, v = fb[n - i] if early else fa[i]
                if not v:
                    continue
                d = du * dv
                if d != den:
                    if den % d:
                        lift = d // math.gcd(den, d)
                        den *= lift
                        for k in acc:
                            acc[k] *= lift
                    u = {k: c * (den // d) for k, c in u.items()}
                for k1, c1 in u.items():
                    for k2, c2 in v.items():
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c2
            return ring._checked(_divided(acc, den))

        return LazySeries(ring, coeff, a.val + b.val)

    __rmul__ = __mul__


def _piece(c: Coefficient, body: str) -> str:
    """`` + 2*y^2*z``, `` - y`` or `` + 3``: the sign and magnitude of c
    before its monomial ``body``, "" for 1."""
    mag = abs(c)
    text = body if mag == 1 and body else f"{mag}*{body}" if body else str(mag)
    return (" - " if c < 0 else " + ") + text


def _line(pieces: list[str]) -> str:
    """The pieces of a polynomial in print order joined, with no sign before
    a positive first term; "0" for no piece."""
    text = "".join(pieces)
    return "-" + text[3:] if text[1:2] == "-" else text[3:] or "0"


def format_poly(poly: Mapping[tuple[int, ...], Coefficient], vars: tuple[str, ...]) -> str:
    """Render an auxiliary-variable polynomial like ``2*y^2*z + y*z^2``."""
    return _line([
        _piece(poly[exps], "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(vars, exps) if e]))
        for exps in sorted(poly, reverse=True)
    ])


def rescale_x(series: LazySeries, **m: int) -> LazySeries:
    """The rescale x -> x*m of a lazy series, for m a monomial in the
    auxiliary variables: each x^n term gains m^n, and no x-degree changes.
    An exponent of m^order past MAX_EXPONENT is refused, so a term
    overflows only into its guard bit, which raises InvariantError."""
    ring = series.ring
    if max(m.values(), default=0) * ring.order > MAX_EXPONENT:
        raise ValueError(f"rescale_x {m} passes MAX_EXPONENT = {MAX_EXPONENT} by x^{ring.order}")
    for name in m:
        ring._index(name)
    step = ring._pack((0, *(m.get(name, 0) for name in ring.vars)))
    return LazySeries(ring, lambda n: ring._checked({k + n * step: v for k, v in series.coeff(n).items()}),
                      series.val)


def solve_quadratic(
    a: TruncatedSeries, b: TruncatedSeries, c: TruncatedSeries | Coefficient
) -> TruncatedSeries:
    """The power-series root F of a*F^2 + b*F + c = 0, for a of x-valuation
    >= 1 and b with a nonzero constant term b0 free of auxiliary variables.

    F is the only root, the fixed point of the x-adic contraction
    F = -(F*(F*a + (b - b0)) + c)/b0, so F(0) = -c(0)/b0 and there is no
    branch to choose; Horner's form takes two products per coefficient.
    Every algebraic named series is such a root, and so is ``sqrt``.  The
    Catalan series, C = 1 + x*C^2:

    >>> ring = SeriesRing(5, ())
    >>> f = solve_quadratic(ring.x(), ring.const(-1), 1)
    >>> [f.coefficient(n, at={}) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    b0 = b.constant_term()
    if a.x_valuation() < 1 or b0 == 0 or b._has_auxiliary_constant():
        raise ValueError("solve_quadratic needs a of x-valuation >= 1 and b(0) a nonzero rational")
    scale = _norm(Fraction(-1, b0))
    return fixed_point_solve(lambda f: (f * (f * a + (b - b0)) + c) * scale, a.ring)


def fixed_point_solve(
    mapping: Callable[[LazySeries], LazySeries | TruncatedSeries], ring: SeriesRing
) -> TruncatedSeries:
    """Unique fixed point F of an x-adically contracting self-map.

    The map is called once, on a lazy unknown (``LazySeries``) whose x^n
    coefficient is that of the image.  A contraction computes F_n from
    F_0..F_(n-1) alone, each once; a map whose F_n needs F_n itself is not
    one and raises InvariantError.  The map may take its constants from
    ``ring`` or ``f.ring``.  It is not run on the result: ``verify series``
    checks the lazy kernel at order ``SERIES_ORDER_BOUND``, and ``verify
    genfun`` the named series by an independent route.

    >>> ring = SeriesRing(5, ())
    >>> f = fixed_point_solve(lambda f: f.ring.one() + f.ring.x() * f * f, ring)
    >>> [f.coefficient(n, at={}) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    known: dict[int, dict] = {}

    def unknown(n: int) -> dict:
        if n not in known:
            raise InvariantError(f"F_{n} is needed before it is known; the map is not a contraction")
        return known[n]

    f = LazySeries(ring, unknown)
    image = f._lift(mapping(f))
    for n in range(ring.order + 1):
        known[n] = image.coeff(n)
    return _series(ring, {k + (n << ring._x_shift): v for n, c in known.items() for k, v in c.items()})


def continued_fraction(
    b: Callable[[int], TruncatedSeries],
    c: Callable[[int], TruncatedSeries],
    ring: SeriesRing,
) -> TruncatedSeries:
    """Evaluate 1 / (1 + b_0 - c_0 / (1 + b_1 - c_1 / (...))) to the ring's
    truncation order.

    Every b_i and c_i must have x-valuation >= 1, so levels 0..order+1 are
    enough: a deeper tail cannot change the result.  For the same reason
    level i needs only order max(order - i, 0), as c_(i-1) shifts it up by
    a degree; each level runs in that ring, and the deeper level's value,
    of one order less, is lifted into it as it is.
    """
    f = ring.one()
    for i in range(ring.order + 1, -1, -1):
        bi, ci = b(i), c(i)
        if (bi and bi.x_valuation() < 1) or (ci and ci.x_valuation() < 1):
            raise ValueError(f"level {i} has a term of x-degree 0")
        level = max(ring.order - i, 0)
        f = _series(SeriesRing(level, ring.vars), f.terms)
        f = (f.ring.one() + bi.truncate(level) - ci.truncate(level) * f).invert()
    return f
