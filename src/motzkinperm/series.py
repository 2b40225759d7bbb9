"""Exact truncated formal power series.

A series lives in a ring fixed by a truncation order N and a tuple of
auxiliary variable names: it is a polynomial in the distinguished variable
x, kept modulo x^(N+1), whose coefficients are multivariate polynomials in
the auxiliary variables with exact rational coefficients.  There is no
floating point anywhere; coefficients are Python ints or Fractions.

Terms are stored sparsely as a dict from exponent vectors
(x_degree, e_1, ..., e_m) to coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Collection, Mapping

from .errors import InvariantError

Coefficient = int | Fraction


def _norm(c: Coefficient) -> Coefficient:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _clear_denominators(
    terms: Mapping[tuple[int, ...], Coefficient],
) -> tuple[int, Mapping[tuple[int, ...], int]]:
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


def _subtract_products(acc: dict, left: Collection, right: Collection) -> None:
    """acc -= (sum of the left terms) * (sum of the right terms), over
    (exponent key, coefficient) pairs; keys add componentwise."""
    for k1, c1 in left:
        for k2, c2 in right:
            key = tuple(map(add, k1, k2))
            acc[key] = acc.get(key, 0) - c1 * c2


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

    @property
    def width(self) -> int:
        return 1 + len(self.vars)

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.const(1)

    def const(self, c: Coefficient) -> "TruncatedSeries":
        c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return self.zero()
        return TruncatedSeries(self, {(0,) * self.width: c})

    def x(self, power: int = 1) -> "TruncatedSeries":
        return self.monomial(1, power)

    def var(self, name: str, power: int = 1) -> "TruncatedSeries":
        return self.monomial(1, 0, **{name: power})

    def monomial(self, coeff: Coefficient, x: int = 0, **exps: int) -> "TruncatedSeries":
        key = [x] + [0] * len(self.vars)
        for name, e in exps.items():
            key[1 + self.vars.index(name)] = e
        if x > self.order or coeff == 0:
            return self.zero()
        return TruncatedSeries(self, {tuple(key): _norm(coeff)})


class TruncatedSeries:
    """Element of a SeriesRing.  Immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], Coefficient]):
        self.ring = ring
        self.terms = {
            k: _norm(v) for k, v in terms.items() if v != 0 and k[0] <= ring.order
        }

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

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * self.ring.width, 0)

    def x_valuation(self) -> int:
        """Least x-degree with a nonzero term; order+1 for the zero series."""
        return min((k[0] for k in self.terms), default=self.ring.order + 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return TruncatedSeries(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero()
            return TruncatedSeries(self.ring, {k: v * other for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self.ring.order
        da, a = _clear_denominators(self.terms)
        db, b = _clear_denominators(other.terms)
        if len(a) > len(b):
            a, b = b, a
        by_deg = sorted(b.items(), key=lambda kv: kv[0][0])
        out: dict[tuple[int, ...], Coefficient] = {}
        for k1, c1 in a.items():
            room = order - k1[0]
            for k2, c2 in by_deg:
                if k2[0] > room:
                    break
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                s = out.get(key, 0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        if da * db != 1:
            out = {k: Fraction(v, da * db) for k, v in out.items()}
        return TruncatedSeries(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    # -- inversion, square root ---------------------------------------------

    def _has_auxiliary_constant(self) -> bool:
        return any(k[0] == 0 and any(k[1:]) for k in self.terms)

    def _integer_rescaling(
        self, c0: Coefficient, factor: int
    ) -> tuple[int, list[list[tuple[tuple[int, ...], int]]]]:
        """Rescale v = self/c0 (constant term 1) to integer coefficients.

        With d a common denominator of v, returns s = factor * d and the
        terms of v(s*x) of positive x-degree, grouped by x-degree: the x^n
        coefficient of v times s^n, which is (d v_n) factor^n d^(n-1), an
        int.  Keys are kept whole.
        """
        v = self.terms if c0 == 1 else {k: _norm(Fraction(c) / c0) for k, c in self.terms.items()}
        d, cleared = _clear_denominators(v)
        multipliers = [0] + [factor**n * d ** (n - 1) for n in range(1, self.ring.order + 1)]
        groups: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in multipliers]
        for k, c in cleared.items():
            if k[0]:
                groups[k[0]].append((k, c * multipliers[k[0]]))
        return factor * d, groups

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires the x^0 coefficient to be a
        nonzero rational constant free of auxiliary variables.

        Solved degree by degree with the reciprocal recurrence
        g_0 = 1, g_n = -sum_{k=1..n} a_k g_{n-k} for a = self/c_0, where
        a_k is the auxiliary-variable polynomial at x^k.  The recurrence
        runs on the integer series a(s*x) of ``_integer_rescaling`` and
        divides by c_0 s^n at the end; with integer coefficients and
        c_0 = +-1 that divisor is c_0 itself and every result is an int.
        """
        c0 = self.constant_term()
        if c0 == 0 or self._has_auxiliary_constant():
            raise ValueError("invert needs a nonzero constant term free of auxiliaries")
        scale, a = self._integer_rescaling(c0, 1)
        g: list[dict[tuple[int, ...], int]] = [{(0,) * self.ring.width: 1}]
        for n in range(1, self.ring.order + 1):
            acc: dict[tuple[int, ...], int] = {}
            for k in range(1, n + 1):
                _subtract_products(acc, a[k], g[n - k].items())
            g.append({key: c for key, c in acc.items() if c})
        if scale == 1 and c0 in (1, -1):
            terms = {k: c * c0 for gn in g for k, c in gn.items()}
        else:
            terms = {k: Fraction(c, c0 * scale ** k[0]) for gn in g for k, c in gn.items()}
        return TruncatedSeries(self.ring, terms)

    def sqrt(self) -> "TruncatedSeries":
        """Square root with constant term +1; requires constant term 1.

        Solved degree by degree from y^2 = u: y_0 = 1 and
        y_n = (u_n - sum_{k=1..n-1} y_k y_{n-k}) / 2.  The recurrence runs
        on U = u(s*x) with s = 4 * (a common denominator of u): U = 1 + 4w
        with w integral, so sqrt(U) = sum_m binomial(1/2, m) 4^m w^m is
        integral and every halving is exact.  The residual root^2 - u is
        verified to vanish.
        """
        if self.constant_term() != 1 or self._has_auxiliary_constant():
            raise ValueError("sqrt needs constant term exactly 1")
        scale, u = self._integer_rescaling(1, 4)
        y: list[dict[tuple[int, ...], int]] = [{(0,) * self.ring.width: 1}]
        for n in range(1, self.ring.order + 1):
            acc: dict[tuple[int, ...], int] = dict(u[n])
            for k in range(1, n):
                _subtract_products(acc, y[k].items(), y[n - k].items())
            y.append({key: c // 2 for key, c in acc.items() if c})
        root = TruncatedSeries(
            self.ring, {k: Fraction(c, scale ** k[0]) for yn in y for k, c in yn.items()}
        )
        if root * root != self:
            raise InvariantError("sqrt residual does not vanish")
        return root

    # -- substitution --------------------------------------------------------

    def substitute(self, var: str, replacement: "TruncatedSeries | Coefficient") -> "TruncatedSeries":
        """Replace a variable by a series in the same ring.

        Substituting for x requires the replacement to have x-valuation at
        least 1 so the truncation stays exact.
        """
        if isinstance(replacement, (int, Fraction)):
            replacement = self.ring.const(replacement)
        self._check(replacement)
        if var == "x":
            idx = 0
            if replacement and replacement.x_valuation() < 1:
                raise ValueError("substitution for x needs x-valuation >= 1")
        else:
            idx = 1 + self.ring.vars.index(var)
        groups: dict[int, dict[tuple[int, ...], Coefficient]] = {}
        for k, v in self.terms.items():
            e = k[idx]
            rest = list(k)
            rest[idx] = 0
            groups.setdefault(e, {})[tuple(rest)] = v
        result = self.ring.zero()
        power = self.ring.one()
        current = 0
        for e in sorted(groups):
            while current < e:
                power = power * replacement
                current += 1
            result = result + TruncatedSeries(self.ring, groups[e]) * power
        return result

    def shift_var(self, var: str, delta: int) -> "TruncatedSeries":
        """Multiply by var**delta; delta may be negative, in which case
        every term must be divisible (no negative exponents may appear)."""
        idx = 1 + self.ring.vars.index(var)
        out = {}
        for k, v in self.terms.items():
            e = k[idx] + delta
            if e < 0:
                raise InvariantError(
                    f"shift of {var} by {delta} drives a term negative: {k}"
                )
            key = list(k)
            key[idx] = e
            out[tuple(key)] = v
        return TruncatedSeries(self.ring, out)

    def evaluate(self, **values: Coefficient) -> "TruncatedSeries":
        """Evaluate auxiliary variables at rationals, returning a series in
        the ring on the remaining variables."""
        for name in values:
            if name not in self.ring.vars:
                raise ValueError(f"unknown variable {name!r}")
        keep = [i for i, name in enumerate(self.ring.vars) if name not in values]
        drop = [(1 + i, Fraction(values[name])) for i, name in enumerate(self.ring.vars) if name in values]
        target = SeriesRing(self.ring.order, tuple(self.ring.vars[i] for i in keep))
        out: dict[tuple[int, ...], Coefficient] = {}
        for k, v in self.terms.items():
            c = v
            for pos, val in drop:
                if k[pos]:
                    c = c * val ** k[pos]
            if c == 0:
                continue
            key = (k[0],) + tuple(k[1 + i] for i in keep)
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return TruncatedSeries(target, out)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict to a lower truncation order."""
        if order > self.ring.order:
            raise ValueError("cannot raise the truncation order")
        target = SeriesRing(order, self.ring.vars)
        return TruncatedSeries(target, {k: v for k, v in self.terms.items() if k[0] <= order})

    # -- extraction and rendering --------------------------------------------

    def coefficient(self, x_degree: int, at: Mapping[str, Coefficient] | None = None):
        """The coefficient of x**x_degree: a dict from auxiliary exponent
        vectors to rationals, or a single rational when ``at`` evaluates
        every auxiliary variable."""
        if not 0 <= x_degree <= self.ring.order:
            raise ValueError(f"x-degree {x_degree} outside 0..{self.ring.order}")
        poly = {k[1:]: v for k, v in self.terms.items() if k[0] == x_degree}
        if at is None:
            return poly
        if set(at) != set(self.ring.vars):
            raise ValueError("evaluation must cover every auxiliary variable")
        vals = [Fraction(at[name]) for name in self.ring.vars]
        total: Coefficient = 0
        for exps, c in poly.items():
            for val, e in zip(vals, exps):
                if e:
                    c = c * val**e
            total += c
        return _norm(Fraction(total)) if isinstance(total, Fraction) else total

    def format_coefficient(self, x_degree: int) -> str:
        return format_poly(self.coefficient(x_degree), self.ring.vars)

    def __str__(self) -> str:
        lines = [
            f"[n={d}] {self.format_coefficient(d)}"
            for d in range(self.ring.order + 1)
            if any(k[0] == d for k in self.terms)
        ]
        return "\n".join(lines) if lines else "[0]"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.ring.order}, vars={self.ring.vars}, terms={len(self.terms)})"

    def to_json_dict(self) -> dict:
        """Exponent-vector export: {"x^n": {"e1,e2": coefficient}}."""
        out: dict[str, dict[str, str | int]] = {}
        for k, v in sorted(self.terms.items()):
            degree = out.setdefault(str(k[0]), {})
            degree[",".join(str(e) for e in k[1:])] = v if isinstance(v, int) else str(v)
        return {"order": self.ring.order, "vars": list(self.ring.vars), "coefficients": out}


def format_poly(poly: Mapping[tuple[int, ...], Coefficient], vars: tuple[str, ...]) -> str:
    """Render an auxiliary-variable polynomial like ``2*y^2*z + y*z^2``."""
    if not poly:
        return "0"
    pieces = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(vars, exps) if e
        ]
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append(("- " if c < 0 else "+ ") + text)
    first = pieces[0]
    first = "-" + first[2:] if first.startswith("- ") else first[2:]
    return " ".join([first] + pieces[1:])


def monomial_substitute(
    series: TruncatedSeries,
    target: SeriesRing,
    mapping: Mapping[str, Mapping[str, int]],
) -> TruncatedSeries:
    """Simultaneously replace variables by monomials, possibly with negative
    exponents (Laurent shifts), checking that every exponent in the result
    is non-negative.

    This is the one audited place where reciprocal substitutions such as
    z -> 1/z are allowed; they must provably cancel, and an InvariantError
    is raised if any term fails to.  The monomial substituted for x must
    contain x to a power >= 1 so truncation stays sound.
    """
    source_names = ("x",) + series.ring.vars
    target_index = {"x": 0, **{name: 1 + i for i, name in enumerate(target.vars)}}
    rows = []
    for name in source_names:
        image = mapping.get(name, {name: 1})
        row = [0] * target.width
        for out_name, e in image.items():
            row[target_index[out_name]] += e
        rows.append(tuple(row))
    if rows[0][0] < 1:
        raise ValueError("the image of x must contain x to a power >= 1")
    out: dict[tuple[int, ...], Coefficient] = {}
    for k, v in series.terms.items():
        key = [0] * target.width
        for e, row in zip(k, rows):
            if e:
                for j, r in enumerate(row):
                    key[j] += e * r
        if any(e < 0 for e in key[1:]):
            raise InvariantError(
                f"Laurent substitution left a negative exponent on term {k}"
            )
        if key[0] > target.order:
            continue
        key_t = tuple(key)
        s = out.get(key_t, 0) + v
        if s == 0:
            out.pop(key_t, None)
        else:
            out[key_t] = s
    return TruncatedSeries(target, out)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def solve_quadratic(
    a: TruncatedSeries,
    b: TruncatedSeries,
    c: TruncatedSeries | Coefficient,
    f0: Coefficient,
) -> TruncatedSeries:
    """The power-series root F of a*F^2 + b*F + c = 0 with F(0) = f0.

    When a vanishes this is -c/b.  Otherwise the root is taken in the
    conjugate form 2c / (-b -+ sqrt(b^2 - 4ac)) or, when a has an
    invertible constant term, (-b +- sqrt) / (2a), choosing the branch
    whose constant term matches f0.  b must have a nonzero constant term.
    The residual is verified to vanish identically before returning.
    """
    ring = a.ring
    if isinstance(c, (int, Fraction)):
        c = ring.const(c)
    f0 = _norm(Fraction(f0))
    if a.is_zero():
        root = (-c) * b.invert()
        if root.constant_term() != f0:
            raise ValueError(f"the root -c/b has constant term {root.constant_term()}, not {f0}")
        return root
    disc = b * b - a * c * 4
    d0 = Fraction(disc.constant_term())
    sigma0 = _rational_sqrt(d0)
    if sigma0 is None or sigma0 == 0:
        raise ValueError("discriminant constant term must be a nonzero rational square")
    s = disc * (Fraction(1) / d0)
    s = s.sqrt() * sigma0
    candidates = []
    for signed in (s, -s):
        denom = -b - signed
        if denom.constant_term() != 0 and not denom._has_auxiliary_constant():
            candidates.append((c * 2) * denom.invert())
    a0 = a.constant_term()
    if a0 != 0 and not a._has_auxiliary_constant():
        inv2a = (a * 2).invert()
        for signed in (s, -s):
            candidates.append((-b + signed) * inv2a)
    for root in candidates:
        if root.constant_term() == f0:
            residual = a * root * root + b * root + c
            if not residual.is_zero():
                raise InvariantError("quadratic residual does not vanish")
            return root
    raise ValueError(f"no power-series branch with constant term {f0}")


def fixed_point_solve(
    mapping: Callable[[TruncatedSeries], TruncatedSeries],
    ring: SeriesRing,
    seed: TruncatedSeries | None = None,
) -> TruncatedSeries:
    """Unique fixed point of an x-adically contracting self-map, reached by
    iteration from the seed (default 1) at growing precision.

    The map must be a contraction: images of series agreeing to x-degree d
    agree to degree d+1.  So iteration k keeps only the terms of x-degree
    <= k, which are final, and order+1 iterations reach the fixed point.
    Stabilization is verified by one full-order check that the result is
    fixed; a non-contracting map raises InvariantError.
    """
    f = ring.one() if seed is None else seed
    for degree in range(ring.order + 1):
        f = TruncatedSeries(ring, {k: v for k, v in mapping(f).terms.items() if k[0] <= degree})
    if mapping(f) != f:
        raise InvariantError("fixed-point iteration did not stabilize; map is not a contraction")
    return f


def continued_fraction(
    b: Callable[[int], TruncatedSeries],
    c: Callable[[int], TruncatedSeries],
    ring: SeriesRing,
    depth: int | None = None,
) -> TruncatedSeries:
    """Evaluate 1 / (1 + b_0 - c_0 / (1 + b_1 - c_1 / (...))) to the ring's
    truncation order.

    Every level must contribute positive x-degree (all b_i and c_i have
    x-valuation >= 1), so a depth one beyond the truncation order is
    always sufficient and deeper tails cannot change the result.
    """
    if depth is None:
        depth = ring.order + 1
    f = ring.one()
    for i in range(depth, -1, -1):
        bi, ci = b(i), c(i)
        if (bi and bi.x_valuation() < 1) or (ci and ci.x_valuation() < 1):
            raise ValueError(f"level {i} has a term of x-degree 0")
        f = (ring.one() + bi - ci * f).invert()
    return f
