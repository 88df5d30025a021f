"""Exact multivariate polynomial arithmetic over nonnegative integer coefficients.

A polynomial in t variables is stored sparsely as a tuple of
(exponent vector, coefficient) terms, sorted in graded lexicographic order
(total degree first, then the exponent tuple).  The sorted-tuple form is a
unique normal form, so structural equality is polynomial equality.  Zero is
the empty term tuple.  Coefficients and evaluations are ordinary Python ints,
hence arbitrary precision; exponents stay small.

Subtraction is deliberately absent: the whole pipeline lives in the
nonnegative semiring.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ArityMismatch, InvalidPolynomial

Exponents = tuple[int, ...]


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _in_normal_order(terms: Sequence[tuple[Exponents, int]]) -> bool:
    """Strictly increasing keys: sorted, and no exponent vector twice."""
    keys = [_grlex_key(e) for e, _ in terms]
    return all(a < b for a, b in zip(keys, keys[1:]))


@dataclass(frozen=True)
class Polynomial:
    arity: int
    terms: tuple[tuple[Exponents, int], ...]

    def __post_init__(self):
        assert self.arity >= 1
        assert all(len(e) == self.arity and c > 0 and min(e) >= 0 for e, c in self.terms)
        assert _in_normal_order(self.terms), "not in normal form"

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                       for i, e in enumerate(exps) if e > 0]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts)


def polynomial(arity: int, coeffs: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]]) -> Polynomial:
    """Build a polynomial from exponent->coefficient data, normalizing.

    Duplicate exponent vectors are summed; zero coefficients are dropped;
    negative coefficients are rejected, and so are arities below 1 and
    negative exponents.
    """
    if arity < 1:
        raise InvalidPolynomial(f"arity must be at least 1, got {arity}")
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    acc: dict[Exponents, int] = {}
    for exps, coeff in items:
        exps = tuple(int(e) for e in exps)
        if len(exps) != arity:
            raise ArityMismatch(f"exponent vector {exps} has length {len(exps)}, arity is {arity}")
        if min(exps) < 0:
            raise InvalidPolynomial(f"exponent vector {exps} has a negative exponent")
        if coeff < 0:
            raise ValueError(f"negative coefficient {coeff}")
        if coeff:
            acc[exps] = acc.get(exps, 0) + coeff
    return _normal(arity, acc)


def _normal(arity: int, acc: Mapping[Exponents, int]) -> Polynomial:
    """The polynomial of a table of valid exponent vectors and positive
    coefficients, sorted into normal form without checking the table again."""
    return Polynomial(arity, tuple(sorted(acc.items(), key=lambda t: _grlex_key(t[0]))))


def zero(arity: int) -> Polynomial:
    return Polynomial(arity, ())


def constant(c: int, arity: int) -> Polynomial:
    return polynomial(arity, {(0,) * arity: c})


def variable(i: int, arity: int) -> Polynomial:
    """The variable x_i (1-based) as a polynomial of the given arity."""
    if not 1 <= i <= arity:
        raise ArityMismatch(f"variable index {i} out of range for arity {arity}")
    exps = tuple(1 if j == i - 1 else 0 for j in range(arity))
    return Polynomial(arity, ((exps, 1),))


def add(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot add arity {a.arity} and {b.arity}")
    acc = dict(a.terms)
    for exps, coeff in b.terms:
        acc[exps] = acc.get(exps, 0) + coeff
    return _normal(a.arity, acc)


def mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot multiply arity {a.arity} and {b.arity}")
    return _normal(a.arity, _product(a.terms, b.terms))


def _product(a: Iterable[tuple[Exponents, int]],
             b: Sequence[tuple[Exponents, int]]) -> dict[Exponents, int]:
    """Exponent -> coefficient table of the product of two term lists, unnormalized."""
    acc: dict[Exponents, int] = {}
    for ea, ca in a:
        for eb, cb in b:
            key = tuple(map(operator.add, ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def evaluate(p: Polynomial, point: Sequence[int]) -> int:
    """Exact evaluation at a point of positive integers."""
    if len(point) != p.arity:
        raise ArityMismatch(f"point has {len(point)} entries, arity is {p.arity}")
    for x in point:
        if x < 1:
            raise ValueError(f"evaluation point entries must be >= 1, got {x}")
    total = 0
    for exps, coeff in p.terms:
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        total += term
    return total


def compose(outer: Polynomial, args: Sequence[Polynomial]) -> Polynomial:
    """Substitute args[i] for x_{i+1} in outer and expand to normal form."""
    if len(args) != outer.arity:
        raise ArityMismatch(f"outer has arity {outer.arity}, got {len(args)} arguments")
    if not args:
        raise ArityMismatch("composition needs at least one argument")
    inner_arity = args[0].arity
    if any(g.arity != inner_arity for g in args):
        raise ArityMismatch("composition arguments must share one arity")
    # memoize powers of each argument; degrees stay tiny at this scale
    powers: list[dict[int, Polynomial]] = [{0: constant(1, inner_arity)} for _ in args]

    def arg_power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = mul(arg_power(i, e - 1), args[i])
        return cache[e]

    # expand every term into one exponent -> coefficient table, normalize once
    acc: dict[Exponents, int] = {}
    for exps, coeff in outer.terms:
        term = {(0,) * inner_arity: coeff}
        for i, e in enumerate(exps):
            if e:
                term = _product(term.items(), arg_power(i, e).terms)
        for key, c in term.items():
            acc[key] = acc.get(key, 0) + c
    return polynomial(inner_arity, acc)


def tupling(slots: Sequence[Polynomial]) -> Polynomial:
    """The pairing pair(a, b) = (a + b)^2 + a nested over the slot polynomials:
    pair(... pair(pair(s1, s2), s3) ..., sk), expanded with add and mul.

    The pairing is injective on positive pairs: for a fixed sum s = a + b its
    values fill the band s^2 + 1 .. s^2 + s - 1, and the bands for distinct
    sums are disjoint.  Its values are positive again, so the nesting is
    injective on positive tuples of slot values.
    """
    if len(slots) < 2:
        raise ValueError("injective tupling needs k >= 2")
    acc = slots[0]
    for b in slots[1:]:
        s = add(acc, b)
        acc = add(mul(s, s), acc)
    return acc


def injective_tupling(k: int) -> Polynomial:
    """The tupling of the variables x1, ..., xk: the k-ary nesting of the
    pairing, injective on positive tuples.  A tupled polynomial equals it
    with its slot polynomials substituted for the variables."""
    return tupling([variable(i, k) for i in range(1, k + 1)])
