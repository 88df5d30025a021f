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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ArityMismatch, InvalidPolynomial

Exponents = tuple[int, ...]


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


@dataclass(frozen=True)
class Polynomial:
    arity: int
    terms: tuple[tuple[Exponents, int], ...]

    def __post_init__(self):
        assert self.arity >= 1
        for exps, coeff in self.terms:
            assert len(exps) == self.arity and coeff > 0
            assert all(e >= 0 for e in exps)
        keys = [_grlex_key(e) for e, _ in self.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), "not in normal form"

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
    terms = tuple(sorted(((e, c) for e, c in acc.items() if c), key=lambda t: _grlex_key(t[0])))
    return Polynomial(arity, terms)


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
    return polynomial(a.arity, list(a.terms) + list(b.terms))


def mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot multiply arity {a.arity} and {b.arity}")
    return polynomial(a.arity, _product(a.terms, b.terms))


def _product(a: Iterable[tuple[Exponents, int]],
             b: Sequence[tuple[Exponents, int]]) -> dict[Exponents, int]:
    """Exponent -> coefficient table of the product of two term lists, unnormalized."""
    acc: dict[Exponents, int] = {}
    for ea, ca in a:
        for eb, cb in b:
            key = tuple(x + y for x, y in zip(ea, eb))
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


def lift(p: Polynomial, arity: int) -> Polynomial:
    """Reinterpret p over a larger variable set (pads exponent vectors)."""
    if arity < p.arity:
        raise ArityMismatch(f"cannot lift arity {p.arity} down to {arity}")
    pad = (0,) * (arity - p.arity)
    return Polynomial(arity, tuple((e + pad, c) for e, c in p.terms))


def pairing() -> Polynomial:
    """(x1 + x2)^2 + x1: integer coefficients, injective on positive pairs.

    Injectivity: for a fixed sum s = x1 + x2 the values fill the band
    s^2 + 1 .. s^2 + s - 1, and the bands for distinct sums are disjoint.
    """
    return polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 1})


def injective_tupling(k: int) -> Polynomial:
    """The k-ary nesting of the pairing polynomial, injective on positive tuples."""
    if k < 2:
        raise ValueError("injective tupling needs k >= 2")
    result = pairing()
    for j in range(3, k + 1):
        args = [lift(result, j), variable(j, j)]
        result = compose(pairing(), args)
    return result
