"""Leveled rewriting systems that compute polynomials as letter counts.

The shape: an alphabet with t+1 levels whose last level is a single letter e,
plus two endomorphisms.  The first (g1) rewrites within each level, the
second (g2) hands a level's output down to the next level and erases the
rest.  Running  w · g1^{n₁} g2 · g1^{n₂} g2 ⋯ g1^{n_t} g2  from a suitable
witness word w leaves a power of e alone, and the exponent — as a function of
(n₁, …, n_t) — is the polynomial the system computes.

Built here:

* validation of the five defining conditions (plus triangularity): a table
  from each condition's name to the letters that violate it;
* monomial systems for c · x₁^{α₁} ⋯ x_t^{α_t}, whose level for an
  exponent k ≥ 1 is the power gadget: k + 1 letters, letter i mapping to
  the product over j ≥ i of letter j to the power C(k − i, j − i), so that
  n-fold iteration turns the first into n^k copies of the last.  Its count
  matrix is the k-fold Kronecker power of [[1,1],[0,1]] lumped by subset
  size: letter i stands for the subsets of {1..k} of size i.  Exponent zero
  gets two letters a -> b, b -> b.  The witness is the first letter once;
  the coefficient c is the last hand-off, g2 mapping the last level's last
  letter to e^c (g2 of e is ε, so g2 still erases squares);
* one letter layout (``_place``) that names any number of systems side by
  side, level by level, in a single pass (a disjoint union sharing one e);
* two routines that fill the images into that layout: ``lay_out``
  translates the images of built systems, and ``lay_out_monomials`` (which
  the encoder and ``compile_polynomial`` use) writes every gadget straight
  from the polynomials' exponents, without a system or a renaming per
  term; ``lay_out`` of ``monomial_parts`` stays as its reference;
* word-level evaluation of a compiled map at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from . import lang, morph, poly
from .config import alphabet_budget, expansion_cap
from .errors import AlphabetBudgetExceeded, DimensionMismatch, ExpansionCapExceeded
from .lang import LeveledAlphabet, Letter, Word
from .morph import Morphism

CONDITION_NAMES = (
    "structural",
    "level_preserving",
    "level_raising",
    "square_erasing",
    "final_level_singleton",
    "final_letter_erased",
    "triangular",
)


@dataclass(frozen=True)
class MTriple:
    """A candidate leveled system; see :func:`validate` for the conditions."""

    alphabet: LeveledAlphabet
    g1: Morphism
    g2: Morphism
    dimension: int

    @property
    def final_letter(self) -> Letter:
        return self.alphabet.letters[-1]

    def level(self, i: int) -> tuple[Letter, ...]:
        return self.alphabet.levels[i - 1]


@dataclass(frozen=True)
class ComputableMap:
    """An M-triple together with a start word and the polynomial it computes."""

    triple: MTriple
    witness: Word
    polynomial: poly.Polynomial

    def __post_init__(self):
        assert self.witness.alphabet == self.triple.alphabet
        level1 = set(self.triple.level(1))
        assert self.witness.support() <= level1, "witness must stay in the first level"
        assert self.polynomial.arity == self.triple.dimension


def validate(triple: MTriple) -> dict[str, tuple[str, ...]]:
    """The letters violating each defining condition, keyed by the names of
    ``CONDITION_NAMES`` in that order; a condition holds when its tuple is
    empty.  ``structural`` lists descriptions instead of letters, and
    ``triangular`` prefixes each letter with the generator that breaks it."""
    alphabet, g1, g2, dimension = triple.alphabet, triple.g1, triple.g2, triple.dimension
    structural: list[str] = []
    if dimension < 1:
        structural.append(f"dimension {dimension} < 1")
    if alphabet.level_count != dimension + 1:
        structural.append(f"{alphabet.level_count} levels for dimension {dimension}")
    levels = alphabet.levels

    preserving = [
        a
        for li, block in enumerate(levels, start=1)
        for a in block
        if not all(alphabet.level_of(z) == li for z in g1.image(a).support())
    ]

    raising = [
        a
        for li, block in enumerate(levels[:-1], start=1)
        for a in block
        if not all(alphabet.level_of(z) == li + 1 for z in g2.image(a).support())
    ]

    squares = [a for a in alphabet.letters if not morph.apply(g2, g2.image(a)).is_empty]

    last_level = levels[-1]
    singleton = list(last_level) if len(last_level) != 1 else []

    final = alphabet.letters[-1]
    erased = [] if g1.image(final).is_empty and g2.image(final).is_empty else [final]

    triangular = [
        f"{tag}:{a}"
        for tag, g in (("g1", g1), ("g2", g2))
        for i, a in enumerate(alphabet.letters)
        if any(alphabet.index_of(z) < i for z in g.image(a).support())
    ]

    found = dict(
        structural=structural,
        level_preserving=preserving,
        level_raising=raising,
        square_erasing=squares,
        final_level_singleton=singleton,
        final_letter_erased=erased,
        triangular=triangular,
    )
    return {name: tuple(found[name]) for name in CONDITION_NAMES}


# ------------------------------------------------------------------ power gadgets

def _block_images(exponent: int) -> list[list[tuple[int, int]]]:
    """Per-letter image runs (0-based index, count) of one level's gadget:
    letter i maps to letter j ≥ i C(exponent − i, j − i) times, the number
    of size-j supersets of one size-i subset of {1..exponent}."""
    if exponent == 0:
        return [[(1, 1)], [(1, 1)]]  # a -> b, b -> b
    return [[(j, comb(exponent - i, j - i)) for j in range(i, exponent + 1)]
            for i in range(exponent + 1)]


def _gadget_runs(exponent: int) -> int:
    """The number of runs in the images of :func:`_block_images` (exponent)."""
    return (exponent + 1) * (exponent + 2) // 2 if exponent else 2


# ------------------------------------------------------------------ monomials

def _monomial_sizes(exponents: Sequence[int], budget: int | None) -> list[int]:
    """Level sizes of the monomial system for these exponents, checked against the budget."""
    if len(exponents) < 1:
        raise ValueError("need at least one exponent")
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    limit = alphabet_budget(budget)
    sizes = [max(a, 1) + 1 for a in exponents]
    if sum(sizes) + 1 > limit:
        raise AlphabetBudgetExceeded(sum(sizes) + 1, limit,
                                     f"monomial with exponents {tuple(exponents)}")
    return sizes


def _place_gadgets(terms: Sequence[Sequence[int]], level_sizes: Sequence[Sequence[int]],
                   tags: Sequence[str], head: Sequence[Letter], budget: int | None,
                   context: str) -> tuple[LeveledAlphabet, list[list[int]]]:
    """:func:`_place` for monomial systems with these exponents and level sizes,
    after refusing a layout whose gadget images would hold more runs, all
    levels together, than the default expansion cap.  The runs grow with the
    square of an exponent and the letters only linearly, and every letter's
    image holds a run, so the refusal also bounds the letters named, under
    any budget."""
    runs = sum(_gadget_runs(a) for exponents in terms for a in exponents)
    cap = expansion_cap(None)
    if runs > cap:
        raise ExpansionCapExceeded(runs, cap, f"power gadget runs of the {context}")
    return _place(level_sizes, tags, head, budget, context)


def monomial_mtriple(exponents: Sequence[int], coefficient: int = 1,
                     budget: int | None = None) -> ComputableMap:
    """The system computing c · x₁^{α₁} ⋯ x_t^{α_t}, with the first letter as
    witness: the last level's last letter hands down e^c."""
    if coefficient < 1:
        raise ValueError("coefficients must be positive")
    t = len(exponents)
    alphabet, _ = _place_gadgets([exponents], [_monomial_sizes(exponents, budget)], [""], (),
                                 budget, "monomial")
    levels = alphabet.levels
    eps = lang.epsilon(alphabet)

    table1 = {"e": eps}
    for li, exponent in enumerate(exponents, start=1):
        block = levels[li - 1]
        for local, image_runs in enumerate(_block_images(exponent)):
            table1[block[local]] = lang.word_from_runs(alphabet, [(block[j], n) for j, n in image_runs])
    g1 = morph.endomorphism(alphabet, table1)

    table2 = {a: eps for a in alphabet.letters}
    for li in range(1, t + 1):
        last = levels[li - 1][-1]
        first_of_next = levels[li][0]  # level t feeds the final letter, c times
        table2[last] = lang.letter_power(alphabet, first_of_next, coefficient if li == t else 1)
    g2 = morph.endomorphism(alphabet, table2)

    triple = MTriple(alphabet, g1, g2, t)
    witness = lang.word(alphabet, [levels[0][0]])
    monomial = poly.polynomial(t, {tuple(exponents): coefficient})
    return ComputableMap(triple, witness, monomial)


# ------------------------------------------------------------------ combination

def _place(level_sizes: Sequence[Sequence[int]], tags: Sequence[str], head: Sequence[Letter],
           budget: int | None, context: str) -> tuple[LeveledAlphabet, list[list[int]]]:
    """Name the letters of systems laid side by side, level by level, in one pass.

    ``level_sizes[k]`` lists system k's level sizes, its final letter left
    out.  Within each level, system k's block follows the blocks of systems
    1..k-1, and its letters are named "{tag}{level}.{position}", where the
    positions count only the systems sharing system k's tag ``tags[k]``.
    The final letter e is shared and the ``head`` letters open the first
    level.  Returns the merged alphabet and, per system, the index of its
    first letter in each level, then the index of e.  Errors: differing
    dimensions, then the merged total against ``budget`` (named by
    ``context``).
    """
    t = len(level_sizes[0])
    for sizes in level_sizes:
        if len(sizes) != t:
            raise DimensionMismatch(f"dimensions {t} and {len(sizes)} differ")
    starts = [[0] * (t + 1) for _ in level_sizes]
    letters: list[Letter] = list(head)
    merged_sizes: list[int] = []
    for li in range(t):
        filled = dict.fromkeys(tags, 0)
        for sizes, tag, start in zip(level_sizes, tags, starts):
            start[li] = len(letters)
            at = filled[tag]
            letters += [f"{tag}{li + 1}.{j}" for j in range(at + 1, at + sizes[li] + 1)]
            filled[tag] = at + sizes[li]
        merged_sizes.append(len(letters) - sum(merged_sizes))
    for start in starts:
        start[t] = len(letters)
    letters.append("e")
    merged_sizes.append(1)
    limit = alphabet_budget(budget)
    if len(letters) > limit:
        raise AlphabetBudgetExceeded(len(letters), limit, context)
    return LeveledAlphabet(tuple(letters), tuple(merged_sizes)), starts


def lay_out(systems: Sequence[ComputableMap], tags: Sequence[str] | None = None,
            head: Sequence[Letter] = (), budget: int | None = None,
            context: str = "side-by-side layout",
            ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """Lay systems of equal dimension side by side, as :func:`_place` names them.

    No tags means one shared empty tag.  Returns the merged alphabet, the g1
    and g2 image tables (every image translated once; the caller supplies
    the head letters' images) and each system's translated witness.
    """
    tags = tags or [""] * len(systems)
    merged, starts = _place([c.triple.alphabet.level_sizes[:-1] for c in systems], tags, head,
                            budget, context)
    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    witnesses = []
    for c, start in zip(systems, starts):
        triple = c.triple
        renaming = {a: merged.letters[at + j]  # the final level's one letter goes to e
                    for block, at in zip(triple.alphabet.levels, start) for j, a in enumerate(block)}
        for a, image1, image2 in zip(triple.alphabet.letters[:-1], triple.g1.images, triple.g2.images):
            g1[renaming[a]] = lang.translate(image1, renaming, merged)
            g2[renaming[a]] = lang.translate(image2, renaming, merged)
        witnesses.append(lang.translate(c.witness, renaming, merged))
    return merged, g1, g2, witnesses


def lay_out_monomials(polynomials: Sequence[poly.Polynomial], tags: Sequence[str] | None = None,
                      head: Sequence[Letter] = (), budget: int | None = None,
                      context: str = "side-by-side layout",
                      ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """:func:`lay_out` of the polynomials' monomial systems, built from the exponents alone.

    Returns what ``lay_out`` returns for the :func:`monomial_parts` of all
    polynomials in order, polynomial k's terms tagged ``tags[k]``, except
    that each polynomial has one witness: its terms' first letters, once
    each.  A term's coefficient c is its last hand-off, e^c under g2.
    No per-term system is built and nothing is translated: the images are
    filled straight into the merged alphabet, each level gadget's image
    runs are computed once per exponent, and the images, normal by
    construction, share one empty word.  Errors are those of that path, in
    its order: per polynomial, a zero polynomial, then per term the monomial
    checks; then the gadget runs of all terms together against the default
    expansion cap (that path checks each term's runs alone); then differing
    arities; then the merged total against ``budget`` (named by ``context``).
    """
    systems, level_sizes = [], []
    for k, p in enumerate(polynomials):
        if p.is_zero:
            raise ValueError("cannot compile the zero polynomial")
        for exponents, coeff in p.terms:
            level_sizes.append(_monomial_sizes(exponents, budget))
            systems.append((k, exponents, coeff))
    tags = tags or [""] * len(polynomials)
    merged, starts = _place_gadgets([exponents for _, exponents, _ in systems], level_sizes,
                                    [tags[k] for k, _, _ in systems], head, budget, context)

    letters = merged.letters
    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    gadgets: dict[int, list[list[tuple[int, int]]]] = {}
    witness_runs: list[list[tuple[Letter, int]]] = [[] for _ in polynomials]
    for (k, exponents, coeff), start in zip(systems, starts):
        witness_runs[k].append((letters[start[0]], 1))
        for li, exponent in enumerate(exponents):
            if exponent not in gadgets:
                gadgets[exponent] = _block_images(exponent)
            at = start[li]
            for i, runs in enumerate(gadgets[exponent], start=at):
                g1[letters[i]] = lang._normal_word(merged, tuple((letters[at + j], n) for j, n in runs))
                g2[letters[i]] = eps
            # the block's last letter hands down to the system's next level,
            # or from the last level to e^coeff
            count = coeff if li == len(exponents) - 1 else 1
            g2[letters[i]] = lang._normal_word(merged, ((letters[start[li + 1]], count),))
    witnesses = [lang._normal_word(merged, tuple(runs)) for runs in witness_runs]
    return merged, g1, g2, witnesses


def direct_sum_maps(left: ComputableMap, right: ComputableMap) -> tuple[ComputableMap, ComputableMap]:
    """Merge two systems of equal dimension into one with a shared final letter.

    The two-system case of :func:`lay_out`: in each level the left part
    comes first, every letter gets the canonical "level.position" name, and
    both witnesses come back translated into the merged alphabet.
    """
    merged, g1, g2, (u, v) = lay_out([left, right], context="direct sum of two systems")
    triple = MTriple(merged, morph.endomorphism(merged, g1), morph.endomorphism(merged, g2),
                     left.triple.dimension)
    return ComputableMap(triple, u, left.polynomial), ComputableMap(triple, v, right.polynomial)


def monomial_parts(p: poly.Polynomial, budget: int | None = None) -> list[ComputableMap]:
    """One monomial system per term of a nonzero polynomial, in term order.

    Each coefficient enters as the power of e that the term's last
    hand-off writes, never by duplicating alphabet letters or witnesses.
    """
    if p.is_zero:
        raise ValueError("cannot compile the zero polynomial")
    parts = [monomial_mtriple(exps, coeff, budget) for exps, coeff in p.terms]
    if poly.polynomial(p.arity, [term for c in parts for term in c.polynomial.terms]) != p:
        raise AssertionError("monomial systems do not sum to the polynomial")
    return parts


def compile_polynomial(p: poly.Polynomial) -> ComputableMap:
    """Lay out the monomial systems of a nonzero polynomial as one map,
    with the layout the encoder runs (:func:`lay_out_monomials`).

    The witness is the concatenation of the parts' witnesses in term order:
    each term's first letter, once.
    """
    merged, g1, g2, (witness,) = lay_out_monomials([p], context="monomial systems of one polynomial")
    triple = MTriple(merged, morph.endomorphism(merged, g1), morph.endomorphism(merged, g2),
                     p.arity)
    return ComputableMap(triple, witness, p)


# ------------------------------------------------------------------ evaluation

def compute_word_level(c: ComputableMap, point: Sequence[int]) -> int:
    """Run the iteration on actual words and read off the exponent of e."""
    _check_point(c, point)
    current = c.witness
    for n in point:
        for _ in range(n):
            current = morph.apply(c.triple.g1, current)
        current = morph.apply(c.triple.g2, current)
    assert current.support() <= {c.triple.final_letter}, "iteration must end in the final letter"
    return current.length


def _check_point(c: ComputableMap, point: Sequence[int]) -> None:
    if len(point) != c.triple.dimension:
        raise DimensionMismatch(
            f"point has {len(point)} entries, dimension is {c.triple.dimension}")
    if any(n < 1 for n in point):
        raise ValueError("point entries must be >= 1")
