"""Leveled rewriting systems that compute polynomials as letter counts.

The shape: an alphabet with t+1 levels whose last level is a single letter e,
plus two endomorphisms.  The first (g1) rewrites within each level, the
second (g2) hands a level's output down to the next level and erases the
rest.  Running  w · g1^{n₁} g2 · g1^{n₂} g2 ⋯ g1^{n_t} g2  from a suitable
witness word w leaves a power of e alone, and the exponent — as a function of
(n₁, …, n_t) — is the polynomial the system computes.

Built here:

* validation of the five defining conditions (plus triangularity) with a
  per-condition report that names violating letters;
* the power gadget: a 2^k-letter morphism whose n-fold iteration turns one
  letter into n^k copies of the last letter (rows of the k-fold Kronecker
  power of [[1,1],[0,1]]), plus the trivial gadget for exponent zero;
* monomial systems; one layout routine that sets any number of systems side
  by side, level by level, in a single pass (a disjoint union sharing one e);
  nonnegative linear combinations via witness repetition; and the compile
  step that lays out all monomial systems of a nonzero polynomial with
  nonnegative coefficients at once;
* the same layout for whole polynomials built from their exponents alone
  (``lay_out_monomials``, which the encoder uses): every gadget is named
  straight into the merged alphabet, without a system or a renaming per
  term; ``lay_out`` of ``monomial_parts`` stays as its reference;
* evaluation, word-level when feasible and via letter-count matrices when
  the intermediate words would blow past the expansion cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from . import lang, matsem, morph, poly
from .config import alphabet_budget
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
class ConditionResult:
    name: str
    passed: bool
    violations: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        listed = ", ".join(self.violations) if self.violations else "?"
        return f"{self.name}: FAIL ({listed})"


@dataclass(frozen=True)
class MTripleReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.passed)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.conditions)


@dataclass(frozen=True)
class MTriple:
    """A candidate leveled system; see validate_mtriple for the conditions."""

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


def validate_mtriple(alphabet: LeveledAlphabet, g1: Morphism, g2: Morphism,
                     dimension: int) -> MTripleReport:
    """Check every defining condition, reporting violating letters per condition."""
    for name, g in (("g1", g1), ("g2", g2)):
        if not (g.is_endomorphism and g.domain == alphabet):
            raise DimensionMismatch(f"{name} must be an endomorphism over the candidate alphabet")

    structural: list[str] = []
    if dimension < 1:
        structural.append(f"dimension {dimension} < 1")
    if alphabet.level_count != dimension + 1:
        structural.append(f"{alphabet.level_count} levels for dimension {dimension}")
    levels = alphabet.levels
    top = len(levels)  # the level that must hold only the final letter

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
    return MTripleReport(tuple(
        ConditionResult(name, not found[name], tuple(found[name])) for name in CONDITION_NAMES
    ))


def validate(triple: MTriple) -> MTripleReport:
    return validate_mtriple(triple.alphabet, triple.g1, triple.g2, triple.dimension)


# ------------------------------------------------------------------ power gadgets

def _superset_masks(mask: int, k: int) -> list[int]:
    return [j for j in range(2**k) if j | mask == j]


def kronecker_power_morphism(k: int, budget: int | None = None) -> tuple[LeveledAlphabet, Morphism]:
    """A 2^k-letter morphism h with |apply(h^n, first)|_last = n^k.

    Letter i's image is the increasing product of all letters whose index
    bitmask (0-based) contains letter i's; the letter-count matrix is then
    exactly the k-fold Kronecker power of [[1,1],[0,1]].
    """
    if k < 1:
        raise ValueError("power gadget needs k >= 1")
    limit = alphabet_budget(budget)
    if 2**k > limit:
        raise AlphabetBudgetExceeded(2**k, limit, f"power gadget for exponent {k}")
    alphabet = lang.flat_alphabet([f"z{i + 1}" for i in range(2**k)])
    table = {
        f"z{i + 1}": lang.word(alphabet, [f"z{j + 1}" for j in _superset_masks(i, k)])
        for i in range(2**k)
    }
    return alphabet, morph.endomorphism(alphabet, table)


def constant_exponent_morphism() -> tuple[LeveledAlphabet, Morphism]:
    """The exponent-0 gadget: |apply(h^n, a)|_b = 1 for every n >= 1."""
    alphabet = lang.flat_alphabet(["a", "b"])
    b = lang.word(alphabet, ["b"])
    return alphabet, morph.endomorphism(alphabet, {"a": b, "b": b})


def _block_images(exponent: int) -> list[list[int]]:
    """Per-letter image index lists (0-based) for one level's gadget."""
    if exponent == 0:
        return [[1], [1]]  # a -> b, b -> b
    return [_superset_masks(i, exponent) for i in range(2**exponent)]


# ------------------------------------------------------------------ monomials

def _monomial_sizes(exponents: Sequence[int], budget: int | None) -> list[int]:
    """Level sizes of the monomial system for these exponents, checked against the budget."""
    if len(exponents) < 1:
        raise ValueError("need at least one exponent")
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    limit = alphabet_budget(budget)
    if max(exponents) >= limit.bit_length():
        # one level of 2**a letters alone is over the budget; 2**a is not computed,
        # as for a huge exponent it would not fit in memory
        raise AlphabetBudgetExceeded(f"at least 2^{max(exponents)}", limit,
                                     f"monomial with exponents {tuple(exponents)}")
    sizes = [2 ** max(a, 1) for a in exponents]
    if sum(sizes) + 1 > limit:
        raise AlphabetBudgetExceeded(sum(sizes) + 1, limit,
                                     f"monomial with exponents {tuple(exponents)}")
    return sizes


def _leveled_names(sizes: Sequence[int]) -> LeveledAlphabet:
    blocks = [[f"{li}.{j + 1}" for j in range(size)] for li, size in enumerate(sizes, start=1)]
    blocks.append(["e"])
    return lang.leveled_alphabet(blocks)


def monomial_mtriple(exponents: Sequence[int], budget: int | None = None) -> ComputableMap:
    """The system computing x₁^{α₁} ⋯ x_t^{α_t}, with the first letter as witness."""
    t = len(exponents)
    alphabet = _leveled_names(_monomial_sizes(exponents, budget))
    levels = alphabet.levels
    eps = lang.epsilon(alphabet)

    table1 = {"e": eps}
    for li, exponent in enumerate(exponents, start=1):
        block = levels[li - 1]
        for local, image_indices in enumerate(_block_images(exponent)):
            table1[block[local]] = lang.word(alphabet, [block[j] for j in image_indices])
    g1 = morph.endomorphism(alphabet, table1)

    table2 = {a: eps for a in alphabet.letters}
    for li in range(1, t + 1):
        last = levels[li - 1][-1]
        first_of_next = levels[li][0]  # level t feeds the final letter
        table2[last] = lang.word(alphabet, [first_of_next])
    g2 = morph.endomorphism(alphabet, table2)

    triple = MTriple(alphabet, g1, g2, t)
    witness = lang.word(alphabet, [levels[0][0]])
    monomial = poly.polynomial(t, {tuple(exponents): 1})
    return ComputableMap(triple, witness, monomial)


# ------------------------------------------------------------------ combination

def lay_out(systems: Sequence[ComputableMap], tags: Sequence[str] | None = None,
            head: Sequence[Letter] = (), budget: int | None = None,
            context: str = "side-by-side layout",
            ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """Lay systems of equal dimension side by side, level by level, in one pass.

    Within each level, system k's block follows the blocks of systems
    1..k-1, and its letters are named "{tag}{level}.{position}", where the
    positions count only the systems sharing system k's tag (no tags: one
    shared empty tag).  The final letter e is shared and the ``head``
    letters open the first level.  Returns the merged alphabet, the g1 and
    g2 image tables (every image translated once; the caller supplies the
    head letters' images) and each system's translated witness.
    """
    t = systems[0].triple.dimension
    for c in systems:
        if c.triple.dimension != t:
            raise DimensionMismatch(f"dimensions {t} and {c.triple.dimension} differ")
    tags = tags or [""] * len(systems)
    renamings = [{c.triple.final_letter: "e"} for c in systems]
    letters: list[Letter] = list(head)
    sizes: list[int] = []
    for li in range(1, t + 1):
        filled = dict.fromkeys(tags, 0)
        for c, tag, renaming in zip(systems, tags, renamings):
            for a in c.triple.level(li):
                filled[tag] += 1
                renaming[a] = f"{tag}{li}.{filled[tag]}"
                letters.append(renaming[a])
        sizes.append(len(letters) - sum(sizes))
    letters.append("e")
    sizes.append(1)
    limit = alphabet_budget(budget)
    if len(letters) > limit:
        raise AlphabetBudgetExceeded(len(letters), limit, context)
    merged = LeveledAlphabet(tuple(letters), tuple(sizes))

    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    for c, renaming in zip(systems, renamings):
        triple = c.triple
        for a, image1, image2 in zip(triple.alphabet.letters[:-1], triple.g1.images, triple.g2.images):
            g1[renaming[a]] = lang.translate(image1, renaming, merged)
            g2[renaming[a]] = lang.translate(image2, renaming, merged)
    witnesses = [lang.translate(c.witness, renaming, merged)
                 for c, renaming in zip(systems, renamings)]
    return merged, g1, g2, witnesses


def lay_out_monomials(polynomials: Sequence[poly.Polynomial], tags: Sequence[str] | None = None,
                      head: Sequence[Letter] = (), budget: int | None = None,
                      context: str = "side-by-side layout",
                      ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """:func:`lay_out` of the polynomials' monomial systems, built from the exponents alone.

    Returns what ``lay_out`` returns for the :func:`monomial_parts` of all
    polynomials in order, polynomial k's terms tagged ``tags[k]``, except
    that each polynomial has one witness: its terms' witnesses concatenated.
    No per-term system is built and nothing is translated: every letter is
    named "{tag}{level}.{position}" in the merged alphabet at once, each
    level gadget's image index lists are computed once per exponent, and the
    images, normal by construction, share one empty word.  Errors are those
    of that path, in its order: per polynomial, a zero polynomial, then per
    term the monomial checks; then differing arities; then the merged total
    against ``budget`` (named by ``context``).
    """
    for p in polynomials:
        if p.is_zero:
            raise ValueError("cannot compile the zero polynomial")
        for exponents, _ in p.terms:
            _monomial_sizes(exponents, budget)
    t = polynomials[0].arity
    for p in polynomials:
        if p.arity != t:
            raise DimensionMismatch(f"dimensions {t} and {p.arity} differ")
    tags = tags or [""] * len(polynomials)
    systems = [(k, exponents, coeff)
               for k, p in enumerate(polynomials) for exponents, coeff in p.terms]
    starts = [[0] * (t + 1) for _ in systems]  # each system's block start per level, then e's
    letters: list[Letter] = list(head)
    sizes: list[int] = []
    for li in range(t):
        filled = dict.fromkeys(tags, 0)
        for (k, exponents, _), start in zip(systems, starts):
            tag = tags[k]
            start[li] = len(letters)
            size = 2 ** max(exponents[li], 1)
            at = filled[tag]
            letters += [f"{tag}{li + 1}.{j}" for j in range(at + 1, at + size + 1)]
            filled[tag] = at + size
        sizes.append(len(letters) - sum(sizes))
    for start in starts:
        start[t] = len(letters)
    letters.append("e")
    sizes.append(1)
    limit = alphabet_budget(budget)
    if len(letters) > limit:
        raise AlphabetBudgetExceeded(len(letters), limit, context)
    merged = LeveledAlphabet(tuple(letters), tuple(sizes))

    single = [(a, 1) for a in letters]  # one shared run per letter
    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    gadgets: dict[int, list[list[int]]] = {}
    witness_runs: list[list[tuple[Letter, int]]] = [[] for _ in polynomials]
    for (k, exponents, coeff), start in zip(systems, starts):
        witness_runs[k].append((letters[start[0]], coeff))
        for li, exponent in enumerate(exponents):
            if exponent not in gadgets:
                gadgets[exponent] = _block_images(exponent)
            at = start[li]
            for i, indices in enumerate(gadgets[exponent], start=at):
                g1[letters[i]] = lang._normal_word(merged, tuple(single[at + j] for j in indices))
                g2[letters[i]] = eps
            # the block's last letter hands down to the system's next level (or e)
            g2[letters[i]] = lang._normal_word(merged, (single[start[li + 1]],))
    witnesses = [lang._normal_word(merged, tuple(runs)) for runs in witness_runs]
    return merged, g1, g2, witnesses


def direct_sum_maps(left: ComputableMap, right: ComputableMap,
                    budget: int | None = None) -> tuple[ComputableMap, ComputableMap]:
    """Merge two systems of equal dimension into one with a shared final letter.

    The two-system case of :func:`lay_out`: in each level the left part
    comes first, every letter gets the canonical "level.position" name, and
    both witnesses come back translated into the merged alphabet.
    """
    merged, g1, g2, (u, v) = lay_out([left, right], budget=budget,
                                     context="direct sum of two systems")
    triple = MTriple(merged, morph.endomorphism(merged, g1), morph.endomorphism(merged, g2),
                     left.triple.dimension)
    return ComputableMap(triple, u, left.polynomial), ComputableMap(triple, v, right.polynomial)


def repeat_witness(c: ComputableMap, times: int) -> ComputableMap:
    """Same system, witness repeated: computes the `times`-fold multiple."""
    if times < 1:
        raise ValueError("repetition count must be positive")
    return ComputableMap(c.triple, lang.word_power(c.witness, times),
                         poly.scale(c.polynomial, times))


def linear_combination(left: ComputableMap, right: ComputableMap,
                       alpha: int, beta: int, budget: int | None = None) -> ComputableMap:
    """The map computing alpha·left + beta·right, witnessed by u^alpha v^beta."""
    if alpha < 1 or beta < 1:
        raise ValueError("combination weights must be positive integers")
    merged_left, merged_right = direct_sum_maps(left, right, budget)
    witness = lang.word_concat(
        lang.word_power(merged_left.witness, alpha),
        lang.word_power(merged_right.witness, beta),
    )
    combined = poly.add(poly.scale(left.polynomial, alpha), poly.scale(right.polynomial, beta))
    return ComputableMap(merged_left.triple, witness, combined)


def monomial_parts(p: poly.Polynomial, budget: int | None = None) -> list[ComputableMap]:
    """One monomial system per term of a nonzero polynomial, in term order.

    Each coefficient enters as a witness repetition count, never by
    duplicating alphabet letters.
    """
    if p.is_zero:
        raise ValueError("cannot compile the zero polynomial")
    parts = [
        repeat_witness(monomial_mtriple(exps, budget), coeff)
        for exps, coeff in p.terms
    ]
    if poly.polynomial(p.arity, [term for c in parts for term in c.polynomial.terms]) != p:
        raise AssertionError("monomial systems do not sum to the polynomial")
    return parts


def compile_polynomial(p: poly.Polynomial, budget: int | None = None) -> ComputableMap:
    """Lay out the monomial systems of a nonzero polynomial as one map.

    The witness is the concatenation of the parts' witnesses in term order.
    """
    merged, g1, g2, witnesses = lay_out(monomial_parts(p, budget), budget=budget,
                                        context="monomial systems of one polynomial")
    triple = MTriple(merged, morph.endomorphism(merged, g1), morph.endomorphism(merged, g2),
                     p.arity)
    return ComputableMap(triple, reduce(lang.word_concat, witnesses), p)


# ------------------------------------------------------------------ evaluation

WORD_LEVEL_POINT_LIMIT = 512


def compute_word_level(c: ComputableMap, point: Sequence[int], cap: int | None = None) -> int:
    """Run the iteration on actual words and read off the exponent of e."""
    _check_point(c, point)
    current = c.witness
    for n in point:
        for _ in range(n):
            current = morph.apply(c.triple.g1, current, cap)
        current = morph.apply(c.triple.g2, current, cap)
    assert current.support() <= {c.triple.final_letter}, "iteration must end in the final letter"
    return current.length


def compute_matrix_level(c: ComputableMap, point: Sequence[int]) -> int:
    """Transport the witness letter counts through matrix powers instead."""
    _check_point(c, point)
    m1 = morph.matrix_of(c.triple.g1)
    m2 = morph.matrix_of(c.triple.g2)
    vec = morph.parikh_vector(c.witness)
    for n in point:
        vec = matsem.vec_mat(vec, matsem.mat_pow(m1, n))
        vec = matsem.vec_mat(vec, m2)
    final_index = len(c.triple.alphabet) - 1
    assert set(vec) <= {final_index}, "iteration must end in the final letter"
    return vec.get(final_index, 0)


def compute(c: ComputableMap, point: Sequence[int], method: str = "auto",
            cap: int | None = None) -> int:
    """Evaluate the computed polynomial at a point of positive integers.

    "auto" runs word-level for small points and falls back to letter-count
    matrices when words would overrun the expansion cap (the two agree by
    the count-transport invariant).
    """
    if method == "word":
        return compute_word_level(c, point, cap)
    if method == "matrix":
        return compute_matrix_level(c, point)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if max(point, default=1) <= WORD_LEVEL_POINT_LIMIT:
        try:
            return compute_word_level(c, point, cap)
        except ExpansionCapExceeded:
            pass
    return compute_matrix_level(c, point)


def _check_point(c: ComputableMap, point: Sequence[int]) -> None:
    if len(point) != c.triple.dimension:
        raise DimensionMismatch(
            f"point has {len(point)} entries, dimension is {c.triple.dimension}")
    if any(n < 1 for n in point):
        raise ValueError("point entries must be >= 1")
