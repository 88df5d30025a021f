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
* power gadgets: the level of a monomial c · x₁^{α₁} ⋯ x_t^{α_t} for an
  exponent k ≥ 1 is k + 1 letters, letter i mapping to the product over
  j ≥ i of letter j to the power C(k − i, j − i), so that n-fold iteration
  turns the first into n^k copies of the last.  Its count matrix is the
  k-fold Kronecker power of [[1,1],[0,1]] lumped by subset size: letter i
  stands for the subsets of {1..k} of size i.  Exponent zero gets two
  letters a -> b, b -> b;
* one letter layout (``_place``) that names blocks level by level in a
  single pass, any number of them per level, all sharing one e;
* a polynomial's system as the minimal DAG of its terms' prefix tree
  (``lay_out_monomials``, which the encoder and ``compile_polynomial``
  use): a node at level k is one gadget block for a_k, shared by every
  term whose first k exponents agree and by every identical subtree.  g2
  hands a block's last letter down to the first letters of its children,
  one run each, as long as the edge into the child counts.  A positive-exponent
  leaf hands down e^c for its coefficient c; the edge into an exponent-0
  leaf counts c instead, and that leaf hands down e (g2 of e is ε, so g2
  still erases squares).  The witness holds the roots' first letters,
  each as often as its edge counts;
* ``lay_out``, which lays built systems side by side, each a chain of
  blocks (``direct_sum_maps``);
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


# ------------------------------------------------------------------ layout

def _place(levels: Sequence[Sequence[tuple[str, int]]], head: Sequence[Letter],
           budget: int | None, context: str) -> tuple[LeveledAlphabet, list[list[int]]]:
    """Name the letters of gadget blocks laid out level by level, in one pass.

    ``levels[li]`` lists level li + 1's blocks in placement order as
    ``(tag, size)`` pairs.  A block's letters are named
    "{tag}{level}.{position}", where the positions count only the blocks of
    that level sharing its tag.  The ``head`` letters open the first level
    and one final letter e closes the alphabet.  Returns the merged alphabet
    and, per level, the index of each block's first letter.  The merged
    total is checked against ``budget`` (named by ``context``) before any
    letter is named.
    """
    needed = len(head) + sum(size for blocks in levels for _, size in blocks) + 1
    limit = alphabet_budget(budget)
    if needed > limit:
        raise AlphabetBudgetExceeded(needed, limit, context)
    letters: list[Letter] = list(head)
    merged_sizes: list[int] = []
    starts: list[list[int]] = []
    for li, blocks in enumerate(levels, start=1):
        filled: dict[str, int] = {}
        starts.append([])
        for tag, size in blocks:
            starts[-1].append(len(letters))
            at = filled.get(tag, 0)
            letters += [f"{tag}{li}.{j}" for j in range(at + 1, at + size + 1)]
            filled[tag] = at + size
        merged_sizes.append(len(letters) - sum(merged_sizes))
    letters.append("e")
    merged_sizes.append(1)
    return LeveledAlphabet(tuple(letters), tuple(merged_sizes)), starts


def lay_out(systems: Sequence[ComputableMap], context: str,
            ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """Lay systems of equal dimension side by side, as :func:`_place` names
    them with one empty tag: each system is a chain of blocks, one per level.

    Returns the merged alphabet, the g1 and g2 image tables (every image
    translated once) and each system's translated witness.  Errors:
    differing dimensions, then the merged total against the default budget
    (named by ``context``).
    """
    t = systems[0].triple.dimension
    for c in systems:
        if c.triple.dimension != t:
            raise DimensionMismatch(f"dimensions {t} and {c.triple.dimension} differ")
    merged, starts = _place(
        [[("", c.triple.alphabet.level_sizes[li]) for c in systems] for li in range(t)], (), None, context)
    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    witnesses = []
    final = len(merged) - 1
    for k, c in enumerate(systems):
        triple = c.triple
        renaming = {a: merged.letters[at + j]  # the final level's one letter goes to e
                    for block, at in zip(triple.alphabet.levels, [s[k] for s in starts] + [final])
                    for j, a in enumerate(block)}
        for a, image1, image2 in zip(triple.alphabet.letters[:-1], triple.g1.images, triple.g2.images):
            g1[renaming[a]] = lang.translate(image1, renaming, merged)
            g2[renaming[a]] = lang.translate(image2, renaming, merged)
        witnesses.append(lang.translate(c.witness, renaming, merged))
    return merged, g1, g2, witnesses


def _check_exponents(exponents: Sequence[int], budget: int | None) -> None:
    """Refuse a term without exponents or with a negative one, and a term
    whose chain of blocks alone, with e, is over the budget."""
    if len(exponents) < 1:
        raise ValueError("need at least one exponent")
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    limit = alphabet_budget(budget)
    needed = sum(max(a, 1) + 1 for a in exponents) + 1
    if needed > limit:
        raise AlphabetBudgetExceeded(needed, limit, f"monomial with exponents {tuple(exponents)}")


def lay_out_monomials(polynomials: Sequence[poly.Polynomial], tags: Sequence[str] | None = None,
                      head: Sequence[Letter] = (), budget: int | None = None,
                      context: str = "side-by-side layout",
                      ) -> tuple[LeveledAlphabet, dict[Letter, Word], dict[Letter, Word], list[Word]]:
    """Lay out each polynomial as the minimal DAG of its terms' prefix tree.

    A node at level k is one power-gadget block for the exponent a_k.  In a
    polynomial's prefix tree, terms whose first k exponents agree share
    their first k nodes; the DAG also merges identical subtrees, so a node
    is keyed by its level, its exponent and what it hands down: a leaf's
    count of e, or the set of its children with the count on each edge.
    Under g2 a block's last letter hands down to the first letters of its
    children, one run each, as long as the edge into the child counts, in
    placement order.  The edge into a positive-exponent leaf counts 1, and
    the leaf hands down e^c for its terms' coefficient c.  An exponent-0
    leaf's block only carries a count, so the edge into it counts c and it
    hands down e once: one such leaf serves the whole polynomial.  Each
    polynomial's witness holds its roots' first letters, as many times as
    their edges count (once, unless t = 1).  So e is reached along each
    root-to-leaf path by the product of its edges' counts and its blocks'
    powers, and the letter count of e after the last level is the
    polynomial's value.

    Within each level the blocks follow polynomial by polynomial, each
    polynomial's nodes in order of their first appearance in its terms (no
    node is shared between polynomials), polynomial k's letters tagged
    ``tags[k]`` (no tags: one empty tag), as :func:`_place` names them.
    Returns the merged alphabet, the g1 and g2 image tables (the caller
    supplies the head letters' images) and each polynomial's witness.  The
    images are filled straight into the merged alphabet, each gadget's
    image runs are computed once per exponent, and the images, normal by
    construction, share one empty word.  Errors, in order: per polynomial,
    a zero polynomial, then per term an empty or negative exponent vector
    or a chain of blocks over ``budget`` alone; then differing arities;
    then the gadget runs of all blocks together against the default
    expansion cap; then the merged total against ``budget`` (named by
    ``context``).
    """
    for p in polynomials:
        if p.is_zero:
            raise ValueError("cannot compile the zero polynomial")
        for exponents, _ in p.terms:
            _check_exponents(exponents, budget)
    t = polynomials[0].arity
    for p in polynomials:
        if p.arity != t:
            raise DimensionMismatch(f"dimensions {t} and {p.arity} differ")
    tags = tags or [""] * len(polynomials)

    # per level, each block's (tag, exponent) and what its last letter hands
    # down: e's count at the last level, else its (child block, count) runs
    blocks: list[list[tuple[str, int]]] = [[] for _ in range(t)]
    handoffs: list[list] = [[] for _ in range(t)]
    roots: list[list[tuple[int, int]]] = []
    for k, p in enumerate(polynomials):
        # bottom up, each prefix's subtree is keyed by its exponent and its
        # hand-off, and the edge into it carries a count.  The edge into an
        # exponent-0 leaf carries the coefficient, so one such leaf serves
        # them all; a positive-exponent leaf hands down e^c instead, as a
        # count on its first letter would repeat the runs of its g1 images
        edges: dict[tuple[int, ...], tuple[tuple, int]] = {}  # prefix -> (key, edge count)
        for exponents, coeff in p.terms:
            a = exponents[-1]
            edges[exponents] = ((a, coeff), 1) if a else ((0, 1), coeff)
        keys: dict[tuple[int, ...], tuple] = {}
        for _ in range(t):
            keys.update((prefix, key) for prefix, (key, _) in edges.items())
            below: dict[tuple[int, ...], set[tuple[tuple, int]]] = {}
            for prefix, edge in edges.items():
                below.setdefault(prefix[:-1], set()).add(edge)
            edges = {prefix: ((prefix[-1], frozenset(children)), 1) for prefix, children in below.items() if prefix}

        # top down, each distinct subtree is placed where it first appears
        placed: list[dict[tuple, int]] = [{} for _ in range(t)]
        for exponents, _ in p.terms:
            for li in range(t):
                key = keys[exponents[:li + 1]]
                if key not in placed[li]:
                    placed[li][key] = len(blocks[li])
                    blocks[li].append((tags[k], key[0]))
                    handoffs[li].append(key[1])
        for li in range(t - 1):
            for node in placed[li].values():
                handoffs[li][node] = sorted((placed[li + 1][child], n) for child, n in handoffs[li][node])
        roots.append(sorted((placed[0][child], n) for child, n in below[()]))

    # the runs grow with the square of an exponent and the letters only
    # linearly, and every letter's image holds a run, so refusing the runs
    # before naming a letter also bounds the letters named, under any budget
    runs = sum(_gadget_runs(a) for level in blocks for _, a in level)
    cap = expansion_cap(None)
    if runs > cap:
        raise ExpansionCapExceeded(runs, cap, f"power gadget runs of the {context}")
    merged, starts = _place([[(tag, max(a, 1) + 1) for tag, a in level] for level in blocks],
                            head, budget, context)

    letters = merged.letters
    eps = lang.epsilon(merged)
    g1: dict[Letter, Word] = {"e": eps}
    g2: dict[Letter, Word] = {"e": eps}
    gadgets: dict[int, list[list[tuple[int, int]]]] = {}
    for li, level in enumerate(blocks):
        for (_, exponent), at, handoff in zip(level, starts[li], handoffs[li]):
            if exponent not in gadgets:
                gadgets[exponent] = _block_images(exponent)
            for i, image_runs in enumerate(gadgets[exponent], start=at):
                g1[letters[i]] = lang._normal_word(merged, tuple((letters[at + j], n) for j, n in image_runs))
                g2[letters[i]] = eps
            g2[letters[i]] = lang._normal_word(
                merged, (("e", handoff),) if li == t - 1
                else tuple((letters[starts[li + 1][child]], n) for child, n in handoff))
    witnesses = [lang._normal_word(merged, tuple((letters[starts[0][node]], n) for node, n in nodes))
                 for nodes in roots]
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


def compile_polynomial(p: poly.Polynomial) -> ComputableMap:
    """The system of a nonzero polynomial: the minimal DAG of its gadget
    blocks, as the encoder lays it out (:func:`lay_out_monomials`), with the
    root blocks' first letters as witness."""
    merged, g1, g2, (witness,) = lay_out_monomials([p], context="DAG of one polynomial")
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
