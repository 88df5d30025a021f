"""Encoder from a pair of polynomials to a pair of monoid morphisms.

Given two polynomials p, q with nonnegative integer coefficients in the same
t variables, this module builds a single leveled alphabet D carrying two
endomorphisms g1 (level-preserving) and g2 (level-raising) such that linear
equations over the generated morphism monoid reflect the solvability of
p = q on positive integers.

Construction outline.  Each polynomial p is first tupled: the injective
pairing is nested over the slot polynomials x1, ..., xt, p, so that the last
slot records the polynomial value alongside the input tuple (see
:func:`diomorph.poly.tupling`; only sums and products are expanded, nothing
is substituted).  The two tupled polynomials become two staged counters.
Each is the minimal DAG of its terms' prefix tree: a node at level k is one
power-gadget block for the exponent a_k, shared by every term whose first
k exponents agree and by every identical subtree; g2 hands a block's last
letter down to its children's first letters, one run each, as long as the
edge into the child counts.  A positive-exponent leaf hands down e^c for its
coefficient c; the edge into an exponent-0 leaf counts c instead, so one
such leaf, handing down e, serves the whole counter.  Both DAGs are laid
out level by level in one pass, straight from the exponents
(:func:`diomorph.mtriple.lay_out_monomials`), the first polynomial's
letters tagged ``A:`` and the second's ``B:``, each counter named exactly
as :func:`diomorph.mtriple.compile_polynomial` would name it alone, and
four fresh control letters ``c0..c3`` are prepended.  The witnesses u and
v hold each counter's root blocks' first letters once (t >= 2, so no root
is a leaf).  The control letters steer which counter an equation side
addresses:

* ``c0 . g2 = c1``, ``c1 . g2 = c2``, ``c2 . g2 = c3``, ``c3 . g2 = c3``;
* ``c2 . g1`` starts the first counter (the image of the first counter's
  witness under one level-preserving step), ``c3 . g1`` starts the second;
* every tagged letter behaves exactly as in its home counter, and both
  counters share the final letter ``e``.

Consequently ``g2^2 . (argument chain) `` evaluates the first tupled
polynomial on ``c0`` and the second on ``c1, c2, c3``, while
``g2^3 . (argument chain)`` evaluates the second on all four control
letters.  The two composites are equal exactly when the tupled values agree,
which by injectivity of the tupling happens exactly when p = q at the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence

from . import matsem, mtriple, poly
from .config import alphabet_budget
from .errors import ArityMismatch, ExpansionCapExceeded
from .lang import LeveledAlphabet, Letter, Word, epsilon, letter_power, word
from .morph import (
    Morphism,
    _composite_images,
    apply,
    apply_stages,
    compose,
    endomorphism,
    identity_morphism,
    is_zero_morphism,
    matrix_of,
    parikh_vector,
)
from .reporting import CheckResult, SuiteReport

CONTROL_LETTERS: tuple[Letter, ...] = ("c0", "c1", "c2", "c3")
FINAL_LETTER: Letter = "e"
FIRST_TAG = "A"
SECOND_TAG = "B"
PROBE_LETTERS = 64  # letters sampled for the row checks of capped words
PROBE_CAP = 20_000  # expansion cap of each sampled letter's trajectory


@dataclass(frozen=True)
class Encoder:
    """The merged two-counter structure built from a pair of polynomials."""

    alphabet: LeveledAlphabet
    g1: Morphism
    g2: Morphism
    u: Word
    v: Word
    dimension: int
    p: poly.Polynomial
    q: poly.Polynomial
    p_tupled: poly.Polynomial
    q_tupled: poly.Polynomial

    @cached_property
    def control_indices(self) -> tuple[int, ...]:
        return tuple(self.alphabet.index_of(c) for c in CONTROL_LETTERS)

    @cached_property
    def generator_matrices(self) -> tuple[matsem.SparseMatrix, matsem.SparseMatrix]:
        """Letter-count matrices of g1 and g2, built once per encoder."""
        return matrix_of(self.g1), matrix_of(self.g2)

    @cached_property
    def final_index(self) -> int:
        return self.alphabet.index_of(FINAL_LETTER)

    def _tagged(self, tag: str) -> frozenset[int]:
        prefix = f"{tag}:"
        return frozenset(i for i, letter in enumerate(self.alphabet.letters) if letter.startswith(prefix))

    @cached_property
    def first_indices(self) -> frozenset[int]:
        """Indices of the letters tagged as belonging to the first counter."""
        return self._tagged(FIRST_TAG)

    @cached_property
    def second_indices(self) -> frozenset[int]:
        return self._tagged(SECOND_TAG)

    def generator(self, symbol: int) -> Morphism:
        if symbol == 1:
            return self.g1
        if symbol == 2:
            return self.g2
        raise ValueError(f"generator symbols are 1 and 2, got {symbol!r}")

    def triple(self) -> mtriple.MTriple:
        return mtriple.MTriple(self.alphabet, self.g1, self.g2, self.dimension)


def tupled(p: poly.Polynomial) -> poly.Polynomial:
    """The tupling of x1, ..., xt, p(x1, ..., xt): the argument slots beside the value."""
    return poly.tupling([poly.variable(i, p.arity) for i in range(1, p.arity + 1)] + [p])


def build_encoder(p: poly.Polynomial, q: poly.Polynomial, budget: int | None = None) -> Encoder:
    """Compile the pair (p, q) into the merged two-counter encoder.

    Each polynomial is tupled by nesting the pairing over its t + 1 slot
    polynomials x1, ..., xt and itself (:func:`tupled`), which is injective
    on positive tuples.  Each tupled polynomial is laid out as the
    minimal DAG of its terms' prefix tree of gadget blocks, straight from
    its exponents (:func:`diomorph.mtriple.lay_out_monomials`): terms that
    share their first k exponents share those k blocks, identical subtrees
    share one block each, and no per-term system is built.  ``budget``
    bounds each term's chain of blocks and the merged alphabet size.
    """
    t = p.arity
    if q.arity != t:
        raise ArityMismatch(f"polynomial arities differ: {p.arity} vs {q.arity}")
    if t < 2:
        raise ArityMismatch("the encoder needs at least two argument slots")
    limit = alphabet_budget(budget)

    p_tupled, q_tupled = tupled(p), tupled(q)

    alphabet, g1_images, g2_images, (u, v) = mtriple.lay_out_monomials(
        (p_tupled, q_tupled), (f"{FIRST_TAG}:", f"{SECOND_TAG}:"), head=CONTROL_LETTERS,
        budget=limit, context="merged encoder alphabet")

    # c2 and c3 start the two counters: their g1 images are u.g1 and v.g1
    eps = epsilon(alphabet)
    g1_images.update(c0=eps, c1=eps, c2=eps, c3=eps)
    counters_g1 = endomorphism(alphabet, g1_images)
    g1_images.update(c2=apply(counters_g1, u), c3=apply(counters_g1, v))
    g2_images.update(
        c0=word(alphabet, ["c1"]),
        c1=word(alphabet, ["c2"]),
        c2=word(alphabet, ["c3"]),
        c3=word(alphabet, ["c3"]),
    )
    g1 = endomorphism(alphabet, g1_images)
    g2 = endomorphism(alphabet, g2_images)
    return Encoder(alphabet, g1, g2, u, v, t, p, q, p_tupled, q_tupled)


# ---------------------------------------------------------------------------
# Generator words and equation sides
# ---------------------------------------------------------------------------


def generator_words(max_len: int) -> Iterator[tuple[int, ...]]:
    """All words over the generator symbols {1, 2} in shortlex order."""
    if max_len < 0:
        raise ValueError("maximum length must be nonnegative")
    for length in range(max_len + 1):
        yield from iter_product((1, 2), repeat=length)


def argument_word(counts: Sequence[int]) -> tuple[int, ...]:
    """The generator word g1^n1 g2 g1^n2 g2 ... encoding an argument tuple."""
    if not counts:
        raise ValueError("argument tuples are nonempty")
    out: list[int] = []
    for n in counts:
        if n < 1:
            raise ValueError(f"argument entries are positive integers, got {n}")
        out.extend([1] * n)
        out.append(2)
    return tuple(out)


def p_side_word(n: int, s: int) -> tuple[int, ...]:
    """Generator word of the first equation side: g2^2 then the (n, s) stages."""
    return (2, 2) + argument_word([n, s])


def q_side_word(n: int, s: int) -> tuple[int, ...]:
    """Generator word of the second equation side: g2^3 then the (n, s) stages."""
    return (2, 2, 2) + argument_word([n, s])


def apply_generator_word(
    enc: Encoder, start: Word, gens: Iterable[int], cap: int | None = None
) -> Word:
    """Apply the composite named by ``gens`` to a word, under the expansion cap.

    The word, or the cap verdict, is that of applying the generators one
    stage at a time; :func:`diomorph.morph.apply_stages` decides the cap from
    letter counts and builds each reachable letter's image once.
    """
    return apply_stages([enc.generator(symbol) for symbol in gens], start, cap)


def word_morphism(enc: Encoder, gens: Iterable[int], cap: int | None = None) -> Morphism:
    """Materialize the composite morphism named by a generator word."""
    result = identity_morphism(enc.alphabet)
    for symbol in gens:
        result = compose(result, enc.generator(symbol), cap=cap)
    return result


def p_side_morphism(enc: Encoder, n: int, s: int) -> Morphism:
    return word_morphism(enc, p_side_word(n, s))


def q_side_morphism(enc: Encoder, n: int, s: int) -> Morphism:
    return word_morphism(enc, q_side_word(n, s))


def matrices(enc: Encoder) -> tuple[matsem.SparseMatrix, matsem.SparseMatrix]:
    """Letter-count matrices of the two generators (cached on the encoder)."""
    return enc.generator_matrices


# ---------------------------------------------------------------------------
# Structural condition suite
# ---------------------------------------------------------------------------


def condition_suite(enc: Encoder) -> SuiteReport:
    """Structural invariants of the merged encoder.

    Checks the control-letter tables, erasure of the shared final letter,
    double-raise erasure away from the control letters, the square/cube
    agreement that powers the equation semantics, annihilation of the
    composite g1.g2.g2, the exact validation profile of the underlying
    leveled triple, and agreement of the tagged blocks with a fresh
    recompilation of the two tupled polynomials.
    """
    checks: list[CheckResult] = []
    abc = enc.alphabet

    # Control-letter images under g1.
    expect_g1 = {
        "c0": epsilon(abc),
        "c1": epsilon(abc),
        "c2": apply(enc.g1, enc.u),
        "c3": apply(enc.g1, enc.v),
    }
    for letter, expected in expect_g1.items():
        got = enc.g1.image(letter)
        checks.append(
            CheckResult(
                name=f"control-g1-image {letter}",
                passed=got == expected,
                method="word",
                detail="c2/c3 start the two counters; c0/c1 erase",
            )
        )

    # Control-letter chain under g2.
    chain = {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c3"}
    for letter, target in chain.items():
        got = enc.g2.image(letter)
        checks.append(
            CheckResult(
                name=f"control-g2-image {letter}",
                passed=got == word(abc, [target]),
                method="word",
            )
        )

    # Final letter erased by both generators.
    for name, g in (("g1", enc.g1), ("g2", enc.g2)):
        checks.append(
            CheckResult(
                name=f"final-letter-erased {name}",
                passed=g.image(FINAL_LETTER).is_empty,
                method="word",
            )
        )

    # Double raise erases every non-control letter: the validation table's
    # square-erasing violations, control letters aside.
    violations = mtriple.validate(enc.triple())
    bad = [letter for letter in violations["square_erasing"] if letter not in CONTROL_LETTERS]
    checks.append(
        CheckResult(
            name="double-raise-erases-noncontrol",
            passed=not bad,
            method="word",
            detail="violations: " + " ".join(bad) if bad else "",
        )
    )

    # Square/cube agreement: x.g2^2 == x.g2^3 for every letter except c0,
    # where the two differ (c2 vs c3).  This is what lets one extra g2
    # switch the evaluated polynomial on c0 only.
    disagreements: list[Letter] = []
    for letter in abc.letters:
        sq = apply(enc.g2, enc.g2.image(letter))
        cu = apply(enc.g2, sq)
        if (sq == cu) == (letter == "c0"):
            disagreements.append(letter)
    checks.append(
        CheckResult(
            name="square-cube-agreement-off-c0",
            passed=not disagreements,
            method="word",
            detail="violations: " + " ".join(disagreements) if disagreements else "",
        )
    )

    # g1 followed by a double raise is the zero morphism.
    wiped = compose(enc.g1, compose(enc.g2, enc.g2))
    checks.append(
        CheckResult(
            name="g1-then-double-raise-is-zero",
            passed=is_zero_morphism(wiped),
            method="word",
        )
    )

    # Validation profile of the underlying leveled triple: the double-raise
    # condition fails on exactly the four control letters, the level-raising
    # condition fails only on control letters (c2.g2 = c3 stays in level 1,
    # which also stops the double raise from erasing), and everything else
    # passes.
    profile_ok = (
        sorted(violations["square_erasing"]) == sorted(CONTROL_LETTERS)
        and set(violations["level_raising"]) <= set(CONTROL_LETTERS)
        and not any(letters for name, letters in violations.items()
                    if name not in ("square_erasing", "level_raising"))
    )
    failed = [name for name, letters in violations.items() if letters]
    checks.append(
        CheckResult(
            name="validation-profile",
            passed=profile_ok,
            method="structural",
            detail=(
                "double-raise erasure fails on exactly the control letters; "
                f"failed conditions: {', '.join(failed)}"
            ),
        )
    )

    # Tagged blocks agree with a fresh recompilation of the two counters.
    rebuild_ok = True
    note = ""
    try:
        fresh = build_encoder(enc.p, enc.q)
        rebuild_ok = (
            fresh.alphabet == enc.alphabet
            and fresh.g1 == enc.g1
            and fresh.g2 == enc.g2
            and fresh.u == enc.u
            and fresh.v == enc.v
        )
    except Exception as exc:  # pragma: no cover - diagnostic path
        rebuild_ok = False
        note = f"recompilation failed: {exc}"
    checks.append(
        CheckResult(
            name="tagged-blocks-match-recompilation",
            passed=rebuild_ok,
            method="structural",
            detail=note,
        )
    )

    return SuiteReport(suite="conditions", checks=tuple(checks))


def _word_label(gens: Sequence[int]) -> str:
    return "".join(map(str, gens)) if gens else "ε"


def _point_label(point: Sequence[int]) -> str:
    return ",".join(map(str, point))


# ---------------------------------------------------------------------------
# Staged evaluation suite
# ---------------------------------------------------------------------------


def staged_evaluation_suite(enc: Encoder, bound: int = 2, cap: int | None = None) -> SuiteReport:
    """Word-level checks of the staged evaluation semantics.

    For every argument tuple with entries in 1..bound the suite verifies:

    * partial stages (fewer counts than argument slots) park the running
      count inside the first counter's block at the next stored level, and
      are never empty;
    * full stages turn ``c0`` into ``e^{p_tupled(point)}`` on the
      double-raise side and ``e^{q_tupled(point)}`` on the triple-raise
      side, with both exponents checked against an independent polynomial
      evaluation;
    * once a side has collapsed to a power of the final letter, any further
      level-preserving step erases it (so longer composites are zero);
    * every letter count is cross-checked against the matrix chain.
    """
    checks: list[CheckResult] = []
    t = enc.dimension
    abc = enc.alphabet
    m1, m2 = matrices(enc)

    def chain_counts(start_letter: Letter, gens: Sequence[int]) -> dict[int, int]:
        vec = {abc.index_of(start_letter): 1}
        for symbol in gens:
            vec = matsem.vec_mat(vec, m1 if symbol == 1 else m2)
        return vec

    for alpha in range(1, t):
        for point in iter_product(range(1, bound + 1), repeat=alpha):
            gens = (2, 2) + argument_word(point)
            w = apply_generator_word(enc, word(abc, ["c0"]), gens, cap=cap)
            support = {abc.index_of(z) for z in w.support()}
            in_block = bool(support) and all(
                i in enc.first_indices and abc.level_of(abc.letters[i]) == alpha + 1
                for i in support
            )
            counts_ok = parikh_vector(w) == chain_counts("c0", gens)
            checks.append(
                CheckResult(
                    name=f"stage-support alpha={alpha} point={_point_label(point)}",
                    passed=in_block and counts_ok,
                    method="word",
                    detail=(
                        "partial composite is nonempty, lands in the first counter's "
                        f"stored level {alpha + 1}, letter counts match the matrix chain"
                    ),
                )
            )

    for point in iter_product(range(1, bound + 1), repeat=t):
        arg = argument_word(point)
        expect_p = poly.evaluate(enc.p_tupled, point)
        expect_q = poly.evaluate(enc.q_tupled, point)

        # End-to-end double-raise side on c0 (the distinguished letter).
        w_p = apply_generator_word(enc, word(abc, ["c0"]), (2, 2) + arg, cap=cap)
        ok_p = w_p == letter_power(abc, FINAL_LETTER, expect_p)
        ok_p = ok_p and parikh_vector(w_p) == chain_counts("c0", (2, 2) + arg)
        checks.append(
            CheckResult(
                name=f"final-value side=p point={_point_label(point)}",
                passed=ok_p,
                method="word",
                detail=f"c0 collapses to e^{expect_p}, matching an independent evaluation",
            )
        )

        # The second counter's trajectory, shared (via the control chain) by
        # c1, c2, c3 on the double-raise side and by every control letter on
        # the triple-raise side.
        w_q = apply_generator_word(enc, word(abc, ["c0"]), (2, 2, 2) + arg, cap=cap)
        ok_q = w_q == letter_power(abc, FINAL_LETTER, expect_q)
        ok_q = ok_q and parikh_vector(w_q) == chain_counts("c0", (2, 2, 2) + arg)
        shared = apply_generator_word(enc, word(abc, ["c1"]), (2, 2) + arg, cap=cap)
        ok_q = ok_q and shared == w_q
        checks.append(
            CheckResult(
                name=f"final-value side=q point={_point_label(point)}",
                passed=ok_q,
                method="word",
                detail=(
                    f"c0 under the triple raise and c1 under the double raise both "
                    f"collapse to e^{expect_q}"
                ),
            )
        )

        # Post-collapse: one or two extra level-preserving steps erase the
        # collapsed sides entirely (every non-control letter is already
        # erased by the double raise, per the condition suite).
        wiped_ok = True
        for j in (1, 2):
            tail = (1,) * j
            for start, gens in (("c0", (2, 2) + arg + tail), ("c0", (2, 2, 2) + arg + tail)):
                if not apply_generator_word(enc, word(abc, [start]), gens, cap=cap).is_empty:
                    wiped_ok = False
        checks.append(
            CheckResult(
                name=f"post-collapse point={_point_label(point)}",
                passed=wiped_ok,
                method="word",
                detail="extra level-preserving steps after the collapse erase both sides",
            )
        )

    return SuiteReport(
        suite="staged",
        checks=tuple(checks),
        notes=(f"argument entries bounded by {bound}",),
    )


# ---------------------------------------------------------------------------
# Annihilation suite
# ---------------------------------------------------------------------------


def annihilation_suite(enc: Encoder, max_len: int = 3) -> SuiteReport:
    """Every composite g1 · h1 · g2² · h2 is the zero morphism.

    The morphism-to-matrix bridge is exact here: a morphism is zero exactly
    when its letter-count matrix is zero, so the suite decides each pair at
    the matrix level.  The matrix of the composite is
    ``step1 · X(h1) · step2² · X(h2)``; the suite computes every column of
    the left product ``step1 · X(h1) · step2²`` by sparse vector chains and
    checks they are all empty, which settles all right factors at once.
    Pairs with both factors of length at most one are confirmed again by a
    full word-level composition; these pairs share their composed prefixes,
    so each distinct left fold of ``g1 · h1 · g2² · h2`` is composed once.
    """
    checks: list[CheckResult] = []
    abc = enc.alphabet
    m1, m2 = matrices(enc)
    m2sq = matsem.mat_mul(m2, m2)
    control = set(enc.control_indices)
    c2_idx = abc.index_of("c2")
    c3_idx = abc.index_of("c3")

    rows_ok = all(r in control for r, _, _ in m2sq.entries)
    cols_ok = {c for _, c, _ in m2sq.entries} <= {c2_idx, c3_idx}
    checks.append(
        CheckResult(
            name="double-raise-matrix-support",
            passed=rows_ok and cols_ok,
            method="matrix",
            detail="step2² has entries only in control rows and in the c2/c3 columns",
        )
    )
    checks.append(
        CheckResult(
            name="step1-control-columns-empty",
            passed=all(not m1.col_of(i) for i in control),
            method="matrix",
            detail="no letter ever produces a control letter under the level-preserving step",
        )
    )
    checks.append(
        CheckResult(
            name="step2-control-columns-in-control-rows",
            passed=all(set(m2.col_of(i)) <= control for i in control),
            method="matrix",
            detail="control letters are produced only from control letters",
        )
    )

    words1 = list(generator_words(max_len))
    left_vanishes: dict[tuple[int, ...], bool] = {}
    for w in words1:
        ok = True
        stayed_in_control = True
        for start_col in (c2_idx, c3_idx):
            vec = dict(m2sq.col_of(start_col))
            for symbol in reversed(w):
                vec = matsem.mat_vec(m1 if symbol == 1 else m2, vec)
                if not set(vec) <= control:
                    stayed_in_control = False
            if matsem.mat_vec(m1, vec):
                ok = False
        left_vanishes[w] = ok and stayed_in_control
        checks.append(
            CheckResult(
                name=f"left-product-vanishes h1={_word_label(w)}",
                passed=ok and stayed_in_control,
                method="matrix",
                detail=(
                    "both potentially nonzero columns of step1·X(h1)·step2² computed "
                    "empty via control-supported vector chains"
                ),
            )
        )

    for w1 in words1:
        for w2 in words1:
            checks.append(
                CheckResult(
                    name=f"pair h1={_word_label(w1)} h2={_word_label(w2)}",
                    passed=left_vanishes[w1],
                    method="matrix",
                    detail="left factor is the zero matrix; zero absorbs any right factor",
                )
            )

    # left folds keyed by their generator word
    folds: dict[tuple[int, ...], Morphism] = {(1,): enc.g1}
    for w1 in generator_words(1):
        for w2 in generator_words(1):
            gens = (1, *w1, 2, 2, *w2)
            for k in range(2, len(gens) + 1):
                if gens[:k] not in folds:
                    folds[gens[:k]] = compose(folds[gens[:k - 1]], enc.generator(gens[k - 1]))
            checks.append(
                CheckResult(
                    name=f"word-level pair h1={_word_label(w1)} h2={_word_label(w2)}",
                    passed=is_zero_morphism(folds[gens]),
                    method="word",
                    detail="full composition erases every letter",
                )
            )

    return SuiteReport(
        suite="collapse",
        checks=tuple(checks),
        notes=(f"factors bounded by length {max_len}",),
    )


# ---------------------------------------------------------------------------
# Functoriality suite
# ---------------------------------------------------------------------------


def _probe_letters(enc: Encoder) -> tuple[Letter, ...]:
    """Letters whose stage-by-stage trajectories stay small.

    Used for partial row checks on generator words whose full composition
    exceeds the expansion cap: control letters, the final letter, and a
    deterministic sample of counter letters with short generator images, at
    most ``PROBE_LETTERS`` in all.
    """
    out: list[Letter] = list(CONTROL_LETTERS) + [FINAL_LETTER]
    for letter in enc.alphabet.letters:
        if len(out) >= PROBE_LETTERS:
            break
        if letter in out:
            continue
        if enc.g1.image(letter).length <= 2 and enc.g2.image(letter).length <= 2:
            out.append(letter)
    return tuple(out)


def _rows_match(images: Iterable[Word], product: matsem.SparseMatrix) -> bool:
    """Whether ``product`` is the letter-count matrix of ``images``, taken in
    alphabet order.

    Exactly ``matrix_of`` equality: every nonempty image's counts equal the
    product's row for its letter, and the product has no other rows.  Images
    are read one at a time, so a generator of them holds one image at once;
    every image is read, even after a row differs, so that an image over the
    expansion cap raises as it does in ``compose``.
    """
    rows = product.rows
    ok = True
    nonempty = 0
    for i, img in enumerate(images):
        if img.runs:
            nonempty += 1
            if img.counts != rows.get(i):
                ok = False
    return ok and nonempty == len(rows)


def functoriality_suite(enc: Encoder, max_len: int = 4, cap: int | None = None) -> SuiteReport:
    """Letter-count matrices track composition, word by word.

    For every generator word up to ``max_len`` the suite composes the
    morphisms (suffix-memoized) and compares the letter-count matrix of the
    composite with the product of the generator matrices — an exact integer
    identity.  A composite shares the images of its suffix's composite
    wherever the leading generator maps a letter to one letter (``compose``
    reuses them), and a word keeps its letter counts, so a shared image is
    counted once, not once per composite.  Only words shorter than
    ``max_len`` are composed onto, so only their composites and products
    are kept: a word of length ``max_len`` is checked image by image, each
    image built as ``compose`` builds it, compared with the product's row
    for its letter and dropped, and neither its composite nor its product
    is kept.  Words whose composite exceeds the expansion cap cannot be
    materialized; for those the suite verifies the rows of the matrix
    product against the word trajectories of a fixed sample of light
    letters, each under the expansion cap ``PROBE_CAP``, and flags the
    check as partial.
    """
    checks: list[CheckResult] = []
    abc = enc.alphabet
    mats = dict(zip((1, 2), matrices(enc)))
    gens = {1: enc.g1, 2: enc.g2}
    probe = _probe_letters(enc)

    prev_comp: dict[tuple[int, ...], Morphism | None] = {(): identity_morphism(abc)}
    prev_prod: dict[tuple[int, ...], matsem.SparseMatrix] = {(): matsem.identity(len(abc.letters))}
    capped = 0
    total = 0
    for length in range(1, max_len + 1):
        kept = length < max_len  # only shorter words are composed onto
        comp: dict[tuple[int, ...], Morphism | None] = {}
        prod: dict[tuple[int, ...], matsem.SparseMatrix] = {}
        for w in iter_product((1, 2), repeat=length):
            total += 1
            suffix = w[1:]
            product = matsem.mat_mul(mats[w[0]], prev_prod[suffix])
            parent = prev_comp[suffix]
            if kept:
                comp[w], prod[w] = None, product
            matches: bool | None = None  # None: no composite within the cap
            if parent is not None:
                try:
                    if kept:
                        comp[w] = composed = compose(gens[w[0]], parent, cap=cap)
                        images = composed.images
                    else:
                        images = _composite_images(gens[w[0]], parent, cap)
                    matches = _rows_match(images, product)
                except ExpansionCapExceeded:
                    pass
            if matches is not None:
                checks.append(
                    CheckResult(
                        name=f"word {_word_label(w)}",
                        passed=matches,
                        method="word",
                        detail="matrix of the composite equals the product of generator matrices",
                    )
                )
            else:
                capped += 1
                verified = 0
                ok = True
                for letter in probe:
                    try:
                        img = apply_generator_word(enc, word(abc, [letter]), w, cap=PROBE_CAP)
                    except ExpansionCapExceeded:
                        continue
                    if parikh_vector(img) != product.row_of(abc.index_of(letter)):
                        ok = False
                    verified += 1
                checks.append(
                    CheckResult(
                        name=f"word {_word_label(w)}",
                        passed=ok and verified > 0,
                        method="matrix",
                        detail=(
                            "composite beyond the expansion cap; "
                            f"{verified} letter rows verified by word trajectories"
                        ),
                    )
                )
        prev_comp, prev_prod = comp, prod

    notes: tuple[str, ...] = ()
    if capped:
        notes = (
            f"{capped} of {total} words exceeded the expansion cap and were "
            "verified on sampled rows only",
        )
    return SuiteReport(suite="functoriality", checks=tuple(checks), notes=notes)
