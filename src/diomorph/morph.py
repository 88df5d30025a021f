"""Free-monoid morphisms as per-letter image tables.

A morphism is determined by the image word of each domain letter and extends
homomorphically to all words.  Images act on the right and composition reads
left to right: ``compose(f, g)`` is the map "apply f, then g", so
``apply(compose(f, g), w) == apply(g, apply(f, w))``.

The bridge to matrices: ``matrix_of(g)`` has as row i the letter counts of
the image of letter i.  Counting letters before or after applying g is the
same thing (``parikh_vector(apply(g, w)) == parikh_vector(w) · matrix_of(g)``),
and the matrix of a composition is the product of the matrices; those two
facts carry every word-level statement in this package over to exact integer
matrices.

Images are shared, not copied: ``apply`` of a one-letter word returns the
morphism's image object itself, so ``compose(f, g)`` reuses g's images
wherever f maps a letter to one letter, and every empty image of a composite
is one shared empty word.  A word keeps its letter counts (``Word.counts``)
and ``matrix_of`` takes its rows from them, so a shared image is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import lang, matsem
from .errors import AlphabetMismatch, ExpansionCapExceeded
from .config import expansion_cap
from .lang import LeveledAlphabet, Letter, Word


@dataclass(frozen=True)
class Morphism:
    domain: LeveledAlphabet
    codomain: LeveledAlphabet
    images: tuple[Word, ...]  # aligned with domain.letters

    def __post_init__(self):
        if len(self.images) != len(self.domain.letters):
            raise AlphabetMismatch("one image per domain letter")
        codomain = self.codomain
        if any(img.alphabet is not codomain and img.alphabet != codomain for img in self.images):
            raise AlphabetMismatch("images must live over the codomain")

    def __eq__(self, other):
        """Equal alphabets, then equal image runs.

        Exact because every image lives over the codomain (checked on
        construction): over equal codomains, two images are equal words
        exactly when their runs are.  Comparing whole images would compare
        the codomain once per image.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and all(a.runs == b.runs for a, b in zip(self.images, other.images)))

    @property
    def is_endomorphism(self) -> bool:
        return self.domain == self.codomain

    def image(self, letter: Letter) -> Word:
        return self.images[self.domain.index_of(letter)]

    def table(self) -> dict[Letter, Word]:
        return dict(zip(self.domain.letters, self.images))

    def __str__(self) -> str:
        rows = [f"{z} -> {lang.text(img) or 'ε'}" for z, img in zip(self.domain.letters, self.images)]
        return "\n".join(rows)


def morphism(domain: LeveledAlphabet, codomain: LeveledAlphabet,
             table: Mapping[Letter, Word]) -> Morphism:
    """Build a morphism from a letter -> image word table (must be total)."""
    missing = [z for z in domain.letters if z not in table]
    if missing:
        raise AlphabetMismatch(f"no image given for letters {missing}")
    extra = [z for z in table if z not in domain]
    if extra:
        raise AlphabetMismatch(f"images given for letters outside the domain: {extra}")
    return Morphism(domain, codomain, tuple(table[z] for z in domain.letters))


def endomorphism(alphabet: LeveledAlphabet, table: Mapping[Letter, Word]) -> Morphism:
    return morphism(alphabet, alphabet, table)


def identity_morphism(alphabet: LeveledAlphabet) -> Morphism:
    return Morphism(alphabet, alphabet, tuple(lang.word(alphabet, [z]) for z in alphabet.letters))


def zero_morphism(alphabet: LeveledAlphabet) -> Morphism:
    """Every letter erased; the absorbing element for composition."""
    eps = lang.epsilon(alphabet)
    return Morphism(alphabet, alphabet, tuple(eps for _ in alphabet.letters))


def apply(m: Morphism, w: Word, cap: int | None = None) -> Word:
    """Homomorphic extension of m to a word, in run form.

    A run a^n maps to (image of a)^n; single-letter images keep the result
    compact regardless of n, while multi-run images multiply the run count
    and are therefore cap-guarded.  A one-letter word maps to the image
    object itself, under the same cap.
    """
    if w.alphabet != m.domain:
        raise AlphabetMismatch("word is not over the morphism's domain")
    limit = expansion_cap(cap)
    position = m.domain._positions  # every letter of w is in the domain
    if len(w.runs) == 1 and w.runs[0][1] == 1:  # one letter: its image, shared
        letter = w.runs[0][0]
        img = m.images[position[letter]]
        if len(img.runs) > limit:  # limit >= 1, so as below only multi-run images are capped
            raise ExpansionCapExceeded(len(img.runs), limit, f"image of run {letter}^1 under application")
        return img
    runs: list[tuple[Letter, int]] = []
    unmerged = 0  # runs of the plain concatenation of images, which the cap counts
    for letter, count in w.runs:
        img = m.images[position[letter]].runs
        if len(img) == 1:
            unmerged += 1
            piece = ((img[0][0], img[0][1] * count),)
        elif img:
            unmerged += len(img) * count
            if unmerged > limit:
                raise ExpansionCapExceeded(
                    unmerged, limit, f"image of run {letter}^{count} under application")
            # img^count is normal unless img starts and ends with the same letter
            piece = lang._normalize_runs(img * count) if img[0][0] == img[-1][0] else img * count
        else:
            continue
        if runs and runs[-1][0] == piece[0][0]:
            runs[-1] = (piece[0][0], runs[-1][1] + piece[0][1])
            piece = piece[1:]
        runs.extend(piece)
    return lang._normal_word(m.codomain, tuple(runs))


def compose(f: Morphism, g: Morphism, cap: int | None = None) -> Morphism:
    """The morphism "f then g"; image tables are materialized eagerly.

    Where f maps a letter to one letter, the composite shares g's image of
    it; every empty image is one shared empty word.
    """
    if f.codomain != g.domain:
        raise AlphabetMismatch("codomain of the first morphism must be the domain of the second")
    empty = lang._normal_word(g.codomain, ())
    images = []
    for letter, img in zip(f.domain.letters, f.images):
        if not img.runs:
            images.append(empty)
            continue
        try:
            images.append(apply(g, img, cap))
        except ExpansionCapExceeded as exc:
            raise ExpansionCapExceeded(
                exc.needed, exc.cap, f"composing: image of letter {letter!r} is too large") from None
    return Morphism(f.domain, g.codomain, tuple(images))


def compose_all(morphisms: Sequence[Morphism], cap: int | None = None) -> Morphism:
    """Left-to-right composite of a nonempty sequence."""
    if not morphisms:
        raise ValueError("need at least one morphism")
    acc = morphisms[0]
    for m in morphisms[1:]:
        acc = compose(acc, m, cap)
    return acc


def power(m: Morphism, k: int, cap: int | None = None) -> Morphism:
    """k-fold composite of an endomorphism with itself; k = 0 is the identity."""
    if not m.is_endomorphism:
        raise AlphabetMismatch("powers need an endomorphism")
    if k < 0:
        raise ValueError("negative power")
    acc = identity_morphism(m.domain)
    for _ in range(k):
        acc = compose(acc, m, cap)
    return acc


def parikh_vector(w: Word) -> matsem.Vector:
    """Letter counts of w as a sparse vector indexed by alphabet position (a copy)."""
    return dict(w.counts)


def matrix_of(g: Morphism) -> matsem.SparseMatrix:
    """The letter-count matrix: row i counts the letters in the image of letter i."""
    if not g.is_endomorphism:
        raise AlphabetMismatch("the letter-count matrix needs an endomorphism")
    # images live over the codomain, the domain: their counts are indexed alike
    rows = {i: img.counts for i, img in enumerate(g.images) if img.runs}
    return matsem._from_rows(len(g.domain), rows)


def is_upper_triangular(g: Morphism) -> bool:
    """True iff every letter's image uses only letters at or after it in the order."""
    if not g.is_endomorphism:
        raise AlphabetMismatch("triangularity needs an endomorphism")
    order = g.domain.index_of
    return all(
        all(order(z) >= i for z in img.support())
        for i, img in enumerate(g.images)
    )


def is_zero_morphism(g: Morphism) -> bool:
    return all(img.is_empty for img in g.images)
