"""Endomorphisms of a free monoid as per-letter image tables.

Every morphism the program builds maps words over one leveled alphabet to
words over the same alphabet, so a :class:`Morphism` holds one alphabet, its
domain and codomain.  It is determined by the image word of each letter and
extends homomorphically to all words.  Images act on the right and
composition reads left to right: ``compose(f, g)`` is the map "apply f, then
g", so ``apply(compose(f, g), w) == apply(g, apply(f, w))``.

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
``compose`` materializes the images that ``_composite_images`` makes one
letter at a time; a caller that needs only each image's counts can take
them from that generator and drop each image in turn.

A sequence of morphisms applied in turn (``apply_stages``) gives the word,
or the expansion-cap verdict, of chained ``apply`` calls.  The same counts
decide the cap: each stage's count that ``apply`` checks lies between two
bounds read off the letter counts, so most trajectories are decided before
any stage word is built, and the word is then made from each reachable
letter's image under the remaining stages.  Both paths share ``apply``'s
run-concatenation loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import lang, matsem
from .errors import AlphabetMismatch, ExpansionCapExceeded
from .config import expansion_cap
from .lang import LeveledAlphabet, Letter, Word


@dataclass(frozen=True)
class Morphism:
    alphabet: LeveledAlphabet
    images: tuple[Word, ...]  # aligned with alphabet.letters

    def __post_init__(self):
        alphabet = self.alphabet
        if len(self.images) != len(alphabet.letters):
            raise AlphabetMismatch("one image per domain letter")
        if any(img.alphabet is not alphabet and img.alphabet != alphabet for img in self.images):
            raise AlphabetMismatch("images must live over the codomain")

    def __eq__(self, other):
        """Equal alphabets, then equal image runs.

        Exact because every image lives over the alphabet (checked on
        construction): over equal alphabets, two images are equal words
        exactly when their runs are.  Comparing whole images would compare
        the alphabet once per image.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet == other.alphabet
                and all(a.runs == b.runs for a, b in zip(self.images, other.images)))

    def image(self, letter: Letter) -> Word:
        return self.images[self.alphabet.index_of(letter)]

    def table(self) -> dict[Letter, Word]:
        return dict(zip(self.alphabet.letters, self.images))


def endomorphism(alphabet: LeveledAlphabet, table: Mapping[Letter, Word]) -> Morphism:
    """Build a morphism from a letter -> image word table (must be total)."""
    missing = [z for z in alphabet.letters if z not in table]
    if missing:
        raise AlphabetMismatch(f"no image given for letters {missing}")
    extra = [z for z in table if z not in alphabet]
    if extra:
        raise AlphabetMismatch(f"images given for letters outside the domain: {extra}")
    return Morphism(alphabet, tuple(table[z] for z in alphabet.letters))


def identity_morphism(alphabet: LeveledAlphabet) -> Morphism:
    return Morphism(alphabet, tuple(lang.word(alphabet, [z]) for z in alphabet.letters))


def _concatenate(
    images: Sequence[Word] | Mapping[int, Word], position: Mapping[Letter, int],
    runs: Iterable[tuple[Letter, int]], limit: float,
) -> tuple[tuple[Letter, int], ...]:
    """Runs of the images of ``runs``, concatenated in normal form.

    The image of a run a^n is (image of a)^n, with the image of a letter at
    ``images[position[a]]``.  The cap counts the runs of the plain
    concatenation up to each multi-run image, so it raises exactly when
    that count, at the last multi-run image, exceeds ``limit``.
    """
    out: list[tuple[Letter, int]] = []
    unmerged = 0  # runs of the plain concatenation of images, which the cap counts
    for letter, count in runs:
        img = images[position[letter]].runs
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
        if out and out[-1][0] == piece[0][0]:
            out[-1] = (piece[0][0], out[-1][1] + piece[0][1])
            piece = piece[1:]
        out.extend(piece)
    return tuple(out)


def apply(m: Morphism, w: Word, cap: int | None = None) -> Word:
    """Homomorphic extension of m to a word, in run form.

    A run a^n maps to (image of a)^n; single-letter images keep the result
    compact regardless of n, while multi-run images multiply the run count
    and are therefore cap-guarded.  A one-letter word maps to the image
    object itself, under the same cap.
    """
    if w.alphabet is not m.alphabet and w.alphabet != m.alphabet:  # identity first: no __eq__ call
        raise AlphabetMismatch("word is not over the morphism's domain")
    limit = expansion_cap(cap)
    position = m.alphabet._positions  # every letter of w is in the alphabet
    if len(w.runs) == 1 and w.runs[0][1] == 1:  # one letter: its image, shared
        letter = w.runs[0][0]
        img = m.images[position[letter]]
        if len(img.runs) > limit:  # limit >= 1, so as below only multi-run images are capped
            raise ExpansionCapExceeded(len(img.runs), limit, f"image of run {letter}^1 under application")
        return img
    return lang._normal_word(m.alphabet, _concatenate(m.images, position, w.runs, limit))


def apply_stages(stages: Sequence[Morphism], w: Word, cap: int | None = None) -> Word:
    """The word that applying each stage in turn to w gives, under the same cap.

    The result, or the raise of :class:`ExpansionCapExceeded`, is that of
    ``apply(stages[-1], ... apply(stages[0], w, cap) ..., cap)``, but the
    stage words are not built when letter counts decide the cap:

    * The letter counts of every stage word follow from those of the start
      word and the images' counts, stage by stage.  At each stage the count
      that ``apply`` checks is at least ``lower``, the runs of the
      multi-run images times the counts of their letters, and at most
      ``lower`` plus a bound on the runs of the word it is given; that bound
      starts at the start word's runs and grows by ``lower`` per stage.
      A stage without multi-run images is not checked at all.
    * If some stage's lower bound exceeds the cap, the chain raises.  If
      every checked stage's upper bound fits, it does not: then each
      reachable letter's image under the remaining stages is built once,
      from the last stage back, and the start word is mapped through them.
      Each such image is a factor of the result, so no more is built than
      the result holds.
    * Otherwise the stages are applied one by one, which decides the cap
      exactly.

    Every stage must be over w's alphabet.
    """
    for m in stages:
        if w.alphabet is not m.alphabet and w.alphabet != m.alphabet:
            raise AlphabetMismatch("word is not over the morphism's domain")
    if not stages:
        return w
    limit = expansion_cap(cap)
    reached: list[Iterable[int]] = []  # positions of the letters each stage is given
    counts = w.counts
    upper = len(w.runs)
    decided = True
    for k, m in enumerate(stages, 1):
        images = m.images
        lower = 0
        for i, count in counts.items():
            if len(images[i].runs) > 1:
                lower += len(images[i].runs) * count
        if lower > limit:
            raise ExpansionCapExceeded(
                lower, limit, f"lower bound from letter counts at stage {k} of {len(stages)}")
        upper += lower
        if lower and upper > limit:
            decided = False
        reached.append(counts.keys())
        if k == len(stages):
            break
        after: dict[int, int] = {}  # the counts the next stage is given
        for i, count in counts.items():
            for j, c in images[i].counts.items():
                after[j] = after.get(j, 0) + c * count
        counts = after
    if not decided:
        for m in stages:
            w = apply(m, w, cap)
        return w
    alphabet = w.alphabet
    position = alphabet._positions
    unlimited = float("inf")  # the stages fit the cap, and each image is a factor of the result
    later: Sequence[Word] | dict[int, Word] = stages[-1].images
    for k in range(len(stages) - 2, -1, -1):
        images = stages[k].images
        now: dict[int, Word] = {}
        for i in reached[k]:
            runs = images[i].runs
            if len(runs) == 1 and runs[0][1] == 1:  # one letter: its later image, shared
                now[i] = later[position[runs[0][0]]]
            else:
                now[i] = lang._normal_word(alphabet, _concatenate(later, position, runs, unlimited))
        later = now
    if len(w.runs) == 1 and w.runs[0][1] == 1:
        return later[position[w.runs[0][0]]]
    return lang._normal_word(alphabet, _concatenate(later, position, w.runs, unlimited))


def _composite_images(f: Morphism, g: Morphism, cap: int | None = None) -> Iterator[Word]:
    """The images of "f then g", one letter at a time, in alphabet order.

    Each is ``apply(g, image of the letter under f, cap)``, so it shares g's
    image wherever f maps a letter to one letter, and every empty image is
    one shared empty word.  An image over the cap raises when it is reached.
    """
    if f.alphabet != g.alphabet:
        raise AlphabetMismatch("the two morphisms must share one alphabet")
    empty = lang._normal_word(g.alphabet, ())
    for letter, img in zip(f.alphabet.letters, f.images):
        if not img.runs:
            yield empty
            continue
        try:
            composite = apply(g, img, cap)
        except ExpansionCapExceeded as exc:
            raise ExpansionCapExceeded(
                exc.needed, exc.cap, f"composing: image of letter {letter!r} is too large") from None
        yield composite


def compose(f: Morphism, g: Morphism, cap: int | None = None) -> Morphism:
    """The morphism "f then g"; image tables are materialized eagerly,
    from ``_composite_images``."""
    return Morphism(f.alphabet, tuple(_composite_images(f, g, cap)))


def parikh_vector(w: Word) -> matsem.Vector:
    """Letter counts of w as a sparse vector indexed by alphabet position (a copy)."""
    return dict(w.counts)


def matrix_of(g: Morphism) -> matsem.SparseMatrix:
    """The letter-count matrix: row i counts the letters in the image of letter i."""
    # images live over the alphabet: their counts are indexed like its letters
    rows = {i: img.counts for i, img in enumerate(g.images) if img.runs}
    return matsem._from_rows(len(g.alphabet), rows)


def is_zero_morphism(g: Morphism) -> bool:
    return all(img.is_empty for img in g.images)
