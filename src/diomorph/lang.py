"""Leveled alphabets, run-length-encoded words, and letter counting.

An alphabet is an ordered tuple of letter names partitioned into consecutive
"levels" (blocks).  A word over an alphabet is stored as a tuple of
(letter, count) runs with positive arbitrary-precision counts and distinct
adjacent letters; this normal form is unique, so structural equality is word
equality.  The pipeline routinely produces words like a single letter raised
to an astronomically large power — RLE keeps those exact without ever
materializing them.

Words are validated where they come from outside: built from letter names,
run pairs or text.  Operations whose output is normal by construction (such
as ``morph.apply``) build it through ``_normal_word`` and skip the check.
A word counts its letters once, on first use of ``Word.counts``, and keeps
the counts; words that are never counted stay as small as before.

Nothing here multiplies runs.  Morphism application (``morph.apply``),
which can produce an unbounded number of runs, takes an expansion cap and
fails loudly, never truncates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import AlphabetMismatch, InvalidAlphabet

Letter = str


def _check_letter_name(name: Letter) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"letter names must be nonempty strings, got {name!r}")
    if name.split() != [name] or "^" in name:
        # reserved by the word text form "z1^2 z2 e^179"
        raise ValueError(f"letter name {name!r} may not contain whitespace or '^'")


@dataclass(frozen=True)
class LeveledAlphabet:
    letters: tuple[Letter, ...]
    level_sizes: tuple[int, ...]

    def __eq__(self, other):
        """Identity first: words and morphisms mostly share one alphabet object."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.level_sizes == other.level_sizes

    def __post_init__(self):
        if not self.letters:
            raise InvalidAlphabet("alphabet must be nonempty")
        for name in self.letters:
            _check_letter_name(name)
        if len(set(self.letters)) != len(self.letters):
            raise InvalidAlphabet("duplicate letters")
        if not all(s >= 1 for s in self.level_sizes):
            raise InvalidAlphabet("levels must be nonempty")
        if sum(self.level_sizes) != len(self.letters):
            raise InvalidAlphabet("levels must cover the alphabet")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: Letter) -> bool:
        return letter in self._positions

    @cached_property
    def _positions(self) -> dict[Letter, int]:
        return {z: i for i, z in enumerate(self.letters)}

    @cached_property
    def levels(self) -> tuple[tuple[Letter, ...], ...]:
        out, at = [], 0
        for size in self.level_sizes:
            out.append(self.letters[at:at + size])
            at += size
        return tuple(out)

    @cached_property
    def _level_lookup(self) -> dict[Letter, int]:
        return {z: i + 1 for i, block in enumerate(self.levels) for z in block}

    def index_of(self, letter: Letter) -> int:
        """0-based position of a letter in the alphabet order."""
        try:
            return self._positions[letter]
        except KeyError:
            raise AlphabetMismatch(f"letter {letter!r} not in alphabet") from None

    def level_of(self, letter: Letter) -> int:
        """1-based level of a letter."""
        self.index_of(letter)
        return self._level_lookup[letter]

    @property
    def level_count(self) -> int:
        return len(self.level_sizes)


def leveled_alphabet(levels: Sequence[Sequence[Letter]]) -> LeveledAlphabet:
    letters = tuple(z for block in levels for z in block)
    return LeveledAlphabet(letters, tuple(len(block) for block in levels))


def flat_alphabet(letters: Sequence[Letter]) -> LeveledAlphabet:
    """An alphabet with a single level (no interesting partition)."""
    return LeveledAlphabet(tuple(letters), (len(letters),))


@dataclass(frozen=True)
class Word:
    """A word in run normal form; constructing one checks every run."""
    alphabet: LeveledAlphabet
    runs: tuple[tuple[Letter, int], ...]

    def __post_init__(self):
        prev = None
        for letter, count in self.runs:
            if letter not in self.alphabet:
                raise AlphabetMismatch(f"letter {letter!r} not in alphabet")
            if count < 1:
                raise ValueError("run counts must be positive")
            if letter == prev:
                raise ValueError("adjacent runs must have distinct letters")
            prev = letter

    @property
    def is_empty(self) -> bool:
        return not self.runs

    @property
    def length(self) -> int:
        return sum(count for _, count in self.runs)

    @property
    def counts(self) -> dict[int, int]:
        """Letter counts by alphabet position, no zeros; counted on first use.

        The dict is kept on the word (outside its fields, so equality and
        hash ignore it) and shared with letter-count matrices: do not mutate.
        """
        counts = getattr(self, "_counts", None)
        if counts is None:
            by: dict[Letter, int] = {}  # summed by name first: each letter is looked up once
            get = by.get
            for letter, count in self.runs:
                by[letter] = get(letter, 0) + count
            position = self.alphabet._positions
            counts = {position[letter]: count for letter, count in by.items()}
            object.__setattr__(self, "_counts", counts)  # as the frozen dataclass sets fields
        return counts

    def support(self) -> frozenset[Letter]:
        return frozenset(letter for letter, _ in self.runs)


def _normalize_runs(pairs: Iterable[tuple[Letter, int]]) -> tuple[tuple[Letter, int], ...]:
    runs: list[tuple[Letter, int]] = []
    for letter, count in pairs:
        if count == 0:
            continue
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + count)
        else:
            runs.append((letter, count))
    return tuple(runs)


def _normal_word(alphabet: LeveledAlphabet, runs: tuple[tuple[Letter, int], ...]) -> Word:
    """Word from runs already in normal form over ``alphabet``; nothing is re-checked."""
    w = object.__new__(Word)  # set as the dataclass does, keeping the instance as small as Word()'s
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "runs", runs)
    return w


def word(alphabet: LeveledAlphabet, letters: Iterable[Letter]) -> Word:
    """Word from a plain letter sequence."""
    return Word(alphabet, _normalize_runs((z, 1) for z in letters))


def word_from_runs(alphabet: LeveledAlphabet, runs: Iterable[tuple[Letter, int]]) -> Word:
    """Word from (letter, count) pairs; merges boundaries and drops zero counts."""
    pairs = list(runs)
    if any(count < 0 for _, count in pairs):
        raise ValueError("run counts must be nonnegative")
    return Word(alphabet, _normalize_runs(pairs))


def epsilon(alphabet: LeveledAlphabet) -> Word:
    return Word(alphabet, ())


def letter_power(alphabet: LeveledAlphabet, letter: Letter, count: int) -> Word:
    """The word letter^count (count may be astronomically large)."""
    return word_from_runs(alphabet, [(letter, count)])


def _require_same_alphabet(a: Word, b: Word) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("words live over different alphabets")


def word_concat(a: Word, b: Word) -> Word:
    _require_same_alphabet(a, b)
    return Word(a.alphabet, _normalize_runs(list(a.runs) + list(b.runs)))


def translate(w: Word, mapping: Mapping[Letter, Letter], target: LeveledAlphabet) -> Word:
    """Rename letters run-by-run (used when embedding into a larger alphabet)."""
    runs = _normalize_runs((mapping[z], count) for z, count in w.runs)
    for letter, _ in runs:
        if letter not in target._positions:
            raise AlphabetMismatch(f"letter {letter!r} not in alphabet")
    return _normal_word(target, runs)


def text(w: Word) -> str:
    """Render as space-separated runs, e.g. ``z1^2 z2 e^179``; ε renders empty."""
    # a list, not a generator: join makes a list of a generator first anyway
    return " ".join([letter if count == 1 else f"{letter}^{count}" for letter, count in w.runs])


def parse_word(alphabet: LeveledAlphabet, s: str) -> Word:
    """Inverse of :func:`text` (also accepts non-normal run lists)."""
    position = alphabet._positions
    runs: list[tuple[Letter, int]] = []
    for token in s.split():
        letter, sep, count_text = token.partition("^")
        if letter not in position:
            raise AlphabetMismatch(f"unknown letter {letter!r} in word text")
        count = (int(count_text) if count_text.isdigit() else 0) if sep else 1
        if count < 1:
            raise ValueError(f"bad run count in token {token!r}")
        if runs and runs[-1][0] == letter:  # never so in text that `text` wrote
            runs[-1] = (letter, runs[-1][1] + count)
        else:
            runs.append((letter, count))
    return _normal_word(alphabet, tuple(runs))
