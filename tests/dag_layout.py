"""Two readings of a polynomial's merged DAG layout, for the layout tests.

``dag_nodes`` counts the layout by hand from the terms alone: a node at a
level is fixed by the terms below it, so two prefixes share a block exactly
when their terms agree from that level on.  ``read_layout`` reads a laid-out
polynomial back from its g1 and g2 images, without the terms.
"""

from diomorph.lang import LeveledAlphabet, Letter, Word


def dag_nodes(p, level):
    """The nodes of p's minimal DAG at ``level`` (1 to p.arity), in order of
    first appearance among p's terms, each as the exponent of its block.

    A node below the last level is the set of its terms, each as its
    exponents from ``level`` on and its coefficient.  A leaf is its exponent
    and its coefficient, except that an exponent-0 leaf, whose edge carries
    the coefficient, is its exponent alone.
    """
    below = {}
    for exponents, coeff in p.terms:
        below.setdefault(exponents[:level], set()).add((exponents[level - 1:], coeff))
    nodes = {}
    for exponents, coeff in p.terms:
        a = exponents[level - 1]
        key = frozenset(below[exponents[:level]]) if level < p.arity else (a, coeff if a else None)
        nodes.setdefault(key, a)
    return list(nodes.values())


def dag_letters(p):
    """The letters of p's minimal DAG: max(a, 1) + 1 per node of exponent a."""
    return sum(max(a, 1) + 1 for level in range(1, p.arity + 1) for a in dag_nodes(p, level))


def read_layout(alphabet: LeveledAlphabet, g1: dict[Letter, Word], g2: dict[Letter, Word],
                witness: Word):
    """The blocks and terms that a laid-out polynomial's images spell.

    From the witness, each letter handed down opens a block that runs to the
    first letter with a nonempty g2 image, its last letter.  The block's
    exponent is its size less one, or 0 for a two-letter block whose first
    letter maps to its last under g1.  Returns, per level, the blocks reached
    as {first letter's index: exponent}, and the terms that the root-to-leaf
    paths spell as {exponents: coefficient}: a path's coefficient is the
    product of the counts on its edges and of e in its leaf's hand-off.
    Asserts that every hand-off names each letter once and that no two paths
    spell the same exponents.
    """
    letters = alphabet.letters
    blocks = [{} for _ in range(alphabet.level_count - 1)]
    terms = {}

    def walk(handoff, level, exponents, count):
        assert len({z for z, _ in handoff.runs}) == len(handoff.runs), "a hand-off names a letter twice"
        for z, n in handoff.runs:
            if z == "e":
                assert exponents not in terms, "two paths spell the same exponents"
                terms[exponents] = count * n
                continue
            first = last = alphabet.index_of(z)
            while g2[letters[last]].is_empty:
                last += 1
            a = 0 if last == first + 1 and g1[z].runs == ((letters[last], 1),) else last - first
            assert blocks[level].setdefault(first, a) == a
            walk(g2[letters[last]], level + 1, exponents + (a,), count * n)

    walk(witness, 0, (), 1)
    return [dict(sorted(level.items())) for level in blocks], terms
