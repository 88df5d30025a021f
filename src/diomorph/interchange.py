"""JSON-friendly document forms for every pipeline object.

All documents are plain dictionaries of strings, integers, lists, and nested
documents, serialized with sorted keys.  Counts that may exceed native JSON
number precision (matrix entries, monomial coefficients) are carried as
decimal strings.  Serialization is deterministic: the same object always
produces the same bytes.

Every integer field is read by :func:`read_int`, which takes a JSON integer
or a decimal string and rejects anything else (floats, booleans, other
text) with :class:`InvalidDocument`.
"""

from __future__ import annotations

import json
import re
from typing import Any

from . import poly
from .encode import CONTROL_LETTERS, FINAL_LETTER, Encoder, tupled
from .errors import InvalidDocument, InvalidEncoder
from .lang import LeveledAlphabet, Word, parse_word, text
from .matsem import SparseMatrix
from .morph import Morphism, endomorphism


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(data: str) -> Any:
    return json.loads(data)


_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(value: Any, name: str) -> int:
    """An integer field: a JSON integer (not a bool) or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise InvalidDocument(f"{name} must be an integer, got {value!r}")


# ------------------------------------------------------------- polynomials


def polynomial_to_doc(p: poly.Polynomial) -> dict:
    return {
        "arity": p.arity,
        "monomials": [
            {"coeff": str(coeff), "exponents": list(exps)} for exps, coeff in p.terms
        ],
    }


def polynomial_from_doc(doc: dict) -> poly.Polynomial:
    arity = read_int(doc["arity"], "arity")
    pairs = [
        (tuple(read_int(e, "exponent") for e in m["exponents"]), read_int(m["coeff"], "coeff"))
        for m in doc["monomials"]
    ]
    return poly.polynomial(arity, pairs)


# ---------------------------------------------------------------- alphabets


def alphabet_to_doc(a: LeveledAlphabet) -> dict:
    return {"letters": list(a.letters), "level_sizes": list(a.level_sizes)}


def alphabet_from_doc(doc: dict) -> LeveledAlphabet:
    return LeveledAlphabet(
        tuple(doc["letters"]), tuple(read_int(s, "level size") for s in doc["level_sizes"])
    )


# ---------------------------------------------------------------- morphisms


def morphism_to_doc(m: Morphism) -> dict:
    """Image table only; the caller records the alphabet separately."""
    return {"images": {z: text(m.image(z)) for z in m.domain.letters}}


def morphism_from_doc(doc: dict, alphabet: LeveledAlphabet) -> Morphism:
    table = {z: parse_word(alphabet, s) for z, s in doc["images"].items()}
    return endomorphism(alphabet, table)


# ----------------------------------------------------------------- encoders


def encoder_to_doc(enc: Encoder) -> dict:
    return {
        "format": "diomorph-encoder",
        "version": 1,
        "dimension": enc.dimension,
        "alphabet": alphabet_to_doc(enc.alphabet),
        "g1": morphism_to_doc(enc.g1),
        "g2": morphism_to_doc(enc.g2),
        "u": text(enc.u),
        "v": text(enc.v),
        "p": polynomial_to_doc(enc.p),
        "q": polynomial_to_doc(enc.q),
        "p_tupled": polynomial_to_doc(enc.p_tupled),
        "q_tupled": polynomial_to_doc(enc.q_tupled),
    }


def encoder_from_doc(doc: dict) -> Encoder:
    if doc.get("format") != "diomorph-encoder":
        raise ValueError("not an encoder document (missing format marker)")
    alphabet = alphabet_from_doc(doc["alphabet"])
    enc = Encoder(
        alphabet=alphabet,
        g1=morphism_from_doc(doc["g1"], alphabet),
        g2=morphism_from_doc(doc["g2"], alphabet),
        u=parse_word(alphabet, doc["u"]),
        v=parse_word(alphabet, doc["v"]),
        dimension=read_int(doc["dimension"], "dimension"),
        p=polynomial_from_doc(doc["p"]),
        q=polynomial_from_doc(doc["q"]),
        p_tupled=polynomial_from_doc(doc["p_tupled"]),
        q_tupled=polynomial_from_doc(doc["q_tupled"]),
    )
    t, abc = enc.dimension, enc.alphabet
    if not t == enc.p.arity == enc.q.arity:
        raise InvalidEncoder(f"dimension {t} differs from the arities of p and q ({enc.p.arity}, {enc.q.arity})")
    if abc.level_count != t + 1:
        raise InvalidEncoder(f"dimension {t} needs {t + 1} alphabet levels, found {abc.level_count}")
    if not all(z in abc for z in CONTROL_LETTERS + (FINAL_LETTER,)):
        raise InvalidEncoder("alphabet lacks one of the letters c0, c1, c2, c3, e")
    tupling = poly.injective_tupling(t + 1)
    if (tupled(enc.p, tupling), tupled(enc.q, tupling)) != (enc.p_tupled, enc.q_tupled):
        raise InvalidEncoder("p_tupled and q_tupled must be the tuplings of p and q")
    return enc


# ----------------------------------------------------------------- matrices


def matrix_to_doc(m: SparseMatrix) -> dict:
    return {
        "dimension": m.dimension,
        "entries": [[r, c, str(v)] for r, c, v in m.entries],
    }


def matrix_from_doc(doc: dict) -> SparseMatrix:
    entries = tuple(
        (read_int(r, "row"), read_int(c, "column"), read_int(v, "entry"))
        for r, c, v in doc["entries"]
    )
    return SparseMatrix(read_int(doc["dimension"], "dimension"), entries)
