"""JSON-friendly document forms for every pipeline object.

All documents are plain dictionaries of strings, integers, lists, and nested
documents, serialized with sorted keys.  Counts that may exceed native JSON
number precision (matrix entries, monomial coefficients) are carried as
decimal strings.  Serialization is deterministic: the same object always
produces the same bytes.

Every integer field is read by :func:`read_int`, which takes a JSON integer
or a decimal string and rejects anything else (floats, booleans, other
text) with :class:`InvalidDocument`.

An encoder document is a cache of what ``build_encoder(p, q)`` determines.
:func:`encoder_from_doc` therefore parses no image words: it recompiles the
encoder from ``p``, ``q`` and the dimension and compares every other field
with the rebuild, raising :class:`InvalidEncoder` on any difference.
"""

from __future__ import annotations

import json
import re
from typing import Any

from . import poly
from .encode import CONTROL_LETTERS, FINAL_LETTER, Encoder, build_encoder
from .errors import AlphabetBudgetExceeded, InvalidDocument, InvalidEncoder
from .lang import LeveledAlphabet, parse_word, text
from .matsem import SparseMatrix
from .morph import Morphism, endomorphism


# version 2: each tupled polynomial is laid out as a prefix tree of its terms
ENCODER_VERSION = 2


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
    return {"images": {z: text(m.image(z)) for z in m.alphabet.letters}}


def morphism_from_doc(doc: dict, alphabet: LeveledAlphabet) -> Morphism:
    table = {z: parse_word(alphabet, s) for z, s in doc["images"].items()}
    return endomorphism(alphabet, table)


# ----------------------------------------------------------------- encoders


def encoder_to_doc(enc: Encoder) -> dict:
    return {
        "format": "diomorph-encoder",
        "version": ENCODER_VERSION,
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
    """Recompile the encoder that a document describes, and check the document against it.

    The encoder is fixed by ``p``, ``q`` and the dimension, so the document's
    alphabet, image tables and words are compared with a rebuild instead of
    being parsed; any difference raises :class:`InvalidEncoder` naming the
    field.  The document's own letter count is the rebuild's alphabet budget.
    """
    if doc.get("format") != "diomorph-encoder":
        raise ValueError("not an encoder document (missing format marker)")
    version = read_int(doc["version"], "version")
    if version == 1:
        raise InvalidEncoder("encoder document version 1 lays out one chain of gadget blocks per term; "
                             "recompile it from p and q with `diomorph compile`")
    if version != ENCODER_VERSION:
        raise InvalidEncoder(f"encoder document version must be {ENCODER_VERSION}, got {version}")
    abc = alphabet_from_doc(doc["alphabet"])
    t = read_int(doc["dimension"], "dimension")
    p, q = polynomial_from_doc(doc["p"]), polynomial_from_doc(doc["q"])
    p_tupled, q_tupled = polynomial_from_doc(doc["p_tupled"]), polynomial_from_doc(doc["q_tupled"])
    if not t == p.arity == q.arity:
        raise InvalidEncoder(f"dimension {t} differs from the arities of p and q ({p.arity}, {q.arity})")
    if abc.level_count != t + 1:
        raise InvalidEncoder(f"dimension {t} needs {t + 1} alphabet levels, found {abc.level_count}")
    if not all(z in abc for z in CONTROL_LETTERS + (FINAL_LETTER,)):
        raise InvalidEncoder("alphabet lacks one of the letters c0, c1, c2, c3, e")
    try:
        enc = build_encoder(p, q, budget=len(abc))
    except AlphabetBudgetExceeded as exc:
        raise InvalidEncoder(f"recompiling p and q needs more than the {len(abc)} letters of the alphabet ({exc})")
    if (enc.p_tupled, enc.q_tupled) != (p_tupled, q_tupled):
        raise InvalidEncoder("p_tupled and q_tupled must be the tuplings of p and q")
    matches = {"alphabet": enc.alphabet == abc, "g1": doc["g1"] == morphism_to_doc(enc.g1),
               "g2": doc["g2"] == morphism_to_doc(enc.g2), "u": doc["u"] == text(enc.u),
               "v": doc["v"] == text(enc.v)}
    for name, same in matches.items():
        if not same:
            raise InvalidEncoder(f"{name} differs from the recompilation of p and q")
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
