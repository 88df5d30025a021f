"""Round-trip tests for the JSON document forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diomorph import encode, interchange, lang, matsem, morph, poly


def test_polynomial_round_trip():
    p = poly.polynomial(3, [((2, 0, 1), 5), ((0, 0, 0), 7)])
    doc = interchange.polynomial_to_doc(p)
    assert interchange.polynomial_from_doc(doc) == p


def test_polynomial_big_coefficients_survive_as_strings():
    big = 10**40 + 7
    p = poly.polynomial(1, [((3,), big)])
    doc = interchange.polynomial_to_doc(p)
    assert doc["monomials"][0]["coeff"] == str(big)
    assert interchange.polynomial_from_doc(doc) == p


def test_alphabet_round_trip():
    a = lang.leveled_alphabet([["x", "y"], ["z"], ["e"]])
    doc = interchange.alphabet_to_doc(a)
    assert interchange.alphabet_from_doc(doc) == a


def test_morphism_round_trip():
    a = lang.leveled_alphabet([["x", "y"], ["e"]])
    m = morph.endomorphism(
        a,
        {
            "x": lang.word(a, ["x", "y"]),
            "y": lang.epsilon(a),
            "e": lang.word(a, ["e", "e", "e"]),
        },
    )
    doc = interchange.morphism_to_doc(m)
    back = interchange.morphism_from_doc(doc, a)
    assert back == m


def test_matrix_round_trip():
    m = matsem.matrix(3, {(0, 1): 2, (2, 2): 10**30})
    doc = interchange.matrix_to_doc(m)
    back = interchange.matrix_from_doc(doc)
    assert back == m
    assert doc["entries"][1][2] == str(10**30)


def test_encoder_round_trip(toy_encoder):
    doc = interchange.encoder_to_doc(toy_encoder)
    back = interchange.encoder_from_doc(doc)
    assert back == toy_encoder
    # the round-tripped encoder is fully functional
    assert encode.matrices(back) == encode.matrices(toy_encoder)


def test_encoder_document_is_self_describing(toy_encoder):
    doc = interchange.encoder_to_doc(toy_encoder)
    assert doc["format"] == "diomorph-encoder"
    assert doc["version"] == 3


def test_encoder_from_doc_rejects_foreign_documents():
    with pytest.raises(ValueError):
        interchange.encoder_from_doc({"dimension": 3})
    with pytest.raises(ValueError):
        interchange.encoder_from_doc({"format": "something-else"})


def test_dumps_is_deterministic(toy_encoder):
    doc = interchange.encoder_to_doc(toy_encoder)
    assert interchange.dumps(doc) == interchange.dumps(
        interchange.encoder_to_doc(toy_encoder)
    )


def test_dumps_loads_inverse(toy_encoder):
    doc = interchange.encoder_to_doc(toy_encoder)
    assert interchange.loads(interchange.dumps(doc)) == doc


@settings(max_examples=30, deadline=None)
@given(
    arity=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_random_polynomials_round_trip(arity, data):
    terms = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(min_value=0, max_value=3)] * arity),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=0,
            max_size=4,
            unique_by=lambda t: t[0],
        )
    )
    p = poly.polynomial(arity, terms)
    assert interchange.polynomial_from_doc(interchange.polynomial_to_doc(p)) == p
