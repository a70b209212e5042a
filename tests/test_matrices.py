"""Matrix layer: generic matrices, determinants both ways, pfaffians, minors.

Frozen values are hand-expanded; larger random cases are cross-checked
against sympy as an independent route.
"""

import random

import pytest

from detsing.errors import BadIndex, BadParameters, CharTwoForbidden, NotSkew, OddSize, ParseError
from detsing.fields import QQ, PrimeField
from detsing.matrices import (
    GenericMatrix,
    Ideal,
    MinorCache,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    pfaffian,
    principal_minors_ideal,
    submatrix,
)
from detsing.rings import ring

from .oracles import poly_equal_sympy, sympy_det


def test_generic_skew_shape():
    A = generic_skew(3)
    assert A.ring.names == ("x_1_2", "x_1_3", "x_2_3")
    assert A.entry(0, 1) == A.ring.var("x_1_2")
    assert A.entry(1, 0) == -A.ring.var("x_1_2")
    assert A.entry(2, 2).is_zero()
    assert A.kind == "skew"


def test_generic_sym_shape():
    B = generic_sym(2)
    assert B.ring.names == ("x_1_1", "x_1_2", "x_2_2")
    assert B.entry(0, 1) == B.entry(1, 0) == B.ring.var("x_1_2")


def test_char_two_forbidden_for_skew():
    with pytest.raises(CharTwoForbidden):
        generic_skew(3, PrimeField(2))
    # symmetric matrices are fine in characteristic 2
    generic_sym(2, PrimeField(2))


def test_det_A2_frozen():
    A = generic_skew(2)
    expected = A.ring.parse("x_1_2^2")
    assert determinant(A, "cofactor") == expected
    assert determinant(A, "bareiss") == expected


def test_det_B2_frozen():
    B = generic_sym(2)
    expected = B.ring.parse("x_1_1*x_2_2 - x_1_2^2")
    assert determinant(B, "cofactor") == expected
    assert determinant(B, "bareiss") == expected


def test_det_B3_frozen():
    B = generic_sym(3)
    expected = B.ring.parse(
        "x_1_1*x_2_2*x_3_3 - x_1_1*x_2_3^2 - x_1_2^2*x_3_3"
        " + 2*x_1_2*x_1_3*x_2_3 - x_1_3^2*x_2_2"
    )
    assert determinant(B, "cofactor") == expected
    assert determinant(B, "bareiss") == expected


def test_pfaffian_sign_convention():
    A = generic_skew(2)
    assert pfaffian(A) == A.ring.var("x_1_2")


def test_pfaffian_A4_frozen():
    A = generic_skew(4)
    expected = A.ring.parse("x_1_2*x_3_4 - x_1_3*x_2_4 + x_1_4*x_2_3")
    assert pfaffian(A) == expected


def test_pfaffian_A6_squares_to_det():
    A = generic_skew(6)
    pf = pfaffian(A)
    assert pf.num_terms() == 15
    assert pf * pf == determinant(A, "cofactor")


def test_pfaffian_errors():
    with pytest.raises(OddSize):
        pfaffian(generic_skew(3))
    with pytest.raises(NotSkew):
        pfaffian(generic_sym(2))
    # a general-kind matrix that happens to be skew is accepted
    A = generic_skew(2)
    general = GenericMatrix(A.ring, A.rows, "general")
    assert pfaffian(general) == A.ring.var("x_1_2")


ENTRY_POINTS = {
    "determinant": determinant,
    "pfaffian": pfaffian,
    "minors": lambda M: minors(M, 1),
    "minors_ideal": lambda M: minors_ideal(M, 1),
    "principal_minors_ideal": lambda M: principal_minors_ideal(M, 1),
    "submatrix": lambda M: submatrix(M, (0,), (0,)),
}


@pytest.mark.parametrize(
    "value", ["x", [[1]], [[ring("a").var("a")]], None], ids=["str", "int-rows", "nested-list", "None"]
)
@pytest.mark.parametrize("fn", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_matrix_input_is_refused(fn, value):
    with pytest.raises(BadParameters, match="GenericMatrix"):
        fn(value)


@pytest.mark.parametrize("fn", [minors, minors_ideal, principal_minors_ideal])
def test_minor_size_must_be_an_int_in_range(fn):
    A = generic_skew(4)
    for r in (True, False, 2.0, "2", None):
        with pytest.raises(BadParameters, match="minor size"):
            fn(A, r)
    for r in (-1, 5):
        with pytest.raises(BadIndex):
            fn(A, r)
    assert len(fn(A, 0)) == 1  # the empty minor is 1


def test_submatrix_refuses_bool_indices():
    A = generic_skew(4)
    for rows, cols in [((False, True), (0, True)), ((0, 1), (False, 1)), ((True,), (2,))]:
        with pytest.raises(BadIndex):
            submatrix(A, rows, cols)
    assert submatrix(A, (0, 1), (0, 1)).rows == ((A.entry(0, 0), A.entry(0, 1)), (A.entry(1, 0), A.entry(1, 1)))


def test_odd_skew_determinants_vanish():
    for m in (1, 3, 5):
        A = generic_skew(m)
        assert determinant(A, "cofactor").is_zero()
        assert determinant(A, "bareiss").is_zero()


def test_det_equals_pfaffian_squared_small():
    for m in (2, 4):
        A = generic_skew(m)
        assert determinant(A, "bareiss") == pfaffian(A) ** 2


def test_submatrix_validation():
    A = generic_skew(4)
    with pytest.raises(BadIndex):
        submatrix(A, (0, 0), (1, 2))
    with pytest.raises(BadIndex):
        submatrix(A, (2, 1), (0, 1))
    with pytest.raises(BadIndex):
        submatrix(A, (0, 4), (0, 1))
    with pytest.raises(BadIndex):
        submatrix(A, (0, 1), (0, 1, 2))
    principal = submatrix(A, (0, 2), (0, 2))
    assert principal.kind == "skew"
    mixed = submatrix(A, (0, 1), (0, 2))
    assert mixed.kind == "general"


def test_minor_frozen_A4():
    # rows {1,2,3}, cols {1,2,4} in 1-based labels: equals x_1_2 * pf(A_4)
    A = generic_skew(4)
    cache = MinorCache(A)
    got = cache.minor((0, 1, 2), (0, 1, 3))
    assert got == A.ring.var("x_1_2") * pfaffian(A)


def test_every_nonzero_3minor_of_A4_is_variable_times_pfaffian():
    A = generic_skew(4)
    pf = pfaffian(A)
    seen_vars = []
    for I, J, det in minors(A, 3):
        if I == J:
            assert det.is_zero()  # principal 3x3 blocks are odd skew
            continue
        assert not det.is_zero()
        matched = [v for v in A.ring.vars() if det == v * pf or det == -(v * pf)]
        assert len(matched) == 1
        seen_vars.append(matched[0])
    assert len(seen_vars) == 12
    # every variable shows up (twice, once per transposed index pair)
    assert {v.format() for v in seen_vars} == set(A.ring.names)


def test_minors_ideal_dedup_frozen():
    A2 = generic_skew(2)
    assert minors_ideal(A2, 1).gens == (A2.ring.var("x_1_2"),)

    B3 = generic_sym(3)
    assert minors_ideal(B3, 3).gens == (determinant(B3, "cofactor"),)

    A4 = generic_skew(4)
    I3 = minors_ideal(A4, 3)
    assert len(I3.gens) == 6  # one per variable after sign dedup


def test_principal_minors_frozen():
    A4 = generic_skew(4)
    P2 = principal_minors_ideal(A4, 2)
    expected = {A4.ring.var(n) ** 2 for n in A4.ring.names}
    assert set(P2.gens) == expected
    B2 = generic_sym(2)
    assert set(principal_minors_ideal(B2, 1).gens) == {
        B2.ring.var("x_1_1"),
        B2.ring.var("x_2_2"),
    }


def test_minor_enumeration_order():
    B = generic_sym(2)
    got = [(I, J) for I, J, _ in minors(B, 1)]
    assert got == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]


def _random_matrix(rng, R, m, max_deg=1, kind="general"):
    names = R.names

    def rand_poly():
        f = R.zero()
        for _ in range(rng.randint(1, 3)):
            mono = R.one()
            for _ in range(rng.randint(0, max_deg)):
                mono = mono * R.var(rng.choice(names))
            f = f + rng.randint(-3, 3) * mono
        return f

    rows = [[rand_poly() for _ in range(m)] for _ in range(m)]
    return GenericMatrix(R, rows, "general")


def test_cofactor_vs_bareiss_vs_sympy_random():
    rng = random.Random(20260817)
    R = ring("u v w")
    for m in range(1, 6):
        for _ in range(3):
            M = _random_matrix(rng, R, m)
            d_cof = determinant(M, "cofactor")
            d_bar = determinant(M, "bareiss")
            assert d_cof == d_bar
            assert poly_equal_sympy(d_cof, sympy_det(M))


def test_det_generic_sym_4_against_sympy():
    B = generic_sym(4)
    assert poly_equal_sympy(determinant(B, "cofactor"), sympy_det(B))
    assert determinant(B, "cofactor") == determinant(B, "bareiss")


def test_pfaffian_over_prime_fields():
    for p in (3, 5, 7, 101):
        A = generic_skew(4, PrimeField(p))
        assert pfaffian(A) ** 2 == determinant(A, "bareiss")


def test_matrix_json_round_trip():
    A = generic_skew(3)
    data = A.to_json()
    back = GenericMatrix.from_json(data)
    assert back == A and back.kind == "skew"
    assert data["entries"][1][0] == "-x_1_2"


@pytest.mark.parametrize(
    "change",
    [{"generators": "x"}, {"generators": None}, {"ring": {"vars": "xy"}}, {"ring": None}],
)
def test_ideal_json_of_the_wrong_shape_is_refused(change):
    data = dict(Ideal(ring("x y"), [ring("x y").var("x")]).to_json(), **change)
    with pytest.raises(BadParameters):
        Ideal.from_json(data)
    for key in ("ring", "generators"):
        with pytest.raises(BadParameters):
            Ideal.from_json({k: v for k, v in data.items() if k != key})
    for gens in (["x +"], ["x", 1]):
        with pytest.raises(ParseError):
            Ideal.from_json(dict(data, generators=gens, ring={"field": "Q", "vars": ["x"]}))


@pytest.mark.parametrize(
    "change",
    [{"entries": "x"}, {"entries": ["x"]}, {"entries": None},
     {"kind": "hermitian"}, {"kind": None}, {"ring": ["x_1_1"]}],
)
def test_matrix_json_of_the_wrong_shape_is_refused(change):
    data = dict(generic_sym(2).to_json(), **change)
    with pytest.raises(BadParameters):
        GenericMatrix.from_json(data)
    for key in ("ring", "entries", "kind"):
        with pytest.raises(BadParameters):
            GenericMatrix.from_json({k: v for k, v in data.items() if k != key})
    for entries in ([["x_1_1 *"]], [[1]]):
        with pytest.raises(ParseError):
            GenericMatrix.from_json(dict(generic_sym(1).to_json(), entries=entries))


def test_ideal_json_and_map():
    B = generic_sym(2)
    I = minors_ideal(B, 2)
    back = Ideal.from_json(I.to_json())
    assert back.gens == I.gens
    assert not I.contains_unit_generator()
    J = Ideal(B.ring, (B.ring.one(),))
    assert J.contains_unit_generator()
