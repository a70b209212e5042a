"""Verification oracle for ideal-theoretic claims.

Everything here reduces to Gröbner normal forms: membership, equality of
ideals, radical membership and saturation, the coordinate-subspace
regularity certificate, the standing facts about skew and symmetric generic
matrices, and the per-leaf embedded-resolution verdicts.  Radical membership
and saturation share one Rabinowitsch extension I + ⟨1 − t·f⟩, with t a
fresh variable after those of the ring; saturation eliminates t from it.
Results can be wrapped as JSON verdict objects.

Two certificates answer True from one cached basis; when they fail, the
full route decides. ``equal_by_cover(J, I)`` proves J = I from I's
reduced basis (its fallback: both reduced bases, ``ideal_equal``;
``decide_equal`` runs the two in that order, and decides a saturated claim
whose saturation is cached by that saturation alone), and
``radical_member`` tries f² ∈ I before the Rabinowitsch basis. An argument
that is not an Ideal or a Polynomial raises BadParameters.

One cache serves a long-lived caller: the reduced grevlex basis of each
ideal asked about, the result of each saturation (I : u^∞), and each
determinant that a check reads (``determinant_of``). Entries are exact byte
strings (``rings.encode_terms``), not live objects, and no two unequal
ideals or matrices share an entry. Each ideal builds its key once
(``matrices.Ideal.cache_id``): an ideal of minors from r and its matrix's
bytes (``matrices.matrix_bytes``, built once per matrix: field, variable
names, kind, size and triangle), so a hit needs none of its minors; any
other ideal, ``saturate``'s results included, from the field, the variable
names and every term of every generator. This module keys a saturation
by I's key and u, and a determinant by its route and its matrix's bytes,
so a hit runs neither route. A hit decodes a fresh basis,
ideal or determinant, and ``basis_size`` reads a basis's size without
decoding it. Keys and values together hold at most _GB_CACHE_BUDGET bytes,
and the least recently used entries go first.
"""

from collections import OrderedDict

from .blowup import Center, make_chart, strict_transform_poly
from .errors import BadParameters, RingMismatch
from .fields import QQ, field_name
from .groebner import GroebnerBasis, _seed_loop, elimination_order, grevlex_order, groebner
from .matrices import (GenericMatrix, Ideal, MinorCache, determinant, generic_skew, matrix_bytes, pfaffian,
                       require_ideal)
from .rings import Polynomial, Ring, decode_terms, embed, encode_terms, encoded_count

# The cache, least recently used first. A basis key is the ideal's
# cache_id, built once by the ideal (matrices.Ideal, matrices.MinorIdeal);
# a saturation key is b"S" + the basis key + u; a determinant key is b"D"
# + the route + "," + the matrix's bytes (matrices.matrix_bytes). A basis or
# saturation value is _basis_bytes, a determinant's encode_terms((det,)).
# The budget, chosen by a sweep on library-mix, holds its whole working set.
_GB_CACHE_BUDGET = 4 << 20
_GB_CACHE: OrderedDict = OrderedDict()
# the cache object counted, and the bytes of its keys and values
_held = [_GB_CACHE, 0]


def _entry(I: Ideal, u: Polynomial = None) -> bytes:
    """The cache key of I's basis, I.cache_id, or with u of the saturation
    (I : u^∞): b"S", the basis key, then u."""
    return I.cache_id if u is None else b"S" + I.cache_id + encode_terms((u,))


def _basis_bytes(basis: GroebnerBasis) -> bytes:
    """The basis as bytes: the place of each element's leading monomial
    among its terms, then the elements (rings.encode_terms)."""
    lead = ",".join(str(list(p.terms).index(m)) for p, m in zip(basis.polys, basis.leading_monomials()))
    return lead.encode() + b"|" + encode_terms(basis.polys)


def _basis_from(R: Ring, value: bytes) -> GroebnerBasis:
    lead, _, body = value.partition(b"|")
    polys = decode_terms(R, body)
    lms = [list(p.terms)[int(i)] for p, i in zip(polys, lead.split(b","))]
    return GroebnerBasis(R, grevlex_order(R), polys, lms)


def _recall(key: bytes):
    """The value cached under key, refreshed, or None."""
    value = _GB_CACHE.get(key)
    if value is not None:
        _GB_CACHE.move_to_end(key)
    return value


def _remember(key: bytes, value: bytes) -> None:
    """Insert or refresh an entry, then evict the least recently used
    entries until the cache holds at most _GB_CACHE_BUDGET bytes."""
    if _held[0] is not _GB_CACHE or not _GB_CACHE:
        # a cache cleared or replaced from outside is counted afresh
        _held[:] = [_GB_CACHE, sum(len(k) + len(v) for k, v in _GB_CACHE.items())]
    old = _GB_CACHE.pop(key, None)
    if old is not None:
        _held[1] -= len(key) + len(old)
    _GB_CACHE[key] = value
    _held[1] += len(key) + len(value)
    while _held[1] > _GB_CACHE_BUDGET:
        k, v = _GB_CACHE.popitem(last=False)
        _held[1] -= len(k) + len(v)


def _basis_entry(I: Ideal) -> tuple:
    """The cached value of I's reduced grevlex basis, and the basis itself
    when this call computed it, else None."""
    key = _entry(I)
    value = _recall(key)
    if value is not None:
        return value, None
    # the zero ideal has no generators; groebner() gives it the empty basis
    basis = groebner(I.gens or [I.ring.zero()])
    value = _basis_bytes(basis)
    _remember(key, value)
    return value, basis


def groebner_of(I: Ideal) -> GroebnerBasis:
    """The reduced grevlex basis of I, cached so that repeated checks share
    one computation; every check here reads grevlex bases. A hit decodes a
    fresh GroebnerBasis: a check that tests several polynomials against one
    ideal calls this once and reuses the basis."""
    value, basis = _basis_entry(I)
    return _basis_from(I.ring, value) if basis is None else basis


def basis_size(I: Ideal) -> int:
    """The number of elements of I's reduced grevlex basis, read from the
    count in its cached value, which is not decoded."""
    return encoded_count(_basis_entry(I)[0].partition(b"|")[2])


def determinant_of(M: GenericMatrix, method: str = "cofactor", table: MinorCache = None) -> Polynomial:
    """det M by one route of matrices.determinant, "cofactor" or "bareiss",
    cached under a key of its own per route, so that the two routes still
    give values computed apart. On a miss the cofactor route reads table, a
    minor table of M, when one is given: the determinant then shares its
    sub-minors with the table's ideals."""
    key = b"D%s," % str(method).encode() + matrix_bytes(M)
    value = _recall(key)
    if value is not None:
        return decode_terms(M.ring, value)[0]
    det = table.determinant() if method == "cofactor" and table is not None else determinant(M, method)
    _remember(key, encode_terms((det,)))
    return det


def verdict(check: str, inputs: dict, passed: bool, witness=None) -> dict:
    """JSON verdict object; witness carries a failure certificate."""
    out = {"check": check, "inputs": inputs, "pass": bool(passed)}
    if witness is not None:
        out["witness"] = witness
    return out


def ideal_contains(I: Ideal, f: Polynomial) -> bool:
    require_ideal(I, f)
    return groebner_of(I).contains(f)


def containment_witness(I: Ideal, f: Polynomial):
    """None when f ∈ I, otherwise the nonzero normal form as a certificate."""
    require_ideal(I, f)
    nf = groebner_of(I).reduce(f)
    return None if nf.is_zero() else nf


def _require_pair(I, J) -> None:
    """require_ideal on both, and RingMismatch unless they share a ring."""
    require_ideal(I)
    require_ideal(J)
    if I.ring != J.ring:
        raise RingMismatch("ideals live in different rings")


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via identical reduced grevlex bases: equal cached bytes are
    equal bases, and only unequal bytes are decoded and compared."""
    _require_pair(I, J)
    (a, A), (b, B) = _basis_entry(I), _basis_entry(J)
    if a == b:
        return True
    A = _basis_from(I.ring, a) if A is None else A
    B = _basis_from(J.ring, b) if B is None else B
    return A.polys == B.polys


def equal_by_cover(J: Ideal, I: Ideal) -> bool:
    """True when I's reduced basis G alone proves J = I; False proves nothing.

    Every generator of J reduces to zero by G (J ⊆ I), and every leading
    monomial of G is one of the seed loop's remainders of J's generators,
    which lie in J; so lm(I) ⊆ lm(J), and J = I (Cox, Little & O'Shea,
    ch. 2). Given J ⊆ I, that equality is the divisibility cover, as G is
    reduced. On success J is cached with G; a J cached already is decided
    by the two cached bases: equal bytes are equal bases, and only unequal
    bytes are decoded and compared.
    """
    _require_pair(J, I)
    value, G = _basis_entry(I)
    key = _entry(J)
    cached = _recall(key)
    if cached == value:
        return True
    G = _basis_from(I.ring, value) if G is None else G
    if cached is not None:
        return _basis_from(J.ring, cached).polys == G.polys
    if not all(map(G.contains, J.gens)):
        return False
    lms = G.leading_monomials()
    if not set(lms) <= set(_seed_loop(J.gens or [J.ring.zero()], lms)):
        return False
    _remember(key, value)
    return True


def decide_equal(J: Ideal, I: Ideal, u: Polynomial = None) -> tuple:
    """Whether J = I, or with u whether (J : u^∞) = I for an I that u
    saturates; and the ideal whose reduced basis witnesses the answer.

    I's basis alone decides first (equal_by_cover, on the unsaturated J:
    J = I gives (J : u^∞) = (I : u^∞) = I), and I is the witness. Else J,
    saturated by u, is compared with I by both reduced bases and is the
    witness. A J whose saturation is cached already is decided by it at
    once, with no cover: a cover that passed would give the same answer and
    the same witness basis, and one that failed would be run for nothing.
    """
    _require_pair(J, I)
    if u is not None:
        require_ideal(J, u)
    if (u is None or _recall(_entry(J, u)) is None) and equal_by_cover(J, I):
        return True, I
    if u is not None:
        J = saturate(J, u)
    return ideal_equal(J, I), J


def _rabinowitsch(I: Ideal, f: Polynomial):
    """The generators of I + ⟨1 − t·f⟩ in R[t], and the name of t: a fresh
    variable, placed after the variables of R."""
    R = I.ring
    t = "t"
    while t in R.index:
        t += "_"
    ext = Ring(list(R.names) + [t], R.field)
    gens = [embed(g, ext) for g in I.gens]
    gens.append(ext.one() - ext.var(t) * embed(f, ext))
    return gens, t


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """f ∈ √I: at once when f² reduces to zero by I's cached basis, else
    iff 1 ∈ I + ⟨1 − t·f⟩ with t a fresh variable."""
    return next(_radical_members(I, [f]))


def _radical_members(I: Ideal, fs):
    """radical_member(f, I) for each f of fs, lazily, all from one read of
    I's cached basis; only an f whose square it does not reduce to zero
    builds its Rabinowitsch basis."""
    require_ideal(I, *fs)
    G = groebner_of(I)
    return (G.contains(f * f) or groebner(_rabinowitsch(I, f)[0]).is_unit_ideal() for f in fs)


def saturate(I: Ideal, u: Polynomial) -> Ideal:
    """(I : u^∞), computed by eliminating t from I + ⟨1 − t·u⟩, and cached
    by (I, u).

    The generators of the result are its reduced grevlex basis, which is
    also entered in the basis cache under the result's key, on a hit too.
    """
    return _saturation(I, u)[0]


def _saturation(I: Ideal, u: Polynomial) -> tuple:
    """(I : u^∞) as saturate() returns it, and its reduced grevlex basis."""
    require_ideal(I, u)
    if u.is_zero():
        raise BadParameters("cannot saturate by zero")
    R = I.ring
    key = _entry(I, u)
    value = _recall(key)
    if value is None:
        gens, t = _rabinowitsch(I, u)
        gb = groebner(gens, elimination_order(gens[-1].ring, [t]))
        # The t-free part of a reduced basis for the block order is the
        # reduced basis of the elimination ideal for the order restricted to
        # R, which is grevlex; groebner_of(out) would compute the same
        # polynomials again. Under the block order a polynomial is t-free
        # exactly when its leading monomial is, and dropping that monomial's
        # last exponent (t's) maps it into R.
        free = [(p, lm) for p, lm in zip(gb.polys, gb.leading_monomials()) if not lm[-1]]
        kept = tuple(embed(p, R) for p, _ in free)
        basis = GroebnerBasis(R, grevlex_order(R), kept, [lm[:-1] for _, lm in free])
        value = _basis_bytes(basis)
        _remember(key, value)
    else:
        basis = _basis_from(R, value)
    out = Ideal(R, basis.polys)
    _remember(out.cache_id, value)
    return out, basis


def coordinate_subspace(I: Ideal):
    """The variable set V when I's reduced basis is exactly V; else None."""
    require_ideal(I)
    return _coordinate_subspace(groebner_of(I))


def _coordinate_subspace(G: GroebnerBasis):
    names = set()
    for p in G.polys:
        if len(p.terms) != 1:
            return None
        mono, coeff = next(iter(p.terms.items()))
        if coeff != G.ring.field.one or sum(mono) != 1:
            return None
        names.add(G.ring.names[mono.index(1)])
    return names


# --- standing facts about generic skew/symmetric matrices ------------------


def check_fact(fact: str, m: int, field=QQ, l: int = None) -> bool:
    """Decide one of the standing facts exactly over the given field.

    F1: det of an odd generic skew matrix is 0 (both determinant routes).
    F3: det = pfaffian² for even generic skew matrices (both routes).
    Each route's determinant is read through determinant_of, under a key
    of its own; F1 and F3 take no minor level l.
    F2 / Eq2l: the 2ℓ- and (2ℓ−1)-minor ideals of a generic skew matrix
    have equal radicals — containment one way, radical membership the other.
    """
    tag = fact.upper() if isinstance(fact, str) else None
    if type(m) is not int or m < 1:
        raise BadParameters(f"the matrix size must be an integer m >= 1, got {m!r}")
    if tag in ("F1", "F3"):
        if l is not None:
            raise BadParameters("F1 and F3 take no minor level")
        if m % 2 != (tag == "F1"):
            raise BadParameters("F1 concerns odd sizes" if tag == "F1" else "F3 concerns even sizes")
        A = generic_skew(m, field)
        expected = A.ring.zero() if tag == "F1" else pfaffian(A) ** 2
        return all(determinant_of(A, method) == expected for method in ("cofactor", "bareiss"))
    if tag in ("F2", "EQ2L"):
        if l is None:
            raise BadParameters("F2 needs the minor level l")
        if type(l) is not int or not 1 <= 2 * l <= m:
            raise BadParameters(f"need an integer l with 1 <= 2l <= m, got l={l}, m={m}")
        # one table of A's minors serves both levels
        minors = MinorCache(generic_skew(m, field))
        even, odd = minors.ideal(2 * l), minors.ideal(2 * l - 1)
        # one read of each cached basis serves all its tests
        if not all(map(groebner_of(odd).contains, even.gens)):
            return False
        return all(_radical_members(even, odd.gens))
    raise BadParameters(f"unknown fact {fact!r}")


def check_lemma_counterexample(field=QQ) -> dict:
    """Generator-wise strict transforms need not generate the transform.

    h = g2 − g1 lies in ⟨g1, g2⟩ = ⟨x²−y³, x²−z⁵⟩, yet in the z-chart of
    the origin blow-up the strict transform of h escapes the ideal spanned
    by the generators' strict transforms — which is why the generator-wise
    construction demands generators homogeneous in the center variables.
    """
    R = Ring(["x", "y", "z"], field)
    g1, g2 = R.parse("x^2 - y^3"), R.parse("x^2 - z^5")
    h = g2 - g1
    in_source = ideal_contains(Ideal(R, [g1, g2]), h)

    chart = make_chart(Center(R, ["x", "y", "z"]), "z")
    _, g1p = strict_transform_poly(g1, chart)
    _, g2p = strict_transform_poly(g2, chart)
    _, hp = strict_transform_poly(h, chart)
    transformed = Ideal(chart.target, [g1p, g2p])
    certificate = containment_witness(transformed, hp)
    in_transform = certificate is None

    return verdict(
        "strict_transform_counterexample",
        {
            "field": field_name(field),
            "generators": [g1.format(), g2.format()],
            "combination": h.format(),
            "chart": chart.chart_var,
        },
        in_source and not in_transform,
        witness={
            "in_source_ideal": in_source,
            "strict_transforms": [g1p.format(), g2p.format()],
            "strict_transform_of_combination": hp.format(),
            "normal_form": None if certificate is None else certificate.format(),
        },
    )


# --- embedded-resolution verdicts -------------------------------------------


def _unit_saturation_basis(I: Ideal, units) -> GroebnerBasis:
    """The reduced basis of I saturated by each unit in turn, decoded once."""
    for u in units[:-1]:
        I = saturate(I, u)
    return _saturation(I, units[-1])[1] if units else groebner_of(I)


def check_leaf(leaf) -> dict:
    """Conditions (a) and (c) for one leaf of a resolution tree.

    (a) after inverting the chart units, the strict transform is either
        empty in the chart or cut out by distinct variables (regular);
    (c) those variables avoid every exceptional variable, and the
        exceptional variables are distinct coordinates (SNC), so the
        intersections are transversal.
    Condition (b) — isomorphism off the singular locus — holds structurally
    for blow-ups centered inside the singular locus and is recorded as such.
    A leaf without a strict ideal (an interior node) raises BadParameters.
    """
    if not isinstance(getattr(leaf, "strict_ideal", None), Ideal):
        raise BadParameters(f"expected a leaf with a strict ideal, got {leaf!r}")
    G = _unit_saturation_basis(leaf.strict_ideal, leaf.units)
    exc = list(leaf.exceptional_names)
    snc = len(exc) == len(set(exc)) and all(n in G.ring.index for n in exc)
    if G.is_unit_ideal():
        empty, regular, transversal = True, True, snc
        subspace = None
    else:
        subspace = _coordinate_subspace(G)
        empty = False
        regular = subspace is not None
        transversal = snc and regular and not (subspace & set(exc))
    return verdict(
        "embedded_resolution_leaf",
        {"node": leaf.node_id},
        regular and transversal,
        witness=None
        if regular and transversal
        else {"subspace": sorted(subspace) if subspace else None, "exceptional": exc},
    ) | {
        "empty_in_chart": empty,
        "regular": regular,
        "transversal": transversal,
        "condition_b": "structural (center inside the singular locus)",
        "subspace": sorted(subspace) if subspace else [],
        "exceptional": exc,
    }


def check_embedded_resolution(report) -> dict:
    """Aggregate per-leaf verdicts for a resolution report; BadParameters for anything else."""
    if not callable(getattr(report, "leaves", None)):
        raise BadParameters(f"expected a resolution report, got {type(report).__name__}")
    leaf_verdicts = [check_leaf(leaf) for leaf in report.leaves()]
    return verdict(
        "embedded_resolution",
        {"root": report.root_id, "leaves": len(leaf_verdicts)},
        all(v["pass"] for v in leaf_verdicts),
    ) | {"leaves": leaf_verdicts}
