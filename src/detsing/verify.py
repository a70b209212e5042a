"""Verification oracle for ideal-theoretic claims.

Everything here reduces to Gröbner normal forms: membership, equality of
ideals, radical membership and saturation, the coordinate-subspace
regularity certificate, the standing facts about skew and symmetric generic
matrices, and the per-leaf embedded-resolution verdicts.  Radical membership
and saturation share one Rabinowitsch extension I + ⟨1 − t·f⟩, with t a
fresh variable after those of the ring; saturation eliminates t from it.
Results can be wrapped as JSON verdict objects.
"""

from collections import OrderedDict

from .blowup import Center, make_chart, strict_transform_poly
from .errors import BadParameters, RingMismatch
from .fields import QQ, PrimeField, field_name
from .groebner import (
    GroebnerBasis,
    elimination_order,
    grevlex_order,
    groebner,
)
from .matrices import Ideal, determinant, generic_skew, minors_ideal, pfaffian
from .rings import Polynomial, Ring, embed

DEFAULT_PRIMES = (3, 5, 7, 101)

# Basis cache per (ideal, order spec), grevlex entries keyed None: least
# recently used first, at most _GB_CACHE_SIZE entries. A hit refreshes its
# entry, and saturations hand over their bases through the same insert.
_GB_CACHE_SIZE = 256
_GB_CACHE: OrderedDict = OrderedDict()


def _remember(key, basis: GroebnerBasis) -> GroebnerBasis:
    """Insert or refresh an entry, evicting the least recently used."""
    _GB_CACHE[key] = basis
    _GB_CACHE.move_to_end(key)
    if len(_GB_CACHE) > _GB_CACHE_SIZE:
        _GB_CACHE.popitem(last=False)
    return basis


def groebner_of(I: Ideal, order=None) -> GroebnerBasis:
    """Reduced basis of I, cached so repeated checks share one computation."""
    key = (I, None if order is None else order.spec)
    basis = _GB_CACHE.get(key)
    if basis is None:
        # the zero ideal has no generators; groebner() gives it the empty basis
        basis = groebner(I.gens or [I.ring.zero()], order)
    return _remember(key, basis)


def verdict(check: str, inputs: dict, passed: bool, witness=None) -> dict:
    """JSON verdict object; witness carries a failure certificate."""
    out = {"check": check, "inputs": inputs, "pass": bool(passed)}
    if witness is not None:
        out["witness"] = witness
    return out


def ideal_contains(I: Ideal, f: Polynomial) -> bool:
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal live in different rings")
    return groebner_of(I).contains(f)


def containment_witness(I: Ideal, f: Polynomial):
    """None when f ∈ I, otherwise the nonzero normal form as a certificate."""
    nf = groebner_of(I).reduce(f)
    return None if nf.is_zero() else nf


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via identical reduced grevlex bases."""
    if I.ring != J.ring:
        raise RingMismatch("ideals live in different rings")
    return groebner_of(I).polys == groebner_of(J).polys


def _rabinowitsch(I: Ideal, f: Polynomial):
    """The generators of I + ⟨1 − t·f⟩ in R[t], and the name of t: a fresh
    variable, placed after the variables of R."""
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal live in different rings")
    R = I.ring
    t = "t"
    while t in R.index:
        t += "_"
    ext = Ring(list(R.names) + [t], R.field)
    gens = [embed(g, ext) for g in I.gens]
    gens.append(ext.one() - ext.var(t) * embed(f, ext))
    return gens, t


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """f ∈ √I iff 1 ∈ I + ⟨1 − t·f⟩ with t a fresh variable."""
    gens, _ = _rabinowitsch(I, f)
    return groebner(gens).is_unit_ideal()


def saturate(I: Ideal, u: Polynomial) -> Ideal:
    """(I : u^∞), computed by eliminating t from I + ⟨1 − t·u⟩.

    The generators of the result are its reduced grevlex basis, which is
    also entered in the basis cache.
    """
    gens, t = _rabinowitsch(I, u)
    if u.is_zero():
        raise BadParameters("cannot saturate by zero")
    R = I.ring
    gb = groebner(gens, elimination_order(gens[-1].ring, [t]))
    # The t-free part of a reduced basis for the block order is the reduced
    # basis of the elimination ideal for the order restricted to R, which is
    # grevlex; groebner_of(out) would compute the same polynomials again.
    # Under the block order a polynomial is t-free exactly when its leading
    # monomial is, and dropping that monomial's last exponent (t's) maps it
    # into R.
    free = [(p, lm) for p, lm in zip(gb.polys, gb.leading_monomials()) if not lm[-1]]
    kept = tuple(embed(p, R) for p, _ in free)
    out = Ideal(R, kept)
    _remember((out, None), GroebnerBasis(R, grevlex_order(R), kept, [lm[:-1] for _, lm in free]))
    return out


def coordinate_subspace(I: Ideal):
    """The variable set V when I's reduced basis is exactly V; else None."""
    names = set()
    for p in groebner_of(I).polys:
        if len(p.terms) != 1:
            return None
        mono, coeff = next(iter(p.terms.items()))
        if coeff != I.ring.field.one or sum(mono) != 1:
            return None
        names.add(I.ring.names[mono.index(1)])
    return names


# --- standing facts about generic skew/symmetric matrices ------------------


def default_fields(primes=DEFAULT_PRIMES):
    return (QQ,) + tuple(PrimeField(p) for p in primes)


def check_fact(fact: str, m: int, field=QQ, l: int = None) -> bool:
    """Decide one of the standing facts exactly over the given field.

    F1: det of an odd generic skew matrix is 0 (both determinant routes).
    F3: det = pfaffian² for even generic skew matrices (both routes).
    F2 / Eq2l: the 2ℓ- and (2ℓ−1)-minor ideals of a generic skew matrix
    have equal radicals — containment one way, radical membership the other.
    """
    tag = fact.upper() if isinstance(fact, str) else None
    if type(m) is not int or m < 1:
        raise BadParameters(f"the matrix size must be an integer m >= 1, got {m!r}")
    if tag == "F1":
        if m % 2 == 0:
            raise BadParameters("F1 concerns odd sizes")
        A = generic_skew(m, field)
        return determinant(A, "cofactor").is_zero() and determinant(A, "bareiss").is_zero()
    if tag == "F3":
        if m % 2:
            raise BadParameters("F3 concerns even sizes")
        A = generic_skew(m, field)
        pf = pfaffian(A)
        return (determinant(A, "cofactor") - pf * pf).is_zero() and (
            determinant(A, "bareiss") - pf * pf
        ).is_zero()
    if tag in ("F2", "EQ2L"):
        if l is None:
            raise BadParameters("F2 needs the minor level l")
        if type(l) is not int or not 1 <= 2 * l <= m:
            raise BadParameters(f"need an integer l with 1 <= 2l <= m, got l={l}, m={m}")
        A = generic_skew(m, field)
        even = minors_ideal(A, 2 * l)
        odd = minors_ideal(A, 2 * l - 1)
        if not all(ideal_contains(odd, g) for g in even.gens):
            return False
        return all(radical_member(g, even) for g in odd.gens)
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


def _saturate_by_units(I: Ideal, units) -> Ideal:
    for u in units:
        I = saturate(I, u)
    return I


def check_leaf(leaf) -> dict:
    """Conditions (a) and (c) for one leaf of a resolution tree.

    (a) after inverting the chart units, the strict transform is either
        empty in the chart or cut out by distinct variables (regular);
    (c) those variables avoid every exceptional variable, and the
        exceptional variables are distinct coordinates (SNC), so the
        intersections are transversal.
    Condition (b) — isomorphism off the singular locus — holds structurally
    for blow-ups centered inside the singular locus and is recorded as such.
    """
    I = _saturate_by_units(leaf.strict_ideal, leaf.units)
    exc = list(leaf.exceptional_names)
    snc = len(exc) == len(set(exc)) and all(n in I.ring.index for n in exc)
    if groebner_of(I).is_unit_ideal():
        empty, regular, transversal = True, True, snc
        subspace = None
    else:
        subspace = coordinate_subspace(I)
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
    """Aggregate per-leaf verdicts for a resolution report."""
    leaf_verdicts = [check_leaf(leaf) for leaf in report.leaves()]
    return verdict(
        "embedded_resolution",
        {"root": report.root_id, "leaves": len(leaf_verdicts)},
        all(v["pass"] for v in leaf_verdicts),
    ) | {"leaves": leaf_verdicts}
