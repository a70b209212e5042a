"""Independent cross-check routes used only by the test suite.

Everything here deliberately avoids the package's own algebra kernels:
sympy supplies exact determinants, Groebner bases, and the linear algebra
behind the bounded-degree Macaulay membership oracle. The one route that is
not sympy is a frozen copy of the Groebner kernel and of exact division as
they stood before the support masks, the complete Gebauer-Moeller update,
the direct heap keys and the heap division (see "Frozen kernel" below);
the differential tests hold the package's kernel to it. It shares only the
Polynomial container with the package. Its reducer and S-polynomial work
on exponent tuples and do what the package's did before they moved to
packed monomials: the same reducer choice (the first basis element whose
leading monomial divides) and the same largest-first heap order. A second
frozen route is the pair bookkeeping of the complete Gebauer-Moeller
update as it stood before its mask pretests and deletion marks (see
"Frozen pair update" below); it runs the frozen reducer and S-polynomial,
and records the pairs it pops and the sizes of its normal forms, so the
differential tests can require the same traversal and the same work, not
only the same basis. A third
frozen route is the field of rationals as it stood when every element was
a Fraction (``FractionQQ``); rings over it run the package's own algebra,
and the differential tests hold the int-when-integral ``QQ`` to it. A
fourth is the determinant loops as they stood before the packed product
kernel (see "Frozen determinant loops" below): the Bareiss numerator, the
cofactor expansion and the pfaffian expansion, each on Polynomial ``*``,
``+`` and ``-``, Bareiss dividing by the frozen exact division; the
differential tests hold ``rings.sum_of_products``, ``rings.exact_div`` and
their callers in ``matrices`` to them. A fifth is two decisions as they
stood before the one-basis certificates of ``verify`` (see "Frozen
decision routes" below): the center identity by comparing both sides'
reduced bases, and radical membership by the Rabinowitsch basis alone.
They run the package's Gröbner kernel, so they hold the certificates, not
the kernel, to account. A sixth is the dropping of zero and sign-duplicate
minors as it stood before it moved onto packed terms
(``frozen_dedup_generators``). A seventh is the substitution loop as it
stood before renames moved into one gather (``oracle_substitute``); the
differential tests hold ``rings.Substitution`` and the chart's exponent
rule (``blowup.ChartMap.apply``) to it. An eighth is a chart's map as a
``Substitution`` with one image polynomial per variable, built the way
``blowup.make_chart`` built it before a chart became its exponent rule
(``oracle_chart_substitution``); the differential tests hold the rule's
transforms and its printed images (``blowup.ChartMap.to_json``) to it. A
ninth is the embedding loop as it stood before ``rings.embed`` renamed
through the substitution's gather (``oracle_embed``); a differential test
holds ``rings.embed``, its errors included, to it. A tenth is the leaf
check as it stood when it saturated the strict ideal by each unit in turn
(``oracle_check_leaf``); a differential test holds ``verify.check_leaf``,
which decides the same claim from one Rabinowitsch basis, to it.
"""

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement, count

import sympy

from detsing.blowup import strict_transform_ideal
from detsing.errors import ResourceLimit, UnknownVariable
from detsing.groebner import groebner
from detsing.matrices import Ideal, minors_ideal
from detsing.resolution import _formula_matrix
from detsing.rings import Polynomial, Ring, Substitution, embed
from detsing.verify import saturate, verdict


def to_sympy(f, syms=None):
    """Convert a detsing Polynomial to an expanded sympy expression."""
    if syms is None:
        syms = sympy.symbols(list(f.ring.names))
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        if isinstance(c, Fraction):
            term = sympy.Rational(c.numerator, c.denominator)
        else:
            term = sympy.Integer(c)
        for s, e in zip(syms, mono):
            if e:
                term *= s ** e
        expr += term
    return sympy.expand(expr)


def sympy_det(M):
    """Exact determinant of a GenericMatrix via sympy (berkowitz)."""
    syms = sympy.symbols(list(M.ring.names))
    mat = sympy.Matrix([[to_sympy(e, syms) for e in row] for row in M.rows])
    return sympy.expand(mat.det(method="berkowitz"))


def poly_equal_sympy(f, expr):
    return sympy.expand(to_sympy(f) - expr) == 0


def sympy_groebner_basis(gens, order="grevlex"):
    """Reduced Groebner basis via sympy, as a set of expanded expressions."""
    assert gens, "need at least one generator"
    syms = sympy.symbols(list(gens[0].ring.names))
    exprs = [to_sympy(g, syms) for g in gens]
    gb = sympy.groebner(exprs, *syms, order=order)
    return [sympy.expand(e) for e in gb.exprs]


def _monomials_of_degree(nvars, d):
    """All exponent tuples of total degree exactly d."""
    if d == 0:
        yield (0,) * nvars
        return
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def macaulay_member(f, gens):
    """Bounded-degree membership for HOMOGENEOUS data, by linear algebra.

    For homogeneous generators and homogeneous f of degree d, membership is
    equivalent to f lying in the span of {m * g : deg(m) + deg(g) = d},
    decided by an exact rank computation over Q. This is a complete oracle
    (both directions), independent of any Groebner machinery.
    """
    assert not f.is_zero()
    assert f.is_homogeneous()
    d = f.total_degree()
    nvars = f.ring.nvars
    columns = []
    for g in gens:
        assert g.is_homogeneous() and not g.is_zero()
        dg = g.total_degree()
        if dg > d:
            continue
        for mono in _monomials_of_degree(nvars, d - dg):
            product = {}
            for gm, gc in g.terms.items():
                key = tuple(a + b for a, b in zip(gm, mono))
                product[key] = product.get(key, Fraction(0)) + Fraction(gc)
            columns.append({k: v for k, v in product.items() if v != 0})
    support = sorted(set(f.terms) | {m for col in columns for m in col})
    row_of = {m: i for i, m in enumerate(support)}
    A = sympy.zeros(len(support), len(columns))
    for j, col in enumerate(columns):
        for m, v in col.items():
            A[row_of[m], j] = sympy.Rational(v.numerator, v.denominator)
    b = sympy.zeros(len(support), 1)
    for m, v in f.terms.items():
        b[row_of[m], 0] = sympy.Rational(v.numerator, v.denominator)
    aug = A.row_join(b)
    return A.rank() == aug.rank()


# -- Frozen kernel ------------------------------------------------------------
# Monomial primitives, order keys, Buchberger loop and exact division copied
# from the kernel before it was rewritten; change nothing here except to fix
# the copy itself.


def _m_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _m_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _m_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _m_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _grevlex_key(a):
    return (sum(a),) + tuple(-e for e in reversed(a))


def _frozen_key(spec):
    """The sort key of the order a MonomialOrder spec names: the one
    definition of each order here that does not go through the packing."""
    if spec[0] == "grevlex":
        return _grevlex_key
    if spec[0] == "lex":
        return tuple
    assert spec[0] == "elim", spec
    _, nvars, front = spec
    front_set = set(front)
    back = tuple(i for i in range(nvars) if i not in front_set)

    def key(m):
        head = (sum(m[i] for i in front),) + tuple(-m[i] for i in reversed(front))
        tail = (sum(m[i] for i in back),) + tuple(-m[i] for i in reversed(back))
        return head + tail

    return key


class _Gen:
    __slots__ = ("terms", "lm", "lc", "sugar", "age")

    def __init__(self, terms, key, sugar, age):
        self.terms = terms
        self.lm = max(terms, key=key)
        self.lc = terms[self.lm]
        self.sugar = sugar
        self.age = age


def _reduce_terms(terms, basis, key, field, max_terms):
    if not terms:
        return {}
    work = dict(terms)
    heap = [(tuple(-x for x in key(m)), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    reduce, div = field.reduce, field.div
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        reducer = None
        for g in basis:
            if _m_divides(g.lm, m):
                reducer = g
                break
        if reducer is None:
            remainder[m] = c
            del work[m]
            continue
        shift = _m_div(m, reducer.lm)
        coef = div(c, reducer.lc)
        for gm, gc in reducer.terms.items():
            tm = _m_mul(gm, shift)
            cur = work.get(tm)
            if cur is None:
                val = reduce(-gc * coef)
                if val:
                    work[tm] = val
                    heapq.heappush(heap, (tuple(-x for x in key(tm)), tm))
            else:
                val = reduce(cur - gc * coef)
                if val:
                    work[tm] = val
                else:
                    del work[tm]
        if len(work) + len(remainder) > max_terms:
            raise ResourceLimit("oracle normal form exceeded the term cap")
    return remainder


def _spoly_terms(g1, g2, lcm, field):
    s1 = _m_div(lcm, g1.lm)
    s2 = _m_div(lcm, g2.lm)
    reduce = field.reduce
    inv1 = field.inv(g1.lc)
    inv2 = field.inv(g2.lc)
    terms = {}
    for m, c in g1.terms.items():
        terms[_m_mul(m, s1)] = reduce(c * inv1)
    for m, c in g2.terms.items():
        tm = _m_mul(m, s2)
        val = reduce(terms.get(tm, 0) - c * inv2)
        if val:
            terms[tm] = val
        else:
            del terms[tm]
    return terms


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update(G, pairs, h, key):
    cands = sorted((key(lcm := _m_lcm(g.lm, h.lm)), g.age, lcm, g) for g in G)
    kept = []
    for k, _, lcm, g in cands:
        if any(other != lcm and _m_divides(other, lcm) for _, other, _ in kept):
            continue
        kept.append((k, lcm, g))
    pairs[:] = [
        (priority, lcm, g1, g2) for priority, lcm, g1, g2 in pairs
        if not (_m_divides(h.lm, lcm) and _m_lcm(g1.lm, h.lm) != lcm
                and _m_lcm(g2.lm, h.lm) != lcm)
    ]
    heapq.heapify(pairs)
    deg_h = sum(h.lm)
    for k, lcm, g in kept:
        if not _coprime(g.lm, h.lm):
            deg = sum(lcm)
            sugar = max(g.sugar + deg - sum(g.lm), h.sugar + deg - deg_h)
            heapq.heappush(pairs, ((sugar,) + k + (g.age, h.age), lcm, g, h))
    G[:] = [g for g in G if not (_m_divides(h.lm, g.lm) and g.lm != h.lm)]
    G.append(h)


ORACLE_MAX_BASIS = 2000
ORACLE_MAX_TERMS = 200_000


def oracle_groebner(gens, order):
    """The reduced basis (a tuple of Polynomials) of the frozen kernel,
    for the order of the given MonomialOrder."""
    gen_list = list(gens)
    ring_ = gen_list[0].ring
    key = _frozen_key(order.spec)
    field = ring_.field
    nonzero = [g for g in gen_list if not g.is_zero()]
    if not nonzero:
        return ()
    nonzero.sort(key=lambda g: (key(max(g.terms, key=key)), g.num_terms(), g.format()))
    G = []
    pairs = []
    ages = count()
    for g in nonzero:
        reduced = _reduce_terms(g.terms, G, key, field, ORACLE_MAX_TERMS)
        if reduced:
            sugar = max(sum(m) for m in reduced)
            _update(G, pairs, _Gen(reduced, key, sugar, next(ages)), key)
    while pairs:
        if len(G) > ORACLE_MAX_BASIS:
            raise ResourceLimit("oracle basis exceeded the size cap")
        priority, lcm, g1, g2 = heapq.heappop(pairs)
        reduced = _reduce_terms(_spoly_terms(g1, g2, lcm, field), G, key, field, ORACLE_MAX_TERMS)
        if reduced:
            _update(G, pairs, _Gen(reduced, key, priority[0], next(ages)), key)
    G.sort(key=lambda g: key(g.lm))
    polys = []
    for i, g in enumerate(G):
        terms = _reduce_terms(g.terms, G[:i] + G[i + 1:], key, field, ORACLE_MAX_TERMS)
        inv = field.inv(g.lc)
        polys.append(Polynomial(ring_, {m: field.reduce(c * inv) for m, c in terms.items()}))
    return tuple(polys)


def oracle_normal_form(f, polys, order):
    """Normal form of f against a reduced basis, by the frozen kernel."""
    key = _frozen_key(order.spec)
    basis = [_Gen(p.terms, key, p.total_degree(), i) for i, p in enumerate(polys)]
    return Polynomial(f.ring, _reduce_terms(f.terms, basis, key, f.ring.field, ORACLE_MAX_TERMS))


def oracle_exact_div(f, g):
    """Quotient f/g by the frozen rescanning division; ValueError when g
    does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    field = f.ring.field
    reduce = field.reduce
    glm = max(g.terms, key=_grevlex_key)
    glc = g.terms[glm]
    g_items = list(g.terms.items())
    quotient = {}
    rest = dict(f.terms)
    while rest:
        m = max(rest, key=_grevlex_key)
        c = rest[m]
        if not _m_divides(glm, m):
            raise ValueError("not an exact multiple")
        qm = _m_div(m, glm)
        qc = field.div(c, glc)
        quotient[qm] = qc
        for gm, gc in g_items:
            tm = _m_mul(gm, qm)
            s = reduce(rest.get(tm, 0) - gc * qc)
            if s:
                rest[tm] = s
            else:
                del rest[tm]
    return Polynomial(f.ring, quotient)


# -- Frozen pair update --------------------------------------------------------
# The complete Gebauer-Moeller update and the pair loop of groebner() as they
# stood before the mask pretests, the mask coprimality test and the deletion
# marks, on the frozen reducer and S-polynomial above. Change nothing here
# except to fix the copy itself.


def _gm_update(G, pairs, h, key):
    cands = sorted((key(lcm := _m_lcm(g.lm, h.lm)), g.age, lcm, g) for g in G)
    kept = []
    for k, _, lcm, g in cands:
        coprime = _coprime(g.lm, h.lm)
        if kept and kept[-1][1] == lcm:
            if coprime:
                kept[-1][2] = None
            continue
        if any(_m_divides(other, lcm) for _, other, _ in kept):
            continue
        kept.append([k, lcm, None if coprime else g])
    pairs[:] = [
        (priority, lcm, g1, g2) for priority, lcm, g1, g2 in pairs
        if not (_m_divides(h.lm, lcm) and _m_lcm(g1.lm, h.lm) != lcm
                and _m_lcm(g2.lm, h.lm) != lcm)
    ]
    heapq.heapify(pairs)
    deg_h = sum(h.lm)
    for k, lcm, g in kept:
        if g is not None:
            deg = sum(lcm)
            sugar = max(g.sugar + deg - sum(g.lm), h.sugar + deg - deg_h)
            heapq.heappush(pairs, ((sugar,) + k + (g.age, h.age), lcm, g, h))
    G[:] = [g for g in G if not (_m_divides(h.lm, g.lm) and g.lm != h.lm)]
    G.append(h)


def gm_oracle_groebner(gens, order):
    """Run the frozen pair update on gens. Returns the reduced basis (a tuple
    of Polynomials), the leading monomials of the working basis before
    inter-reduction, in ascending order, the popped pairs as (sugar, lcm,
    g.age, h.age) tuples in pop order, and the sizes (terms in, basis,
    remainder) of every normal form, in order."""
    gen_list = list(gens)
    ring_ = gen_list[0].ring
    key = _frozen_key(order.spec)
    field = ring_.field
    calls = []

    def normal_form(terms, basis):
        out = _reduce_terms(terms, basis, key, field, ORACLE_MAX_TERMS)
        calls.append((len(terms), len(basis), len(out)))
        return out

    nonzero = [g for g in gen_list if not g.is_zero()]
    if not nonzero:
        return (), [], [], calls
    nonzero.sort(key=lambda g: (key(max(g.terms, key=key)), g.num_terms(), g.format()))
    G = []
    pairs = []
    popped = []
    ages = count()
    for g in nonzero:
        reduced = normal_form(g.terms, G)
        if reduced:
            sugar = max(sum(m) for m in reduced)
            _gm_update(G, pairs, _Gen(reduced, key, sugar, next(ages)), key)
    while pairs:
        if len(G) > ORACLE_MAX_BASIS:
            raise ResourceLimit("oracle basis exceeded the size cap")
        priority, lcm, g1, g2 = heapq.heappop(pairs)
        popped.append((priority[0], lcm, g1.age, g2.age))
        reduced = normal_form(_spoly_terms(g1, g2, lcm, field), G)
        if reduced:
            _gm_update(G, pairs, _Gen(reduced, key, priority[0], next(ages)), key)
    G.sort(key=lambda g: key(g.lm))
    polys = []
    for i, g in enumerate(G):
        terms = normal_form(g.terms, G[:i] + G[i + 1:])
        inv = field.inv(g.lc)
        polys.append(Polynomial(ring_, {m: field.reduce(c * inv) for m, c in terms.items()}))
    return tuple(polys), [g.lm for g in G], popped, calls


# -- Frozen field -------------------------------------------------------------
# The rationals before integral values became ints: every element is a
# Fraction and reduce is the identity. Change nothing here except to fix the
# copy itself.


class FractionQQ:
    """The field Q with every element a fractions.Fraction. It compares
    unequal to the package's QQ, so rings over the two never mix."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact coefficient: {value!r}")
        return Fraction(value)

    def reduce(self, a):
        return a

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def __eq__(self, other):
        return isinstance(other, FractionQQ)

    def __hash__(self):
        return hash(("field", "FractionQQ"))

    def __repr__(self):
        return "FractionQQ"


# -- Frozen determinant loops --------------------------------------------------
# The Bareiss elimination, the shared cofactor expansion and the pfaffian
# recursion as they stood before rings.sum_of_products: each sum is built
# from one product and one copy of the running sum per term. Exact division
# is the frozen rescanning one above (oracle_exact_div), so that no frozen
# loop runs the package's kernels. Change nothing here except to fix the
# copy itself.


def frozen_bareiss(M):
    """det(M) by fraction-free elimination, numerators on * and -, divided
    by the frozen exact division."""
    n = M.size
    R = M.ring
    if n == 0:
        return R.one()
    rows = [list(row) for row in M.rows]
    sign = 1
    prev = R.one()
    for k in range(n - 1):
        if rows[k][k].is_zero():
            for i in range(k + 1, n):
                if not rows[i][k].is_zero():
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return R.zero()
        piv = rows[k][k]
        for i in range(k + 1, n):
            r_ik = rows[i][k]
            for j in range(k + 1, n):
                num = rows[i][j] * piv - r_ik * rows[k][j]
                rows[i][j] = oracle_exact_div(num, prev) if not num.is_zero() else R.zero()
            rows[i][k] = R.zero()
        prev = piv
    det = rows[n - 1][n - 1]
    return -det if sign < 0 else det


class FrozenMinorCache:
    """minor(I, J) by cofactor expansion along the last row of I, shared
    through a cache, accumulated term by term."""

    def __init__(self, M):
        self.M = M
        self._cache = {((), ()): M.ring.one()}

    def minor(self, I, J):
        got = self._cache.get((I, J))
        if got is not None:
            return got
        i = I[-1]
        I_rest = I[:-1]
        k = len(I)
        acc = self.M.ring.zero()
        row = self.M.rows[i]
        for t, j in enumerate(J):
            e = row[j]
            if e.is_zero():
                continue
            sub = self.minor(I_rest, J[:t] + J[t + 1:])
            if sub.is_zero():
                continue
            term = e * sub
            acc = acc + term if (k + t) % 2 else acc - term
        self._cache[(I, J)] = acc
        return acc


def frozen_dedup_generators(gens):
    """Drop zero generators and sign duplicates, keeping first occurrences,
    by hashing each polynomial and its negative."""
    out = []
    seen = set()
    for g in gens:
        if g and g not in seen and -g not in seen:
            seen.add(g)
            out.append(g)
    return out


def frozen_cofactor(M):
    full = tuple(range(M.size))
    return FrozenMinorCache(M).minor(full, full)


def frozen_pfaffian(M):
    """pf(M) by the first-row recursion, accumulated term by term."""
    R = M.ring
    memo = {(): R.one()}

    def pf(idx):
        got = memo.get(idx)
        if got is not None:
            return got
        i0 = idx[0]
        rest = idx[1:]
        acc = R.zero()
        for t, j in enumerate(rest):
            e = M.rows[i0][j]
            if e.is_zero():
                continue
            term = e * pf(rest[:t] + rest[t + 1:])
            acc = acc + term if t % 2 == 0 else acc - term
        memo[idx] = acc
        return acc

    return pf(tuple(range(M.size)))


# -- Frozen decision routes ----------------------------------------------------
# The center identity and radical membership as decided before the one-basis
# certificates. Every basis is computed afresh with groebner(), never read
# from the package's basis cache, which the certificates write to. Change
# nothing here except to fix the copy itself.


def _fresh_basis(ideal):
    return groebner(ideal.gens or [ideal.ring.zero()]).polys


def _fresh_basis_witness(ideal, include_bases):
    polys = _fresh_basis(ideal)
    wit = {"basis_size": len(polys)}
    if include_bases:
        wit["basis"] = [p.format() for p in polys]
    return wit


def oracle_center_identity_verdict(parent_matrix, red, j, roles, include_bases):
    """resolution._center_identity_verdict by both reduced bases: both sides
    saturated by eps in off-diagonal charts, then compared."""
    jr = j - (parent_matrix.size - len(red.remaining))
    lhs = strict_transform_ideal(minors_ideal(parent_matrix, j), red.chart)
    T, B = red.chart.target, _formula_matrix(red)
    if jr <= 0:
        rhs = Ideal(T, [T.one()])
    elif B is None or jr > B.size:
        rhs = Ideal(T, [])
    else:
        rhs = minors_ideal(B, jr)
    inputs = {
        "chart": f"X_{red.position[0]}_{red.position[1]}",
        "j": j,
        "roles": list(roles),
        "lhs": f"strict transform of the {j}-minors",
        "rhs": f"{jr}-minors of the reduced matrix",
    }
    if red.eps is not None:
        inputs["saturated_by"] = red.eps.format()
        lhs = saturate(lhs, red.eps)
        rhs = saturate(rhs, red.eps)
    passed = _fresh_basis(lhs) == _fresh_basis(rhs)
    witness = {"lhs": _fresh_basis_witness(lhs, include_bases)}
    if not passed:
        witness["rhs"] = _fresh_basis_witness(rhs, include_bases)
    return verdict("center_identity", inputs, passed, witness)


def oracle_radical_member(f, I):
    """f ∈ √I iff 1 ∈ I + ⟨1 − t·f⟩, with t a fresh last variable."""
    R = I.ring
    t = "t"
    while t in R.index:
        t += "_"
    ext = Ring(list(R.names) + [t], R.field)
    gens = [embed(g, ext) for g in I.gens] + [ext.one() - ext.var(t) * embed(f, ext)]
    return groebner(gens).is_unit_ideal()



# -- Frozen leaf check -----------------------------------------------------------
# verify.check_leaf as it stood before one Rabinowitsch basis decided it: the
# strict ideal saturated by each unit in turn, by the package's saturate, and
# the coordinate subspace read off the saturation's reduced basis, computed
# afresh. Change nothing here except to fix the copy itself.


def _oracle_coordinate_subspace(polys, R):
    names = set()
    for p in polys:
        if len(p.terms) != 1:
            return None
        mono, coeff = next(iter(p.terms.items()))
        if coeff != R.field.one or sum(mono) != 1:
            return None
        names.add(R.names[mono.index(1)])
    return names


def oracle_check_leaf(leaf):
    """verify.check_leaf by the saturation chain (I : u_1^∞ : u_2^∞ ...)."""
    I = leaf.strict_ideal
    for u in leaf.units:
        I = saturate(I, u)
    G = _fresh_basis(I)
    exc = list(leaf.exceptional_names)
    snc = len(exc) == len(set(exc)) and all(n in I.ring.index for n in exc)
    if len(G) == 1 and G[0].is_one():
        empty, regular, transversal = True, True, snc
        subspace = None
    else:
        subspace = _oracle_coordinate_subspace(G, I.ring)
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

def oracle_substitute(sub, f):
    """sub(f) by the frozen loop: every variable at exponent e, renames
    included, multiplies each partial term by its image's terms e times,
    and like monomials are collected only over the result."""
    images = [sub.images[n] for n in sub.source.names]
    acc = {}
    for mono, coeff in f.terms.items():
        term = [(sub.target._zero_mono, coeff)]
        for i, e in enumerate(mono):
            for _ in range(e):
                term = [(_m_mul(m1, m2), c1 * c2) for m1, c1 in term for m2, c2 in images[i].terms.items()]
        for m, c in term:
            acc[m] = acc.get(m, 0) + c
    return Polynomial._reduced(sub.target, acc)


def oracle_embed(f, target):
    """rings.embed by the frozen loop over every exponent of every term,
    for f and a target over one field."""
    if f.ring == target:
        return f
    positions = [target.index.get(n) for n in f.ring.names]
    terms = {}
    for mono, coeff in f.terms.items():
        out = [0] * target.nvars
        for i, e in enumerate(mono):
            if not e:
                continue
            if positions[i] is None:
                raise UnknownVariable(f"{f.ring.names[i]!r} does not exist in the target ring")
            out[positions[i]] = e
        terms[tuple(out)] = coeff
    return Polynomial(target, terms)


def oracle_chart_substitution(chart):
    """The chart's map as a Substitution into its own ring of primed names
    (a ``p`` suffix): the chart variable goes to e, its primed name, every
    other center variable t to e*tp, and every other variable to its
    primed name."""
    src = chart.source
    target = Ring([n + "p" for n in src.names], src.field)
    e = target.var(chart.chart_var + "p")
    images = {}
    for n in src.names:
        if n == chart.chart_var:
            images[n] = e
        elif n in chart.center:
            images[n] = e * target.var(n + "p")
        else:
            images[n] = target.var(n + "p")
    return Substitution(src, target, images)
