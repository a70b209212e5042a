"""Chart-tree drivers resolving generic determinantal loci.

``resolve_skew(m, l)`` builds an embedded resolution of the reduced locus
cut out by the 2l-minors of a generic skew-symmetric m-matrix, and
``resolve_sym(m, r)`` of the locus of the r-minors of a generic symmetric
matrix.  Every center is the vanishing locus of the current matrix
variables; after each blow-up a change of variables restores a generic
matrix of smaller size.  With pivot positions k, l and primed chart
coordinates x', the fresh entries are

  skew, chart at (k,l):      y_ij = x'_ij - x'_lj*x'_ki + x'_kj*x'_li
  symmetric, diagonal (k,k): y_ij = x'_ij - x'_ki*x'_kj
  symmetric, off-diag (k,l): y_ij = eps*(x'_ij - x'_li*x'_kj)
                                    - (x'_ki - x'_kk*x'_li)*(x'_lj - x'_ll*x'_kj)
                             where eps = 1 - x'_kk*x'_ll is a unit on the
                             part of the chart not covered diagonally.

The size drops by 2 (skew, off-diagonal) or 1 (diagonal), and the minor
ideals contract along: the strict transform of the j-minors of the old
matrix equals the (j-drop)-minors of the reduced matrix (after saturating
by eps in off-diagonal charts).  A resolve first builds the whole tree,
computing no Groebner basis; then, unless the check level is "none", one
pass checks those identities, the determinant identities, the rewrites to
fresh generic coordinates and (check "full") the embedded resolution at
each leaf through the verify module, and records them as node verdicts.
"""

import time

from .blowup import Center, make_chart, primed, strict_transform_ideal, strict_transform_poly
from .errors import BadParameters, NonHomogeneousGenerators, SizeTooSmall
from .fields import QQ, field_name
from .matrices import (
    GenericMatrix,
    Ideal,
    MinorCache,
    generic_skew,
    generic_sym,
    minors_ideal,
    triangle,
)
from .rings import Ring, Substitution, embed
from .verify import (
    _radical_members,
    basis_size,
    check_embedded_resolution,
    decide_equal,
    determinant_of,
    groebner_of,
    saturate,
    verdict,
)

class ChartReduction:
    """Everything a single chart reduction computes besides the child node.

    ``matrix`` is the parent matrix with one exceptional power divided out
    of every entry (the primed matrix, with a 1 at the pivot), and
    ``formula_matrix`` is the reduced matrix whose entries are the y-formulas
    spelled out in the module docstring — both live in the chart ring.
    The ideal identities are checked against these matrices.
    ``corrections`` holds the (P, Q) terms of those formulas (see
    ``_chart_reduction``); the child's rewrite inverts them, and the
    transcript reads the off-diagonal ``row_factors`` A_i.
    """

    __slots__ = (
        "chart",
        "chart_type",
        "position",
        "ring",
        "matrix",
        "formula_matrix",
        "corrections",
        "row_factors",
        "eps",
        "remaining",
    )

    def __init__(self, chart, chart_type, position, ring_, matrix, formula_matrix,
                 corrections, row_factors, eps, remaining):
        self.chart = chart
        self.chart_type = chart_type
        self.position = position
        self.ring = ring_
        self.matrix = matrix
        self.formula_matrix = formula_matrix
        self.corrections = corrections
        self.row_factors = row_factors
        self.eps = eps
        self.remaining = remaining


class ChartNode:
    """One chart of the blow-up tree.

    ``matrix`` is a fresh generic matrix in the node's own ring (None when
    no variables remain to reduce); ``composed`` substitutes the original
    coordinates into this ring; ``rewrite`` maps the chart ring onto the
    node ring, realizing the row/column eliminations recorded in
    ``transcript``; ``units`` are invertible on the chart and ``relations``
    pin the recorded inverses (s*eps - 1).  ``exceptional_divisors`` lists
    (variable, multiplicity) pairs, the multiplicity being the vanishing
    order of the transformed ideal's generators along that center.
    """

    def __init__(self, node_id, parent_id, depth, kind, ring_, matrix, stage,
                 target, composed, rewrite=None, reduction=None, exceptional=(),
                 units=(), relations=(), orbit_size=1):
        self.node_id = node_id
        self.parent_id = parent_id
        self.depth = depth
        self.kind = kind
        self.ring = ring_
        self.matrix = matrix
        self.stage = stage
        self.target = target
        self.composed = composed
        self.rewrite = rewrite
        self.reduction = reduction
        self.exceptional_divisors = list(exceptional)
        self.units = list(units)
        self.relations = list(relations)
        self.orbit_size = orbit_size
        self.transcript = []
        self.terminal_reason = None
        self.strict_ideal = None
        self.verdicts = []
        self.children = []

    @property
    def size(self):
        return self.matrix.size if self.matrix is not None else 0

    @property
    def matrix_kind_and_size(self):
        return (self.kind, self.size)

    @property
    def residual(self):
        """Minor size still to be resolved, measured on the current matrix."""
        return self.target - self.stage

    @property
    def chart(self):
        return self.reduction.chart if self.reduction is not None else None

    @property
    def exceptional_names(self):
        return [name for name, _ in self.exceptional_divisors]

    def matrix_variable_names(self):
        return [] if self.matrix is None else list(self.matrix.variables())

    def is_leaf(self):
        return self.terminal_reason is not None

    def to_json(self):
        return {
            "id": self.node_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "kind": self.kind,
            "size": self.size,
            "stage": self.stage,
            "target": self.target,
            "orbit_size": self.orbit_size,
            "chart": None if self.chart is None else self.chart.to_json(),
            "substitution": self.composed.to_json(),
            "rewrite": None if self.rewrite is None else self.rewrite.to_json(),
            "transcript": list(self.transcript),
            "units": [u.format() for u in self.units],
            "relations": [g.format() for g in self.relations],
            "exceptional": [[name, mult] for name, mult in self.exceptional_divisors],
            "matrix": None if self.matrix is None else self.matrix.to_json(),
            "terminal": self.terminal_reason,
            "strict_ideal": None
            if self.strict_ideal is None
            else [g.format() for g in self.strict_ideal.gens],
            "verdicts": self.verdicts,
        }

    def __repr__(self):
        state = self.terminal_reason or "interior"
        return (
            f"<node {self.node_id}: {self.kind} {self.size}x{self.size}, "
            f"stage {self.stage}/{self.target}, {state}>"
        )


class ResolutionReport:
    """The chart tree of one resolution run plus its verification verdicts."""

    def __init__(self, input_desc, nodes, root_id="root", stats=None,
                 report_verdicts=(), embedded=None):
        self.input = input_desc
        self.nodes = list(nodes)
        self.root_id = root_id
        self.stats = stats if stats is not None else {}
        self.report_verdicts = list(report_verdicts)
        self.embedded = embedded
        self._by_id = {n.node_id: n for n in self.nodes}

    def node(self, node_id):
        return self._by_id[node_id]

    def leaves(self):
        return [n for n in self.nodes if n.terminal_reason is not None]

    def all_passed(self):
        """Every recorded verdict (node-level, report-level, leaves) passed."""
        node_ok = all(v["pass"] for n in self.nodes for v in n.verdicts)
        report_ok = all(v["pass"] for v in self.report_verdicts)
        embedded_ok = self.embedded is None or self.embedded["pass"]
        return node_ok and report_ok and embedded_ok

    def to_json(self):
        out = {
            "input": dict(self.input),
            "root": self.root_id,
            "nodes": [n.to_json() for n in self.nodes],
            "report_verdicts": self.report_verdicts,
            "stats": dict(self.stats),
        }
        if self.embedded is not None:
            out["embedded_resolution"] = self.embedded
        return out

    def __repr__(self):
        return (
            f"<resolution {self.input}: {len(self.nodes)} nodes, "
            f"{len(self.leaves())} leaves>"
        )


# --------------------------------------------------------------------------
# chart reductions


def _entry_name(M, i, j):
    return M.entry(i, j).variables()[0]


def _chart_reduction(node, chart_type, k, l):
    """Shared chart work: blow up at the matrix variables, divide out the
    exceptional once from every entry (the primed matrix), and form the
    reduced (formula) matrix, its entries indexed by the surviving
    rows/columns relabeled to 1..n.

    Both matrices are built from their triangles (``matrices.triangle``).
    One pass over the reduced triangle writes the y-formulas of the module
    docstring as correction terms: for each entry (a, b), with i, j the
    surviving rows remaining[a], remaining[b], a pair (P, Q) such that
    y_ab = eps*(x'_ij - Q) - P off-diagonally and y_ab = x'_ij - P (Q None)
    in skew and diagonal charts.  The off-diagonal row factors are
    A_i = x'_ki - x'_kk*x'_li (None in other charts)."""
    M = node.matrix
    k0, l0 = k - 1, l - 1
    chart = make_chart(Center(node.ring, M.variables()), _entry_name(M, k0, l0))
    T = chart.target
    strict = {(i, j): strict_transform_poly(M.rows[i][j], chart)[1]
              for i, j in triangle(M.size, M.kind) if not M.rows[i][j].is_zero()}
    primed_matrix = GenericMatrix.from_triangle(T, M.size, strict, M.kind)
    Mp = primed_matrix.rows
    remaining = [i for i in range(M.size) if i not in (k0, l0)]
    n = len(remaining)
    eps = A = None
    if chart_type == "offdiag":
        eps = T.one() - Mp[k0][k0] * Mp[l0][l0]
        A = [Mp[k0][i] - Mp[k0][k0] * Mp[l0][i] for i in remaining]
        B = [Mp[l0][j] - Mp[l0][l0] * Mp[k0][j] for j in remaining]
    corrections, formulas = {}, {}
    for a, b in triangle(n, M.kind):
        i, j = remaining[a], remaining[b]
        if chart_type == "skew":
            P, Q = Mp[l0][j] * Mp[k0][i] - Mp[k0][j] * Mp[l0][i], None
        elif chart_type == "diag":
            P, Q = Mp[k0][i] * Mp[k0][j], None
        else:
            P, Q = A[a] * B[b], Mp[l0][i] * Mp[k0][j]
        corrections[a, b] = (P, Q)
        formulas[a, b] = Mp[i][j] - P if Q is None else eps * (Mp[i][j] - Q) - P
    return ChartReduction(
        chart=chart,
        chart_type=chart_type,
        position=(k, l),
        ring_=T,
        matrix=primed_matrix,
        formula_matrix=GenericMatrix.from_triangle(T, n, formulas, M.kind) if n else None,
        corrections=corrections,
        row_factors=A,
        eps=eps,
        remaining=remaining,
    )


def _transcript(red):
    """Human-readable row/column eliminations bringing the primed matrix to
    block form: pivot block plus the reduced matrix.  Documentation only —
    verification goes through Groebner identities, not replay."""
    k, l = red.position
    Mp = red.matrix.rows
    k0, l0 = k - 1, l - 1
    lines = []
    if red.chart_type == "skew":
        for i in red.remaining:
            lines.append(
                f"R{i + 1} <- R{i + 1} - ({Mp[k0][i].format()})*R{l}"
                f" + ({Mp[l0][i].format()})*R{k}"
            )
        lines.append("column operations mirror the row operations (skew symmetry)")
        lines.append(
            f"Laplace expansion along rows/columns {{{k},{l}}}:"
            " pivot block [[0, 1], [-1, 0]] has determinant 1"
        )
    elif red.chart_type == "diag":
        for i in red.remaining:
            lines.append(f"R{i + 1} <- R{i + 1} - ({Mp[k0][i].format()})*R{k}")
        lines.append("column operations mirror the row operations (symmetry)")
        lines.append(f"Laplace expansion along row/column {k}: pivot entry 1")
    else:
        lines.append(f"R{l} <- R{l} - ({Mp[l0][l0].format()})*R{k}")
        for i in red.remaining:
            lines.append(f"R{i + 1} <- R{i + 1} - ({Mp[l0][i].format()})*R{k}")
        for i, A_i in zip(red.remaining, red.row_factors):
            lines.append(
                f"R{i + 1} <- ({red.eps.format()})*R{i + 1} - ({A_i.format()})*R{l}"
            )
        lines.append("column operations mirror the row operations (symmetry)")
        lines.append(
            f"Laplace expansion along rows/columns {{{k},{l}}}: pivot block"
            f" [[{Mp[k0][k0].format()}, 1], [{red.eps.format()}, 0]]"
        )
    return lines


def _build_child(node, red, orbit_size):
    """Assemble the child node for one chart reduction.  One map, ``step``,
    leads from the parent ring to the child's: the chart map, then the
    rewrite to fresh generic coordinates when any remain.  The composed
    map, units and relations pass through it once."""
    k, l = red.position
    chart = red.chart
    T = red.ring
    depth = node.depth + 1
    exceptional = [(primed(name), mult) for name, mult in node.exceptional_divisors]
    exceptional.append((chart.exceptional_var, node.residual))
    n = len(red.remaining)

    if n == 0:
        # Off-diagonal chart of a 2x2 symmetric matrix: nothing remains to
        # reduce; the child is terminal with the chart ring as its own.
        U, child_matrix, rewrite, step = T, None, None, chart.substitution
        units, relations = [red.eps], []
    else:
        # Each upper-triangle entry (a, b) pairs a fresh variable with the
        # core primed variable x'_ij its y-formula solves for.
        prefix, s_name = f"y{depth}", f"s{depth}"
        pairs = [
            (f"{prefix}_{a + 1}_{b + 1}",
             _entry_name(red.matrix, red.remaining[a], red.remaining[b]))
            for a, b in red.corrections
        ]
        core = {x for _, x in pairs}
        extra = [] if red.eps is None else [s_name]
        U = Ring([y for y, _ in pairs] + [nm for nm in T.names if nm not in core] + extra,
                 T.field)
        images = {}
        for (y, x), (P, Q) in zip(pairs, red.corrections.values()):
            image = U.var(y) + embed(P, U)
            if Q is not None:
                image = U.var(s_name) * image + embed(Q, U)
            images[x] = image
        rewrite = Substitution(T, U, images)
        step = chart.substitution.then(rewrite)

        maker = generic_skew if node.kind == "skew" else generic_sym
        child_matrix = maker(n, T.field, prefix=prefix, ring_=U)
        units, relations = [], []
        if red.eps is not None:
            eps_u = embed(red.eps, U)
            units.append(eps_u)
            relations.append(U.var(s_name) * eps_u - U.one())

    child = ChartNode(
        node_id=f"{node.node_id}/X_{k}_{l}",
        parent_id=node.node_id,
        depth=depth,
        kind=node.kind,
        ring_=U,
        matrix=child_matrix,
        stage=node.stage + node.size - n,
        target=node.target,
        composed=node.composed.then(step),
        rewrite=rewrite,
        reduction=red,
        exceptional=exceptional,
        units=[step(u) for u in node.units] + units,
        relations=[step(g) for g in node.relations] + relations,
        orbit_size=orbit_size,
    )
    child.transcript = _transcript(red)
    return child


# chart type -> (matrix kind, smallest size).  A chart drops the size by its
# pivot count, 2 or 1 in a diagonal chart, and minor level j of the parent
# becomes level j - drop of the reduced matrix.  The next center, the
# reduced matrix's variables, is the radical of its 2-minors when skew (a
# skew matrix has even rank) and its 1-minors when symmetric, so it sits at
# parent level drop + 2 or drop + 1 (see ``_child_verdicts``).
_CHARTS = {"skew": ("skew", 3), "diag": ("sym", 2), "offdiag": ("sym", 2)}


def _chart_step(node, chart_type, position):
    """Check a chart request against ``_CHARTS`` and the node, then run the
    chart step: a pair of ints (k, l) with 1 <= k < l <= size, or k == l in
    a diagonal chart."""
    kind, smallest = _CHARTS[chart_type]
    if not isinstance(node, ChartNode):
        raise BadParameters(f"a chart reduction needs a ChartNode, got {type(node).__name__}")
    if node.matrix is None or node.size < smallest:
        raise SizeTooSmall(
            f"chart reduction needs a {kind} matrix of size >= {smallest}, "
            f"got size {node.size}"
        )
    if node.matrix.kind != kind:
        raise BadParameters(f"expected a {kind} node, got {node.matrix.kind}")
    try:
        k, l = position
    except (TypeError, ValueError):
        raise BadParameters(f"a chart position is a pair (k, l), got {position!r}") from None
    m, diagonal = node.size, chart_type == "diag"
    if type(k) is not int or type(l) is not int or not 1 <= k <= l <= m or (k == l) != diagonal:
        need = "1 <= k == l" if diagonal else "1 <= k < l"
        raise BadParameters(f"{chart_type} chart position {position!r} needs ints {need} <= {m}")
    return _chart_reduction(node, chart_type, k, l)


def reduce_skew_chart(node, position, orbit_size=1):
    """Child of a skew node in the chart at (k, l), k < l: size drops by 2,
    the remaining rows relabel to 1..m-2."""
    return _build_child(node, _chart_step(node, "skew", position), orbit_size)


def reduce_sym_diag_chart(node, position, orbit_size=1):
    """Child of a symmetric node in the diagonal chart at (k, k): size
    drops by 1."""
    return _build_child(node, _chart_step(node, "diag", position), orbit_size)


def reduce_sym_offdiag_chart(node, position, orbit_size=1):
    """Child of a symmetric node in the off-diagonal chart at (k, l), k < l:
    size drops by 2 and eps = 1 - x'_kk*x'_ll joins the unit list.  For a
    2x2 node nothing remains to reduce and the child is terminal."""
    return _build_child(node, _chart_step(node, "offdiag", position), orbit_size)


# --------------------------------------------------------------------------
# verdicts


def _basis_witness(ideal, include_bases):
    """The size of the ideal's reduced basis, and with include_bases the
    basis itself; only then is the cached basis decoded."""
    if not include_bases:
        return {"basis_size": basis_size(ideal)}
    polys = groebner_of(ideal).polys
    return {"basis_size": len(polys), "basis": [p.format() for p in polys]}


def _strict_minors(red, j, primed):
    """The strict transform of the j-minors of the parent matrix A. Each
    entry of A is a center variable, so a j-minor's total transform is e^j
    times the same minor of the primed matrix A'. While no entry of A'
    holds e, those minors, read from its table ``primed``, are the strict
    transforms, generator for generator; an A' that holds e (from entries
    of A not homogeneous in the center variables) is refused."""
    if red.chart.exceptional_var in red.matrix.variables():
        raise NonHomogeneousGenerators("the primed matrix holds the exceptional variable")
    return primed.ideal(j)


def _tables(red):
    """A minor table of each matrix of a chart reduction, the primed A' and
    the formula matrix B (None when B is), for all the chart's verdicts."""
    return MinorCache(red.matrix), None if red.formula_matrix is None else MinorCache(red.formula_matrix)


def _center_identity_verdict(parent_matrix, red, tables, j, roles, include_bases):
    """The contraction identity at minor level j: the strict transform of
    the j-minors of the parent matrix equals the (j - drop)-minors of the
    reduced matrix (both saturated by eps in off-diagonal charts). tables,
    the reduction's (_tables), give both sides."""
    jr = j - (parent_matrix.size - len(red.remaining))
    primed, formula = tables
    lhs = _strict_minors(red, j, primed)
    T = red.ring
    if jr <= 0:
        rhs = Ideal(T, [T.one()])
    elif formula is None or jr > red.formula_matrix.size:
        rhs = Ideal(T, [])
    else:
        rhs = formula.ideal(jr)
    inputs = {
        "chart": f"X_{red.position[0]}_{red.position[1]}",
        "j": j,
        "roles": list(roles),
        "lhs": f"strict transform of the {j}-minors",
        "rhs": f"{jr}-minors of the reduced matrix",
    }
    if red.eps is not None:
        inputs["saturated_by"] = red.eps.format()
        rhs = saturate(rhs, red.eps)
    # Off-diagonal charts test the unsaturated lhs: sat(lhs) = rhs is the
    # claim (see verify.decide_equal). lhs becomes the ideal whose basis
    # witnesses the verdict.
    passed, lhs = decide_equal(lhs, rhs, red.eps)
    witness = {"lhs": _basis_witness(lhs, include_bases)}
    if not passed:
        witness["rhs"] = _basis_witness(rhs, include_bases)
    return verdict("center_identity", inputs, passed, witness)


def _det_identity_verdict(parent, red, tables):
    """Exact polynomial identity tying the primed determinant to the reduced
    one: det' = det(reduced) for skew and diagonal charts, and
    eps^(m-3) * det' = -det(reduced) for off-diagonal charts (m >= 3; the
    2x2 case degenerates to det' = -eps). parent and tables (_tables) are
    the minor tables of the parent and of red; each determinant is read
    through the basis cache (verify.determinant_of), from its table on a miss."""
    m = parent.M.size
    primed, formula = tables
    det_primed = determinant_of(red.matrix, table=primed)
    inputs = {"chart": f"X_{red.position[0]}_{red.position[1]}", "size": m}
    if red.eps is not None:
        if formula is None:
            inputs["identity"] = "det' = -eps"
            passed = (det_primed + red.eps).is_zero()
        else:
            inputs["identity"] = f"eps^{m - 3} * det' = -det(reduced)"
            lhs = det_primed * red.eps ** (m - 3)
            passed = (lhs + determinant_of(red.formula_matrix, table=formula)).is_zero()
    else:
        inputs["identity"] = "det' = det(reduced)"
        passed = det_primed == determinant_of(red.formula_matrix, table=formula)
    # Cross-check against the strict transform of the parent determinant:
    # it must factor as exceptional^m times the primed determinant.
    det_parent = determinant_of(parent.M, table=parent)
    if not det_parent.is_zero():
        power, strict = strict_transform_poly(det_parent, red.chart)
        passed = passed and power == m and strict == det_primed
        inputs["exceptional_power"] = m
    return verdict("det_identity", inputs, passed)


def _rewrite_consistency_verdict(child):
    """The rewrite sends each y-formula to the matching fresh variable —
    exactly in skew/diagonal charts, modulo s*eps = 1 off-diagonally."""
    red = child.reduction
    # the relations' cached basis, read at the first nonzero difference
    basis = None
    failures = []
    for a, b in red.corrections:
        diff = child.rewrite(red.formula_matrix.entry(a, b)) - child.matrix.entry(a, b)
        if not diff:
            continue
        if basis is None and child.relations:
            basis = groebner_of(Ideal(child.ring, child.relations))
        if basis is None or not basis.contains(diff):
            failures.append(f"({a + 1},{b + 1})")
    n = red.formula_matrix.size
    return verdict(
        "rewrite_consistency",
        {"chart": f"X_{red.position[0]}_{red.position[1]}", "entries": n * (n + 1) // 2},
        not failures,
        witness=None if not failures else {"entries": failures},
    )


def _center_strict_unit_verdict(node, red):
    """The strict transform of the center itself is the unit ideal."""
    gens = [node.ring.var(nm) for nm in red.chart.center.names]
    st = strict_transform_ideal(Ideal(node.ring, gens), red.chart)
    return verdict(
        "center_strict_transform_empty",
        {"chart": f"X_{red.position[0]}_{red.position[1]}"},
        st.contains_unit_generator(),
    )


def _radical_identification_verdict(matrix, include_bases):
    """sqrt(I_2) = (variables) for a generic skew matrix: the square of each
    variable is a 2-minor, and every 2-minor lies in the variable ideal.
    This certifies both the next center and the reduced leaf transform."""
    ring_ = matrix.ring
    names = matrix.variables()
    I2 = minors_ideal(matrix, 2)
    var_ideal = Ideal(ring_, [ring_.var(nm) for nm in names])
    # one read of each cached basis serves all its tests
    square_checks = dict(zip(names, _radical_members(I2, [ring_.var(nm) for nm in names])))
    containment = all(map(groebner_of(var_ideal).contains, I2.gens))
    passed = all(square_checks.values()) and containment
    witness = {"minors_in_variable_ideal": containment}
    if include_bases or not passed:
        witness["square_in_minor_ideal"] = square_checks
    return verdict(
        "center_radical_identification",
        {"size": matrix.size, "variables": len(names)},
        passed,
        witness,
    )


def _terminal_reason(kind, residual):
    if residual <= 0:
        return "empty"
    if residual == 1 or (kind == "skew" and residual == 2):
        return "regular"
    return None


def _child_verdicts(node, parent, child, include_bases):
    """The chart verdicts of one child of node, whose matrix's minor table
    is parent."""
    red, tables = child.reduction, _tables(child.reduction)
    out = [
        _center_strict_unit_verdict(node, red),
        _det_identity_verdict(parent, red, tables),
    ]
    if child.rewrite is not None:
        out.append(_rewrite_consistency_verdict(child))
    levels = {node.residual: ["target"]}
    if red.chart_type == "offdiag":
        levels.setdefault(2, []).append("skipped_center")
    if _terminal_reason(child.kind, child.residual) is None:
        drop = node.size - child.size
        levels.setdefault(drop + (2 if child.kind == "skew" else 1), []).append("next_center")
    for j in sorted(levels):
        out.append(_center_identity_verdict(node.matrix, red, tables, j, levels[j], include_bases))
    if child.kind == "skew" and child.matrix is not None:
        out.append(_radical_identification_verdict(child.matrix, include_bases))
    return out


# --------------------------------------------------------------------------
# drivers


def _chart_specs(kind, size, all_charts):
    """Charts to expand at a node, as (chart type, position, orbit size):
    every chart literally, or one representative per symmetry orbit
    weighted by the orbit size."""
    pairs = [(i + 1, j + 1) for i, j in triangle(size, "skew")]
    if kind == "skew":
        if all_charts:
            return [("skew", p, 1) for p in pairs]
        return [("skew", (1, 2), len(pairs))]
    if all_charts:
        return [("diag", (k, k), 1) for k in range(1, size + 1)] + [
            ("offdiag", p, 1) for p in pairs
        ]
    specs = [("diag", (1, 1), size)]
    if pairs:
        specs.append(("offdiag", (1, 2), len(pairs)))
    return specs


_REDUCERS = {
    "skew": reduce_skew_chart,
    "diag": reduce_sym_diag_chart,
    "offdiag": reduce_sym_offdiag_chart,
}


def _finalize_leaf(node, parent):
    """Pin the leaf's strict transform: the variable ideal for regular
    leaves (exact for symmetric targets, the certified radical for skew),
    the honestly transported minor transform for empty leaves."""
    if node.terminal_reason == "regular":
        gens = [node.ring.var(nm) for nm in node.matrix_variable_names()]
        node.strict_ideal = Ideal(node.ring, gens)
        return
    st = _strict_minors(node.reduction, parent.residual, MinorCache(node.reduction.matrix))
    # the generators are computed here, in the build; a leaf with no rewrite
    # keeps the ideal itself, so check_leaf finds the saturation the certify
    # pass cached under the same key
    gens = st.gens
    node.strict_ideal = st if node.rewrite is None else Ideal(node.ring, [node.rewrite(g) for g in gens])


def _root(M, target):
    """The root node: the generic matrix M in its own ring, at stage 0."""
    return ChartNode(
        node_id="root",
        parent_id=None,
        depth=0,
        kind=M.kind,
        ring_=M.ring,
        matrix=M,
        stage=0,
        target=target,
        composed=Substitution(M.ring, M.ring, {}),
    )


def _certify(report, include_bases):
    """Append every verdict of a built tree, walking its nodes in tree
    order: each child's chart verdicts, the radical of the 2-minors at a
    skew root that is a leaf, and with ``include_bases`` (check "full") the
    embedded-resolution verdict of each leaf. A table of a node's minors
    lives while its children are certified, and serves all of them."""
    for node in report.nodes:
        parent = MinorCache(node.matrix) if node.children else None
        for child_id in node.children:
            child = report.node(child_id)
            child.verdicts.extend(_child_verdicts(node, parent, child, include_bases))
        if node.reduction is None and node.kind == "skew" and node.is_leaf():
            node.verdicts.append(_radical_identification_verdict(node.matrix, include_bases))
    if include_bases:
        report.embedded = check_embedded_resolution(report)
        for leaf_verdict in report.embedded["leaves"]:
            report.node(leaf_verdict["inputs"]["node"]).verdicts.append(leaf_verdict)


def _resolve(kind, m, target, field, all_charts, check, input_desc):
    if check not in ("none", "identities", "full"):
        raise BadParameters(f"unknown check level {check!r}")
    t0 = time.monotonic()
    maker = generic_skew if kind == "skew" else generic_sym
    nodes = []
    queue = [(None, _root(maker(m, field), target))]
    input_desc["field"] = field_name(field)
    while queue:
        parent, node = queue.pop(0)
        nodes.append(node)
        node.terminal_reason = _terminal_reason(kind, node.residual)
        if node.terminal_reason is not None:
            _finalize_leaf(node, parent)
            continue
        if node.matrix is None:
            raise BadParameters(
                "unresolved terminal node: the target exceeds what charts can reduce"
            )
        for chart_type, position, orbit in _chart_specs(kind, node.size, all_charts):
            child = _REDUCERS[chart_type](node, position, orbit_size=orbit)
            node.children.append(child.node_id)
            queue.append((node, child))

    max_depth = max(n.depth for n in nodes)
    depth_bound = (target // 2 if kind == "skew" else target) - 1
    report_verdicts = [
        verdict(
            "depth_bound",
            {"max_depth": max_depth, "bound": depth_bound},
            max_depth <= depth_bound,
        )
    ]
    stats = {
        "nodes": len(nodes),
        "leaves": sum(1 for n in nodes if n.terminal_reason is not None),
        "max_depth": max_depth,
    }
    report = ResolutionReport(
        input_desc, nodes, stats=stats, report_verdicts=report_verdicts
    )
    tv = time.monotonic()
    if check != "none":
        _certify(report, include_bases=check == "full")
    done = time.monotonic()
    stats["seconds_total"] = round(done - t0, 3)
    stats["seconds_verify"] = round(done - tv, 3)
    return report


def resolve_skew(m, l, field=QQ, *, all_charts=False, check="full"):
    """Resolve the reduced 2l-minor locus of a generic skew m-matrix by
    blowing up matrix-variable centers; l-1 blow-ups, size -2 per chart."""
    if type(m) is not int or type(l) is not int or m < 1 or l < 1:
        raise BadParameters("resolve_skew needs integers m >= 1, l >= 1")
    if 2 * l > m:
        raise BadParameters(f"need 2l <= m, got l={l}, m={m}")
    return _resolve("skew", m, 2 * l, field, all_charts, check, {"kind": "skew", "m": m, "l": l})


def resolve_sym(m, r, field=QQ, *, all_charts=False, check="full"):
    """Resolve the r-minor locus of a generic symmetric m-matrix by blowing
    up matrix-variable centers; at most r-1 blow-ups, size -1 or -2 per
    chart."""
    if type(m) is not int or type(r) is not int or m < 1 or r < 1:
        raise BadParameters("resolve_sym needs integers m >= 1, r >= 1")
    if r > m:
        raise BadParameters(f"need r <= m, got r={r}, m={m}")
    return _resolve("sym", m, r, field, all_charts, check, {"kind": "sym", "m": m, "r": r})


def chart_identity(kind, m, r, chart_type=None, field=QQ, position=None,
                   include_bases=False):
    """Standalone verdict for the chart contraction identity at one (m, r):
    strict transform of the r-minors vs the (r - drop)-minors of the
    reduced matrix, in one representative chart (or ``position``).

    kind "skew" uses the off-diagonal chart; kind "sym" needs chart_type
    "diag" or "offdiag" (off-diagonal identities are eps-saturated).
    """
    if type(m) is not int or type(r) is not int:
        raise BadParameters("m and r must be integers")
    if kind == "skew" and chart_type in (None, "offdiag"):
        chart_type = "skew"
    if _CHARTS.get(chart_type, (None,))[0] != kind:
        raise BadParameters(f"no chart type {chart_type!r} for kind {kind!r}")
    if not 1 <= r <= m:
        raise BadParameters(f"need 1 <= r <= m, got r={r}, m={m}")
    if position is None:
        position = (1, 1) if chart_type == "diag" else (1, 2)
    maker = generic_skew if kind == "skew" else generic_sym
    root = _root(maker(m, field), r)
    red = _chart_step(root, chart_type, position)
    result = _center_identity_verdict(root.matrix, red, _tables(red), r, ["standalone"], include_bases)
    result["inputs"].update(
        {"kind": kind, "m": m, "r": r, "field": field_name(field)}
    )
    return result
