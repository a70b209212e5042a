"""Blow-ups of coordinate-subspace centers, one affine chart at a time.

A center is the vanishing locus of a set of variables.  Its charts, one at
each of them, share one ring, the center's ``chart_ring``, whose variables
carry a ``p`` suffix; the chart variable maps to the exceptional variable e,
every other center variable t maps to e*tp, and the remaining variables are
renamed untouched. So a monomial keeps its exponent vector, except at the
chart variable, whose exponent becomes its degree in the center. A
``ChartMap`` is this rule alone: ``apply`` transforms by it and ``to_json``
prints its images. Strict transforms divide out the exceptional variable as
often as possible.
"""

from itertools import compress

from .errors import (
    BadParameters,
    NonHomogeneousGenerators,
    NotInCenter,
    UnknownVariable,
    ZeroPolynomial,
)
from .matrices import Ideal, require_ideal
from .rings import Polynomial, Ring, as_tuple, require_polynomials, require_ring


class Center:
    """Coordinate subspace V(t_i : i in names) inside Spec of the ring; all
    its charts map into ``chart_ring``, the ring of primed names."""

    __slots__ = ("ring", "names", "chart_ring")

    def __init__(self, ring_: Ring, names):
        require_ring(ring_)
        names = as_tuple(names, "the center's names")
        if not names:
            raise BadParameters("a blow-up center needs at least one variable")
        for n in names:
            if not isinstance(n, str):
                raise BadParameters(f"a center variable is named by a string, not {n!r}")
            if n not in ring_.index:
                raise UnknownVariable(f"{n!r} is not a variable of {ring_!r}")
        self.ring = ring_
        # store in ring order so chart enumeration is deterministic
        self.names = tuple(sorted(set(names), key=ring_.index.get))
        self.chart_ring = Ring([primed(n) for n in ring_.names], ring_.field)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Center)
            and self.ring == other.ring
            and self.names == other.names
        )

    def __repr__(self):
        return f"Center({', '.join(self.names)})"

    def to_json(self):
        return {"ring": self.ring.to_json(), "vars": list(self.names)}


class ChartMap:
    """One affine chart of the blow-up along a center.

    The exponent rule of the module docstring sends the source ring into
    the center's chart ring of primed names; ``exceptional_var``, the
    chart variable's primed name, cuts out the exceptional divisor there.
    """

    __slots__ = ("center", "chart_var", "exceptional_var", "source", "target", "_index", "_mask")

    def __init__(self, center, chart_var):
        self.center = center
        self.chart_var = chart_var
        self.exceptional_var = primed(chart_var)
        self.source = src = center.ring
        self.target = center.chart_ring
        # the chart variable's position and the center's 0/1 mask, for apply
        self._index = src.index[chart_var]
        self._mask = [int(n in center) for n in src.names]

    def apply(self, f: Polynomial) -> Polynomial:
        """f's image in the chart by the exponent rule, injective on monomials."""
        if not isinstance(f, Polynomial) or f.ring is not self.source:
            require_polynomials(self.source, [f])
        i, mask = self._index, self._mask
        return Polynomial(self.target, {m[:i] + (sum(compress(m, mask)),) + m[i + 1:]: a
                                        for m, a in f.terms.items()})

    def __repr__(self):
        return f"ChartMap({self.chart_var}-chart of {self.center!r})"

    def to_json(self):
        # n's image: the primed names at n's position and, for n in the center, at the chart variable's
        names, i = self.source.names, self._index
        return {
            "center_vars": list(self.center.names),
            "chart_var": self.chart_var,
            "substitution": {n: "*".join(primed(names[k]) for k in sorted({j, i} if c else {j}))
                             for j, (n, c) in enumerate(zip(names, self._mask))},
            "exceptional_var": self.exceptional_var,
        }


def primed(name: str) -> str:
    """The name a variable takes on in every chart ring."""
    return name + "p"


def _require(value, kind):
    if not isinstance(value, kind):
        raise BadParameters(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


def make_chart(center: Center, chart_var: str) -> ChartMap:
    """Chart of the blow-up of ``center`` where ``chart_var`` is the unit."""
    if chart_var not in _require(center, Center):
        raise NotInCenter(f"{chart_var} is not a center variable")
    return ChartMap(center, chart_var)


def charts(center: Center):
    """All charts of the blow-up, in center-variable order."""
    return [make_chart(center, n) for n in _require(center, Center).names]


def total_transform(f: Polynomial, c: ChartMap) -> Polynomial:
    """f's image in the chart ring, by the chart's exponent rule (ChartMap.apply)."""
    return _require(c, ChartMap).apply(f)


def strict_transform_poly(f: Polynomial, c: ChartMap):
    """(k, f') with total transform = exceptional^k * f', k maximal.

    For f homogeneous of degree d in the center variables, k = d.
    """
    total = total_transform(f, c)
    # a chart map is injective, so only f = 0 has the total transform 0
    if total.is_zero():
        raise ZeroPolynomial("the strict transform of 0 is undefined")
    return total.factor_out(c.exceptional_var)


def strict_transform_ideal(I: Ideal, c: ChartMap) -> Ideal:
    """Ideal generated by the strict transforms of the generators.

    Sound only when every generator is homogeneous in the center
    variables; that hypothesis is enforced, not assumed — dropping it
    makes the generator-wise construction wrong (see the strict-transform
    membership tests for an explicit two-generator failure).
    """
    require_ideal(I)
    _require(c, ChartMap)
    gens = [g for g in I.gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous(in_vars=c.center.names):
            raise NonHomogeneousGenerators(
                "strict transforms generate the transformed ideal only for "
                "generators homogeneous in the center variables"
            )
    parts = [strict_transform_poly(g, c)[1] for g in gens]
    return Ideal(c.target, parts)
