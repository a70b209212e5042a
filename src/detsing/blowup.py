"""Blow-ups of coordinate-subspace centers, one affine chart at a time.

A center is the vanishing locus of a set of variables.  The chart at one of
those variables lives in a fresh ring whose variables carry a ``p`` suffix;
the chart variable maps to the exceptional variable e, every other center
variable t maps to e*tp, and the remaining variables are renamed untouched.
Strict transforms divide out the exceptional variable as often as possible.
"""

from .errors import (
    BadParameters,
    NonHomogeneousGenerators,
    NotInCenter,
    ZeroPolynomial,
)
from .matrices import Ideal, require_ideal
from .rings import Polynomial, Ring, Substitution, as_tuple, require_polynomials, require_ring


class Center:
    """Coordinate subspace V(t_i : i in names) inside Spec of the ring."""

    __slots__ = ("ring", "names")

    def __init__(self, ring_: Ring, names):
        require_ring(ring_)
        ordered = list(dict.fromkeys(as_tuple(names, "the center's names")))
        if not ordered:
            raise BadParameters("a blow-up center needs at least one variable")
        for n in ordered:
            ring_.var(n)  # raises UnknownVariable
        self.ring = ring_
        # store in ring order so chart enumeration is deterministic
        self.names = tuple(sorted(ordered, key=ring_.names.index))

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

    The substitution sends the source ring into the chart's fresh target
    ring; ``exceptional_var`` cuts out the exceptional divisor there.
    """

    __slots__ = ("center", "chart_var", "substitution", "exceptional_var")

    def __init__(self, center, chart_var, substitution, exceptional_var):
        self.center = center
        self.chart_var = chart_var
        self.substitution = substitution
        self.exceptional_var = exceptional_var

    @property
    def source(self) -> Ring:
        return self.substitution.source

    @property
    def target(self) -> Ring:
        return self.substitution.target

    def __repr__(self):
        return f"ChartMap({self.chart_var}-chart of {self.center!r})"

    def to_json(self):
        return {
            "center_vars": list(self.center.names),
            "chart_var": self.chart_var,
            "substitution": self.substitution.to_json(),
            "exceptional_var": self.exceptional_var,
        }


def primed(name: str) -> str:
    """The name a variable takes on in every chart ring."""
    return name + "p"


def _require_center(value) -> Center:
    if not isinstance(value, Center):
        raise BadParameters(f"expected a Center, got {type(value).__name__}")
    return value


def _require_chart(value) -> ChartMap:
    if not isinstance(value, ChartMap):
        raise BadParameters(f"expected a ChartMap, got {type(value).__name__}")
    return value


def make_chart(center: Center, chart_var: str) -> ChartMap:
    """Chart of the blow-up of ``center`` where ``chart_var`` is the unit."""
    if chart_var not in _require_center(center):
        raise NotInCenter(f"{chart_var} is not a center variable")
    src = center.ring
    target = Ring([primed(n) for n in src.names], src.field)
    e = target.var(primed(chart_var))
    images = {}
    for n in src.names:
        if n == chart_var:
            images[n] = e
        elif n in center:
            images[n] = e * target.var(primed(n))
        else:
            images[n] = target.var(primed(n))
    sub = Substitution(src, target, images)
    return ChartMap(center, chart_var, sub, primed(chart_var))


def charts(center: Center):
    """All charts of the blow-up, in center-variable order."""
    return [make_chart(center, n) for n in _require_center(center).names]


def total_transform(f: Polynomial, c: ChartMap) -> Polynomial:
    require_polynomials(_require_chart(c).source, [f])
    return c.substitution(f)


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
    _require_chart(c)
    gens = [g for g in I.gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous(in_vars=c.center.names):
            raise NonHomogeneousGenerators(
                "strict transforms generate the transformed ideal only for "
                "generators homogeneous in the center variables"
            )
    parts = [strict_transform_poly(g, c)[1] for g in gens]
    return Ideal(c.target, parts)
