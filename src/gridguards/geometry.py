"""Exact rational planar primitives and predicates.

Kernel invariant: coordinates are ``fractions.Fraction`` at every API
boundary and no float decides anything: a float serves only as a monotone
sort key, an integer ratio correctly rounded, and keys that tie are
sorted again on integers.  The predicate ``orient`` decides on integers
obtained by clearing the denominators of the three points involved; it
serves the bound checks' cone tests and the test oracles, and a solve or
a coverage check never calls it.  There is no rational line kernel: the
bad regions are clipped as integer half-planes on homogeneous triples
(``badregions``), and the limited-blocking check meets its two lines as
a cross product of homogeneous triples.  The polygon's own vertices
never pass through ``orient``: ``polygon.load_polygon`` stores them as
integers once and validates the polygon on them; its triangulation,
extension lines and general-position check work on those integers, and
its one even-odd membership loop, ``polygon._in_int_cycle``, scales a
cycle by the query point's denominator as it reads it, for P and for
every visibility polygon alike.  The other
hot code works in integer frames of its own: the two overlay
constructions, ``visibility.visibility_polygon`` and
``arrangement.build_arrangement``, keep constructed points as reduced
homogeneous triples, and order directions counterclockwise by the one
key ``direction_key``, with no comparator.  A visibility polygon keeps
its triples as its result and builds no boundary Point: its membership
test, its visible edge pieces and the overlay read the triples.  An
arrangement keeps its nodes and face representatives as triples and its
faces as cycles of node indices; they become Points only when read.
Scaling every coordinate by the same positive integer keeps every sign,
order and parameter ratio, so the integer decisions are exact; only a
returned point is built as a Fraction again.
Distances are kept squared so that no square root is ever taken; angle
comparisons use cross/dot ratios for the same reason.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Iterable, List, Sequence, Tuple, Union

Scalar = Fraction
CoordLike = Union[int, str, Fraction]
Triple = Tuple[int, int, int]   # a homogeneous point (X, Y, W), W > 0
IntSegment = Tuple[Tuple[int, int], Tuple[int, int]]   # integer end points


class GeometryError(Exception):
    """Base class for geometric construction errors."""


class Point:
    """Immutable point with exact Fraction coordinates.

    Only arguments that are not already Fractions are coerced, so the
    results of Fraction arithmetic are stored as they are.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: CoordLike, y: CoordLike):
        _set_x(self, x if type(x) is Fraction else Fraction(x))
        _set_y(self, y if type(y) is Fraction else Fraction(y))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Point, (self.x, self.y))

    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def scaled(self, t: Scalar) -> "Point":
        return Point(self.x * t, self.y * t)

    def key(self) -> Tuple[Fraction, Fraction]:
        """Lexicographic sort key (x first, then y)."""
        return (self.x, self.y)

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


# slot setters that bypass the immutability guard in __setattr__
_set_x = Point.x.__set__
_set_y = Point.y.__set__


def pt(x: CoordLike, y: CoordLike) -> Point:
    """Build a Point, coercing ints, strings like '1/3', or Fractions."""
    return Point(x, y)


def cleared(*cs: Fraction) -> Tuple[int, List[int]]:
    """A common denominator D > 0 of the Fractions, and each of them times D.

    Every coordinate of a configuration scaled by the same D keeps its
    signs, orders and parameter ratios, so predicates decide on the
    integers.
    """
    ratios = [c.as_integer_ratio() for c in cs]
    d = lcm(*[q for _, q in ratios])
    if d == 1:
        return 1, [n for n, _ in ratios]
    return d, [n * (d // q) for n, q in ratios]


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p): +1 left turn, -1 right, 0 collinear."""
    _, (px, py, qx, qy, rx, ry) = cleared(p.x, p.y, q.x, q.y, r.x, r.y)
    c = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (c > 0) - (c < 0)


def dist_sq(p: Point, q: Point) -> Scalar:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise GeometryError("degenerate segment: endpoints coincide")


def direction_key(x: int, y: int) -> Tuple[int, float]:
    """A monotone key for the counterclockwise angle of (x, y) != (0, 0)
    from (1, 0): the half, 0 for angles in [0, pi) and 1 for [pi, 2 pi),
    then -x / y, which grows with the angle inside a half; the axis that
    opens a half comes first, at -inf.  Python rounds int / int correctly,
    so the float never decreases as the ratio grows; one that overflows
    becomes the infinity of its sign.  Directions whose keys tie are
    ordered by ``direction_tie_keys``."""
    if y:
        try:
            f = -x / y
        except OverflowError:
            f = inf if (x < 0) == (y > 0) else -inf
        return (0 if y > 0 else 1, f)
    return (0, -inf) if x > 0 else (1, -inf)


def direction_tie_keys(dirs: Sequence[Tuple[int, int]]
                       ) -> List[Tuple[int, int]]:
    """Exact integer keys in counterclockwise order for directions whose
    ``direction_key`` ties, so all lie in one half: -x / y over the lcm q
    of the |y|, and the axis, with y = 0, first."""
    q = lcm(*[y for _, y in dirs if y])
    return [(1, -x * (q // y)) if y else (0, 0) for x, y in dirs]


def sort_directions_ccw(dirs: Iterable[Tuple[int, int]]) -> list:
    """Sort primitive integer direction vectors counterclockwise from (1, 0).

    The float ``direction_key`` sorts, and a run of tied keys, which only
    directions closer than float resolution make, is sorted again exactly.
    """
    keyed = sorted([(direction_key(x, y), (x, y)) for x, y in set(dirs)])
    out = [d for _, d in keyed]
    sort_ties(out, [k for k, _ in keyed], direction_tie_keys)
    return out


def sort_ties(items: list, keys: Sequence,
              exact: Callable[[list], list]) -> None:
    """Sort again, in place, each run of ``items`` whose ``keys`` tie, by
    the distinct keys ``exact`` gives its items."""
    if len(set(keys)) == len(keys):
        return
    lo = 0
    for k in range(1, len(keys) + 1):
        if k == len(keys) or keys[k] != keys[lo]:
            if k - lo > 1:
                run = items[lo:k]
                items[lo:k] = [x for _, x in sorted(zip(exact(run), run))]
            lo = k
