"""Partition structure diagrams: non-crossing families of inscribed even
polygons on an alternating disc, and the compression bijection with
alternating non-crossing partitions of R-diagonal words.

Disc convention: a word with runs (n_0, m_0, ..., n_k, m_k) has 2(k+1) run
vertices placed on a circle in word order; even vertex indices are a*-runs,
odd ones are a-runs.  A polygon is a subset of vertices of even size >= 2
whose sorted cyclic order alternates parity; a 2-gon is a chord.

Two polygons are compatible when one fits inside a single closed gap between
cyclically consecutive vertices of the other: intersections are then shared
edges or vertices only.  A diagram is a set of pairwise compatible distinct
polygons; multiplicity of nested 2-blocks lives in labels, never in repeated
polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import noncrossing as nc
from .ring import Poly

ENUMERATION_K_BOUND = 4
QUADRANGULATION_K_BOUND = 6

Polygon = tuple[int, ...]  # sorted vertex indices


class DiagramBoundError(ValueError):
    """Diagram enumeration requested beyond the practical bound."""


def _is_alternating_polygon(vertices: Polygon, n_vertices: int) -> bool:
    if len(vertices) < 2 or len(vertices) % 2:
        return False
    if any(not (0 <= v < n_vertices) for v in vertices):
        return False
    if list(vertices) != sorted(set(vertices)):
        return False
    parities = [v % 2 for v in vertices]
    return all(parities[i] != parities[(i + 1) % len(parities)] for i in range(len(parities)))


def polygons_on(n_vertices: int) -> list[Polygon]:
    """All alternating polygons on the disc with the given vertex count."""
    out: list[Polygon] = []

    def extend(prefix: list[int], start: int):
        if len(prefix) >= 2 and len(prefix) % 2 == 0:
            if prefix[0] % 2 != prefix[-1] % 2:  # cyclic closure alternates
                out.append(tuple(prefix))
        for v in range(start, n_vertices):
            if prefix and v % 2 == prefix[-1] % 2:
                continue
            extend(prefix + [v], v + 1)

    extend([], 0)
    return sorted(out, key=lambda p: (len(p), p))


def compatible(p: Polygon, q: Polygon) -> bool:
    """Zero-area intersection test for two distinct inscribed polygons."""
    if p == q:
        return False
    return _fits_in_gap(p, q) or _fits_in_gap(q, p)


def _fits_in_gap(p: Polygon, q: Polygon) -> bool:
    """True if all of q lies in one closed cyclic gap [p_i, p_{i+1}] of p."""
    r = len(p)
    for i in range(r):
        lo, hi = p[i], p[(i + 1) % r]
        if all(_in_closed_arc(v, lo, hi) for v in q):
            return True
    return False


def _in_closed_arc(v: int, lo: int, hi: int) -> bool:
    """v lies on the cyclic arc from lo to hi (inclusive), going upward."""
    if lo <= hi:
        return lo <= v <= hi
    return v >= lo or v <= hi


@dataclass(frozen=True)
class PolygonDiagram:
    """A set of pairwise compatible polygons on 2(k+1) disc vertices."""

    k: int
    polygons: tuple[Polygon, ...]

    @staticmethod
    def of(k: int, polygons) -> "PolygonDiagram":
        n_vertices = 2 * (k + 1)
        polys = tuple(sorted((tuple(p) for p in polygons), key=lambda p: (len(p), p)))
        if len(set(polys)) != len(polys):
            raise ValueError("polygons must be distinct; use labels for multiplicity")
        for p in polys:
            if not _is_alternating_polygon(p, n_vertices):
                raise ValueError(f"not an alternating polygon on {n_vertices} vertices: {p}")
        for i, p in enumerate(polys):
            for q in polys[i + 1:]:
                if not compatible(p, q):
                    raise ValueError(f"polygons overlap with positive area: {p} vs {q}")
        return PolygonDiagram(k, polys)

    def profile(self) -> tuple[int, ...]:
        """(s_1, ..., s_{k+1}): counts of 2-gons, 4-gons, ..."""
        out = [0] * (self.k + 1)
        for p in self.polygons:
            out[len(p) // 2 - 1] += 1
        return tuple(out)


@dataclass(frozen=True)
class LabeledDiagram:
    """Diagram with positive integer labels; non-degenerate polygons get 1."""

    diagram: PolygonDiagram
    labels: tuple[int, ...]  # parallel to diagram.polygons

    @staticmethod
    def of(diagram: PolygonDiagram, labels) -> "LabeledDiagram":
        labels = tuple(int(x) for x in labels)
        if len(labels) != len(diagram.polygons):
            raise ValueError("one label per polygon")
        for poly, label in zip(diagram.polygons, labels):
            if label < 1:
                raise ValueError("labels are positive (absent polygons are not stored)")
            if len(poly) > 2 and label != 1:
                raise ValueError("non-degenerate polygons must carry label 1")
        return LabeledDiagram(diagram, labels)

    def label_of(self, poly: Polygon) -> int:
        return self.labels[self.diagram.polygons.index(poly)]

    def vertex_degrees(self) -> list[int]:
        """Label-weighted vertex degrees = run lengths of the preimage word."""
        deg = [0] * (2 * (self.diagram.k + 1))
        for poly, label in zip(self.diagram.polygons, self.labels):
            for v in poly:
                deg[v] += label
        return deg

    def profile(self) -> tuple[int, ...]:
        """Label-weighted block profile (p_1, ..., p_{k+1}) of the preimage."""
        out = [0] * (self.diagram.k + 1)
        for poly, label in zip(self.diagram.polygons, self.labels):
            out[len(poly) // 2 - 1] += label
        return tuple(out)

    def epsilon(self) -> int:
        """Sum of label * polygon size = word length of the preimage."""
        return sum(label * len(poly) for poly, label in zip(self.diagram.polygons, self.labels))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _diagram_universe(k: int) -> tuple[list[Polygon], list[set[int]]]:
    polys = polygons_on(2 * (k + 1))
    compat = [set() for _ in polys]
    for i, p in enumerate(polys):
        for j in range(i + 1, len(polys)):
            if compatible(p, polys[j]):
                compat[i].add(j)
    return polys, compat


def enumerate_psd(k: int, bound: int = ENUMERATION_K_BOUND):
    """All partition structure diagrams on 2(k+1) vertices, empty one included."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > bound:
        raise DiagramBoundError(f"diagram enumeration bound is k <= {bound}")
    polys, compat = _diagram_universe(k)
    n = len(polys)
    chosen: list[int] = []

    def rec(start: int, feasible: set[int]):
        yield tuple(chosen)
        for i in range(start, n):
            if i not in feasible:
                continue
            chosen.append(i)
            yield from rec(i + 1, feasible & compat[i])
            chosen.pop()

    for idx_tuple in rec(0, set(range(n))):
        yield PolygonDiagram(k, tuple(polys[i] for i in idx_tuple))


@lru_cache(maxsize=None)
def profile_table(k: int) -> dict[tuple[int, ...], int]:
    """Profile -> diagram count over all of PSD_{k+1} (one enumeration pass)."""
    table: dict[tuple[int, ...], int] = {}
    for diagram in enumerate_psd(k):
        p = diagram.profile()
        table[p] = table.get(p, 0) + 1
    return table


def profile_count(k: int, profile) -> int:
    """Number of diagrams with s_1 2-gons, s_2 4-gons, ...; exact by enumeration.

    Short profiles are padded with zeros.
    """
    padded = tuple(profile) + (0,) * (k + 1 - len(profile))
    if len(padded) > k + 1:
        if any(padded[k + 1:]):
            return 0
        padded = padded[: k + 1]
    return profile_table(k).get(padded, 0)


def count_quadrangulations(k: int, bound: int = QUADRANGULATION_K_BOUND) -> int:
    """Number of tilings of the 2(k+1)-gon into 4-gons.

    Each tiling is a maximal chord skeleton; every tiling is asserted to use
    exactly 3k+1 segments (boundary edges included).  The count is the
    Fuss-Catalan number C^(2)_k, which tests verify independently.
    """
    tilings = quadrangulations(k, bound)
    expected_segments = 3 * k + 1
    for segments in tilings:
        if len(segments) != expected_segments:
            raise AssertionError(
                f"tiling with {len(segments)} segments; expected {expected_segments}"
            )
    return len(tilings)


def quadrangulations(k: int, bound: int = QUADRANGULATION_K_BOUND) -> list[frozenset[Polygon]]:
    """All 4-gon tilings of the 2(k+1)-gon, each as its set of segments."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > bound:
        raise DiagramBoundError(f"quadrangulation bound is k <= {bound}")
    n_vertices = 2 * (k + 1)
    if k == 0:
        return [frozenset({(0, 1)})]

    def tile(region: tuple[int, ...]):
        """Sets of quads tiling the sub-polygon with the given vertex cycle.

        Recursion on the quad containing the edge (region[0], region[1]); its
        two remaining corners split the rest into three even sub-regions.
        """
        if len(region) == 2:
            yield []
            return
        a0, a1 = region[0], region[1]
        m = len(region)
        for i in range(2, m - 1):
            for j in range(i + 1, m):
                quad = (a0, a1, region[i], region[j])
                r1 = region[1 : i + 1]
                r2 = region[i : j + 1]
                r3 = region[j:] + (a0,)
                if len(r1) % 2 or len(r2) % 2 or len(r3) % 2:
                    continue
                for t1 in tile(r1):
                    for t2 in tile(r2):
                        for t3 in tile(r3):
                            yield [quad] + t1 + t2 + t3

    out: set[frozenset[Polygon]] = set()
    for quads in tile(tuple(range(n_vertices))):
        segments: set[tuple[int, int]] = set()
        for quad in quads:
            cyc = sorted(quad)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                segments.add(tuple(sorted((a, b))))
        out.add(frozenset(tuple(sorted(seg)) for seg in segments))
    return sorted(out, key=sorted)


# ---------------------------------------------------------------------------
# Compression bijection
# ---------------------------------------------------------------------------


def compress(pat: nc.AlternationPattern, part: nc.SetPartition) -> LabeledDiagram:
    """Project an alternating non-crossing partition onto the run disc.

    Each block maps to the polygon of runs it meets; identical 2-gons merge
    with their multiplicity recorded in the label.  Profile is preserved.
    """
    _require_alternating_member(pat, part)
    run_of = pat.run_of_position()
    counts: dict[Polygon, int] = {}
    for block in part.blocks:
        poly = tuple(sorted({run_of[i - 1] for i in block}))
        if len(poly) != len(block):
            raise ValueError("block meets a run twice; not an alternating member")
        counts[poly] = counts.get(poly, 0) + 1
    for poly, label in counts.items():
        if len(poly) > 2 and label != 1:
            raise AssertionError("non-degenerate polygon compressed twice; crossing input")
    k = len(pat.runs) // 2 - 1
    diagram = PolygonDiagram.of(k, tuple(counts))
    return LabeledDiagram.of(diagram, tuple(counts[p] for p in diagram.polygons))


def _require_alternating_member(pat: nc.AlternationPattern, part: nc.SetPartition) -> None:
    if part.n != pat.word_length:
        raise ValueError("partition size does not match the pattern word length")
    letters = pat.letters()
    for block in part.blocks:
        if len(block) % 2:
            raise ValueError("blocks of alternating partitions have even size")
        for a, b in zip(block, block[1:]):
            if letters[a - 1] == letters[b - 1]:
                raise ValueError("block letters do not alternate")
    if not nc.is_noncrossing(part):
        raise ValueError("partition is crossing")


def decompress(lp: LabeledDiagram) -> tuple[nc.AlternationPattern, nc.SetPartition]:
    """The unique alternating non-crossing preimage of a labeled diagram.

    Run lengths are the label-weighted vertex degrees.  Word positions inside
    each run are handed to the incident polygon corners in angular order:
    polygons sort by the span of their remaining vertices as seen from the
    run (nearer the backward boundary direction = earlier position), and
    copies of one chord pair anti-diagonally, which nests them.
    """
    diagram, labels = lp.diagram, lp.labels
    n_vertices = 2 * (diagram.k + 1)
    degrees = lp.vertex_degrees()
    starts = [0] * n_vertices
    acc = 0
    for v in range(n_vertices):
        starts[v] = acc
        acc += degrees[v]

    copies = []  # (polygon index, copy index)
    for idx, (poly, label) in enumerate(zip(diagram.polygons, labels)):
        for c in range(label):
            copies.append((idx, c))

    # slot assignment per vertex
    slot_of: dict[tuple[int, int, int], int] = {}  # (poly idx, copy, vertex) -> 1-based word position
    for v in range(n_vertices):
        incident = [
            (pi, c) for (pi, c) in copies if v in diagram.polygons[pi]
        ]

        def sort_key(item):
            pi, c = item
            poly = diagram.polygons[pi]
            others = [(v - u) % n_vertices for u in poly if u != v]
            lo, hi = min(others), max(others)
            # identical chords tie; anti-order the copies at the larger endpoint
            anti = c if v == min(poly) else -c
            return (lo, hi, anti)

        incident.sort(key=sort_key)
        for slot, (pi, c) in enumerate(incident):
            slot_of[(pi, c, v)] = starts[v] + slot + 1

    blocks = []
    for pi, c in copies:
        poly = diagram.polygons[pi]
        blocks.append(tuple(sorted(slot_of[(pi, c, v)] for v in poly)))
    runs = tuple(degrees)
    pat = nc.AlternationPattern.of(runs)
    if not blocks:
        return pat, nc.SetPartition(0, ())
    part = nc.SetPartition.of(pat.word_length, blocks)
    _require_alternating_member(pat, part)  # the bijection guarantees this
    return pat, part


# ---------------------------------------------------------------------------
# Moment polynomial
# ---------------------------------------------------------------------------

X = Poly.var("x")  # stands for 1/(lam^2 - 1)
Y = Poly.var("y")  # stands for 1/lam^2


def moment_polynomial(k: int, alphas=None) -> Poly:
    """The two-variable polynomial P_{k+1} with
    phi(|lam - a|^{-2(k+1)}) = P_{k+1}(1/(lam^2-1), 1/lam^2).

    Each diagram with profile (s_1, ..., s_{k+1}) contributes
    x^{s_1} * y^{(k+1) + sum_{l>=2} l s_l} * prod_{l>=2} alpha_l^{s_l}: the
    geometric label sums over 2-gons produce exactly x per 2-gon, everything
    else is a finite monomial.  ``alphas`` supplies alpha_2..alpha_{k+1} as
    exact rationals (alpha entries may also be Poly symbols); None keeps them
    symbolic as a2, a3, ...

    No normalization across the relation x - y = x y is applied; compare
    values, not coefficients.
    """
    if alphas is None:
        alpha_of = {ell: Poly.var(f"a{ell}") for ell in range(2, k + 2)}
    else:
        alphas = list(alphas)
        alpha_of = {ell: alphas[ell - 2] for ell in range(2, k + 2)}
    total = Poly()
    for s, count in sorted(profile_table(k).items()):
        term = Poly.const(count) * X ** s[0]
        term = term * Y ** ((k + 1) + sum(ell * s[ell - 1] for ell in range(2, k + 2)))
        for ell in range(2, k + 2):
            if s[ell - 1]:
                term = term * Poly.coerce(alpha_of[ell]) ** s[ell - 1]
        total = total + term
    return total


def negative_moment_psd(model, lam, k: int):
    """phi(|lam - a|^{-2(k+1)}) by evaluating the moment polynomial.

    Exact (Fraction) for rational lam, float for float lam.  Requires
    alpha_2..alpha_{k+1} from the model.
    """
    alphas = [model.alpha_at(ell) for ell in range(2, k + 2)]
    poly = moment_polynomial(k, alphas)
    if isinstance(lam, float):
        lam_sq = lam * lam
        return poly.subs({"x": 1.0 / (lam_sq - 1.0), "y": 1.0 / lam_sq})
    lam_sq = Fraction(lam) ** 2
    if lam_sq <= 1:
        raise ValueError("requires lam > 1")
    return poly.subs({"x": Fraction(1) / (lam_sq - 1), "y": Fraction(1) / lam_sq})


def moment_polynomial_json(poly: Poly) -> list:
    """Serialize a moment polynomial as (x-exp, y-exp, 'p/q') triples.

    Only valid for polynomials with purely rational coefficients (exact
    alphas substituted).
    """
    out = []
    for mono, coeff in poly.terms.items():
        d = dict(mono)
        extra = [name for name in d if name not in ("x", "y")]
        if extra:
            raise ValueError(f"symbolic coefficients remain: {extra}")
        out.append([d.get("x", 0), d.get("y", 0), str(coeff)])
    out.sort(key=lambda t: (t[0], t[1]))
    return out
