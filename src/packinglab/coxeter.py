"""Coxeter diagram DSL and its translation to and from exact Gram matrices.

Diagram text format, one statement per line, '#' starts a comment:

    vertices 6
    1 2 tangent
    3 4 disjoint          # separation left free
    3 5 disjoint=5/2      # explicit product
    2 6 angle 4           # dihedral angle pi/4

Vertices are 1-based in the text; everything is 0-based in memory.  Absent
edges mean orthogonal walls.  The Gram matrix of k walls has -1 on the
diagonal, 1 for tangency, a value > 1 for disjoint pairs and cos(pi/m) for
an angle edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt
from .linalg import as_quad


class ParseError(PackingLabError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class BadMultiplicity(ParseError):
    pass


class DuplicateEdge(ParseError):
    pass


class UnrepresentableAngle(PackingLabError):
    pass


class UnclassifiableEntry(PackingLabError):
    def __init__(self, i: int, j: int, value: QuadExt):
        super().__init__(f"entry ({i + 1},{j + 1}) = {value} fits no edge kind")
        self.i = i
        self.j = j
        self.value = value


@dataclass(frozen=True)
class Tangent:
    pass


@dataclass(frozen=True)
class Disjoint:
    value: QuadExt | None = None  # None is a free separation


@dataclass(frozen=True)
class Angle:
    m: int


EdgeKind = Tangent | Disjoint | Angle

# cos(pi/m) for the multiplicities expressible in one quadratic field
COS_TABLE: dict[int, QuadExt] = {
    3: QuadExt(Fraction(1, 2)),
    4: QuadExt(0, Fraction(1, 2), 2),
    5: QuadExt(Fraction(1, 4), Fraction(1, 4), 5),
    6: QuadExt(0, Fraction(1, 2), 3),
}


@dataclass(frozen=True)
class CoxeterDiagram:
    vertex_count: int
    edges: dict[tuple[int, int], EdgeKind]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric exact matrix with -1 diagonal; placeholder pairs carry a
    disjoint wall pair whose separation was never pinned down."""

    entries: tuple[tuple[QuadExt, ...], ...]
    placeholders: frozenset[tuple[int, int]] = frozenset()
    signature_hint: str | None = None

    @classmethod
    def from_rows(cls, rows, placeholders=(), signature_hint=None) -> "GramMatrix":
        entries = tuple(tuple(as_quad(x) for x in row) for row in rows)
        check_symmetric(entries, ValueError)  # the document loader names the type
        norm = frozenset((min(i, j), max(i, j)) for i, j in placeholders)
        return cls(entries, norm, signature_hint)

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_placeholder(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.placeholders


def check_square(entries, error: type[Exception] = ParameterError) -> None:
    if any(len(row) != len(entries) for row in entries):
        raise error("matrix must be square")


def check_symmetric(entries, error: type[Exception] = ParameterError) -> None:
    """Raise error unless the matrix is square, and at the first pair
    (i, j), i < j, whose entries differ."""
    check_square(entries, error)
    for i, row in enumerate(entries):
        for j in range(i + 1, len(row)):
            if row[j] != entries[j][i]:
                raise error(f"the Gram matrix is asymmetric at ({i},{j})")


_PLACEHOLDER_SEPARATION = QuadExt(2)  # stand-in value > 1 for free disjoint pairs


def parse_diagram(text: str) -> CoxeterDiagram:
    vertex_count = None
    edges: dict[tuple[int, int], EdgeKind] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if vertex_count is not None:
                raise ParseError(lineno, "duplicate vertices declaration")
            vertex_count = _digits(tokens[1]) if len(tokens) == 2 else None
            if vertex_count is None or vertex_count < 1:
                raise ParseError(lineno, "expected: vertices <positive count>")
            continue
        if vertex_count is None:
            raise ParseError(lineno, "edge before vertices declaration")
        if len(tokens) < 3:
            raise ParseError(lineno, "expected: <i> <j> <relation>")
        i, j = _digits(tokens[0]), _digits(tokens[1])
        if i is None or j is None:
            raise ParseError(lineno, "vertex labels must be integers")
        if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
            raise ParseError(lineno, f"vertex label out of range 1..{vertex_count}")
        if i == j:
            raise ParseError(lineno, "self-loops are not allowed")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges:
            raise DuplicateEdge(lineno, f"edge {min(i, j)} {max(i, j)} given twice")
        rel = tokens[2]
        if rel == "tangent":
            if len(tokens) != 3:
                raise ParseError(lineno, "tangent takes no arguments")
            edges[key] = Tangent()
        elif rel == "disjoint" or rel.startswith("disjoint="):
            if len(tokens) != 3:
                raise ParseError(lineno, "disjoint takes no extra tokens")
            if rel == "disjoint":
                edges[key] = Disjoint(None)
            else:
                try:
                    value = QuadExt(rel.split("=", 1)[1])
                except (ValueError, PackingLabError) as exc:
                    raise ParseError(lineno, f"bad separation value: {exc}") from None
                if value.sign() <= 0 or value <= 1:
                    raise ParseError(lineno, "separation value must exceed 1")
                edges[key] = Disjoint(value)
        elif rel == "angle":
            if len(tokens) != 4:
                raise ParseError(lineno, "expected: <i> <j> angle <m>")
            m = _digits(tokens[3])
            if m is None:
                raise ParseError(lineno, "multiplicity must be an integer")
            if m < 3:
                raise BadMultiplicity(lineno, f"angle multiplicity {m} < 3")
            edges[key] = Angle(m)
        else:
            raise ParseError(lineno, f"unknown relation {rel!r}")
    if vertex_count is None:
        raise ParseError(1, "missing vertices declaration")
    return CoxeterDiagram(vertex_count, edges)


def _digits(token: str) -> int | None:
    """The value of a token of ASCII digits only, else None.  int() would
    also take a sign, underscores and non-ASCII digits, none of which
    print_diagram writes."""
    return int(token) if token.isascii() and token.isdigit() else None


def print_diagram(diagram: CoxeterDiagram) -> str:
    lines = [f"vertices {diagram.vertex_count}"]
    for (i, j), kind in sorted(diagram.edges.items()):
        if isinstance(kind, Tangent):
            rel = "tangent"
        elif isinstance(kind, Disjoint):
            rel = "disjoint" if kind.value is None else f"disjoint={kind.value}"
        else:
            rel = f"angle {kind.m}"
        lines.append(f"{i + 1} {j + 1} {rel}")
    return "\n".join(lines) + "\n"


def gram_from_diagram(diagram: CoxeterDiagram) -> GramMatrix:
    k = diagram.vertex_count
    rows = [[QuadExt(0)] * k for _ in range(k)]
    placeholders = set()
    for i in range(k):
        rows[i][i] = QuadExt(-1)
    for (i, j), kind in diagram.edges.items():
        if isinstance(kind, Tangent):
            value = QuadExt(1)
        elif isinstance(kind, Disjoint):
            if kind.value is None:
                value = _PLACEHOLDER_SEPARATION
                placeholders.add((i, j))
            else:
                value = kind.value
        elif kind.m in COS_TABLE:
            value = COS_TABLE[kind.m]
        else:
            raise UnrepresentableAngle(f"cos(pi/{kind.m}) does not live in a quadratic field")
        rows[i][j] = rows[j][i] = value
    discs = sorted({x._d for row in rows for x in row} - {0})
    if len(discs) > 1:
        raise UnrepresentableAngle(
            "edges need more than one quadratic field: " + ", ".join(f"sqrt({d})" for d in discs)
        )
    return GramMatrix.from_rows(rows, placeholders)


def classify_entry(value: QuadExt) -> EdgeKind | None:
    """Map one off-diagonal Gram entry to its edge kind (None = orthogonal)."""
    if not value:
        return None
    if value == 1:
        return Tangent()
    if value > 1:
        return Disjoint(value)
    for m, cos in COS_TABLE.items():
        if value == cos:
            return Angle(m)
    raise UnclassifiableEntry(-1, -1, value)


def diagram_from_gram(gram: GramMatrix) -> CoxeterDiagram:
    check_symmetric(gram.entries)
    k = gram.size
    edges: dict[tuple[int, int], EdgeKind] = {}
    for i in range(k):
        for j in range(i + 1, k):
            if gram.is_placeholder(i, j):
                edges[(i, j)] = Disjoint(None)
                continue
            try:
                kind = classify_entry(gram.entries[i][j])
            except UnclassifiableEntry:
                raise UnclassifiableEntry(i, j, gram.entries[i][j]) from None
            if kind is not None:
                edges[(i, j)] = kind
    return CoxeterDiagram(k, edges)
