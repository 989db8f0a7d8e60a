"""Diagram DSL parsing and the diagram <-> Gram compilers."""

from fractions import Fraction

import pytest

from packinglab.coxeter import (
    Angle,
    BadMultiplicity,
    Disjoint,
    DuplicateEdge,
    GramMatrix,
    ParseError,
    Tangent,
    UnclassifiableEntry,
    UnrepresentableAngle,
    classify_entry,
    diagram_from_gram,
    gram_from_diagram,
    parse_diagram,
    print_diagram,
)
from packinglab.exactnum import QuadExt
from packinglab.fixtures import COX6_DIAGRAM, EISENSTEIN_DIAGRAM, hexpyr_expected_gram


def test_six_wall_diagram_edges():
    d = parse_diagram(COX6_DIAGRAM)
    assert d.vertex_count == 6
    assert d.edges == {
        (0, 1): Tangent(),
        (2, 3): Tangent(),
        (1, 4): Angle(3),
        (1, 5): Angle(4),
        (2, 5): Disjoint(),
        (3, 4): Disjoint(),
    }


def test_no_edges_means_orthogonal():
    d = parse_diagram("vertices 2\n")
    assert d.vertex_count == 2 and d.edges == {}
    g = gram_from_diagram(d)
    assert g.entries[0][1] == QuadExt(0)


def test_right_angle_multiplicity_rejected():
    with pytest.raises(BadMultiplicity):
        parse_diagram("vertices 2\n1 2 angle 2\n")


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        parse_diagram("vertices 3\n1 2 tangent\n2 1 disjoint\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_diagram("vertices 3\n1 9 tangent\n")
    assert exc.value.line == 2


def test_six_wall_gram_entries():
    g = gram_from_diagram(parse_diagram(COX6_DIAGRAM))
    e = g.entries
    assert e[0][1] == QuadExt(1)
    assert e[2][3] == QuadExt(1)
    assert e[1][4] == QuadExt(Fraction(1, 2))
    assert e[1][5] == QuadExt(0, Fraction(1, 2), 2)
    assert g.placeholders == frozenset({(2, 5), (3, 4)})
    for i in range(6):
        assert e[i][i] == QuadExt(-1)
        for j in range(6):
            assert e[i][j] == e[j][i]
    zeros = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if (i, j) not in {(0, 1), (2, 3), (1, 4), (1, 5), (2, 5), (3, 4)}]
    for i, j in zeros:
        assert e[i][j] == QuadExt(0)


def test_eisenstein_subgroup_gram_pattern():
    g = gram_from_diagram(parse_diagram(EISENSTEIN_DIAGRAM))
    e = g.entries
    assert e[0][1] == QuadExt(1)
    assert e[2][3] == QuadExt(1)
    assert e[1][4] == QuadExt(Fraction(1, 2))
    assert e[3][4] == QuadExt(0, Fraction(1, 2), 2)


def test_angle_values():
    for m, expected in ((3, QuadExt(Fraction(1, 2))),
                        (4, QuadExt(0, Fraction(1, 2), 2)),
                        (6, QuadExt(0, Fraction(1, 2), 3))):
        d = parse_diagram(f"vertices 2\n1 2 angle {m}\n")
        assert gram_from_diagram(d).entries[0][1] == expected


def test_pentagon_angle_in_golden_field():
    d = parse_diagram("vertices 2\n1 2 angle 5\n")
    assert gram_from_diagram(d).entries[0][1] == QuadExt(Fraction(1, 4), Fraction(1, 4), 5)


def test_mixed_angle_fields_rejected():
    d = parse_diagram("vertices 3\n1 2 angle 5\n2 3 angle 4\n")
    with pytest.raises(UnrepresentableAngle):
        gram_from_diagram(d)


def test_print_parse_round_trip():
    for text in (COX6_DIAGRAM, EISENSTEIN_DIAGRAM, "vertices 2\n", "vertices 4\n1 2 disjoint=3/2\n3 4 angle 6\n"):
        d = parse_diagram(text)
        assert parse_diagram(print_diagram(d)) == d


def test_gram_diagram_round_trip():
    d = parse_diagram(COX6_DIAGRAM)
    g = gram_from_diagram(d)
    assert diagram_from_gram(g) == d


def test_hexpyr_gram_classifies_with_disjoint_surd():
    d = diagram_from_gram(hexpyr_expected_gram())
    kind = d.edges[(0, 13)]
    assert isinstance(kind, Disjoint)
    assert kind.value == QuadExt(0, Fraction(2, 3), 3)  # 2/sqrt(3)


def test_unclassifiable_entry_reported():
    bad = QuadExt(Fraction(3, 10))
    entries = ((QuadExt(-1), bad), (bad, QuadExt(-1)))
    with pytest.raises(UnclassifiableEntry) as exc:
        diagram_from_gram(GramMatrix(entries))
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_classify_entry():
    assert classify_entry(QuadExt(0)) is None  # orthogonal, no edge
    assert classify_entry(QuadExt(1)) == Tangent()
    assert classify_entry(QuadExt(Fraction(1, 2))) == Angle(3)
    assert classify_entry(QuadExt(2)) == Disjoint(QuadExt(2))


def test_explicit_disjoint_value_survives():
    d = parse_diagram("vertices 2\n1 2 disjoint=5/3\n")
    g = gram_from_diagram(d)
    assert g.entries[0][1] == QuadExt(Fraction(5, 3))
    assert g.placeholders == frozenset()


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nvertices 2\n  # indented comment\n1 2 tangent\n"
    assert parse_diagram(text).edges == {(0, 1): Tangent()}


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("vertices 3\nvertices 3\n", ParseError, "line 2: duplicate vertices declaration"),
        ("vertices\n", ParseError, "line 1: expected: vertices <positive count>"),
        ("vertices 3 4\n", ParseError, "line 1: expected: vertices <positive count>"),
        ("vertices 0\n", ParseError, "line 1: expected: vertices <positive count>"),
        ("vertices -2\n", ParseError, "line 1: expected: vertices <positive count>"),
        # a digit to str.isdigit, but not to int
        ("vertices ²\n", ParseError, "line 1: expected: vertices <positive count>"),
        # digits to int and str.isdecimal, but not ASCII digits
        ("vertices \u0663\n", ParseError, "line 1: expected: vertices <positive count>"),
        ("vertices 1_0\n", ParseError, "line 1: expected: vertices <positive count>"),
        ("# walls\n1 2 tangent\n", ParseError, "line 2: edge before vertices declaration"),
        ("vertices 3\n1 2\n", ParseError, "line 2: expected: <i> <j> <relation>"),
        ("vertices 3\na 2 tangent\n", ParseError, "line 2: vertex labels must be integers"),
        ("vertices 3\n1 2.0 tangent\n", ParseError, "line 2: vertex labels must be integers"),
        # int() reads these as 10, 2 and 3
        ("vertices 12\n1_0 2 tangent\n", ParseError, "line 2: vertex labels must be integers"),
        ("vertices 12\n1 +2 tangent\n", ParseError, "line 2: vertex labels must be integers"),
        ("vertices 3\n1 \u0663 tangent\n", ParseError, "line 2: vertex labels must be integers"),
        ("vertices 3\n2 2 tangent\n", ParseError, "line 2: self-loops are not allowed"),
        ("vertices 3\n1 2 tangent 1\n", ParseError, "line 2: tangent takes no arguments"),
        ("vertices 3\n1 2 disjoint 3\n", ParseError, "line 2: disjoint takes no extra tokens"),
        ("vertices 3\n1 2 disjoint=3 4\n", ParseError, "line 2: disjoint takes no extra tokens"),
        ("vertices 3\n1 2 disjoint=1\n", ParseError, "line 2: separation value must exceed 1"),
        ("vertices 3\n1 2 disjoint=-2\n", ParseError, "line 2: separation value must exceed 1"),
        ("vertices 3\n1 2 disjoint=1/2*sqrt(2)\n", ParseError, "line 2: separation value must exceed 1"),
        ("vertices 3\n1 2 disjoint=abc\n", ParseError,
         "line 2: bad separation value: not a valid exact-number literal: 'abc'"),
        ("vertices 3\n1 2 disjoint=1/0\n", ParseError,
         "line 2: bad separation value: zero denominator in exact-number literal '1/0'"),
        ("vertices 3\n1 2 angle\n", ParseError, "line 2: expected: <i> <j> angle <m>"),
        ("vertices 3\n1 2 angle 3 4\n", ParseError, "line 2: expected: <i> <j> angle <m>"),
        ("vertices 3\n1 2 angle 3.5\n", ParseError, "line 2: multiplicity must be an integer"),
        # int() reads these as 12 and 4
        ("vertices 3\n1 2 angle 1_2\n", ParseError, "line 2: multiplicity must be an integer"),
        ("vertices 3\n1 2 angle +4\n", ParseError, "line 2: multiplicity must be an integer"),
        ("vertices 3\n1 2 angle 1\n", BadMultiplicity, "line 2: angle multiplicity 1 < 3"),
        ("vertices 3\n1 2 orthogonal\n", ParseError, "line 2: unknown relation 'orthogonal'"),
        ("", ParseError, "line 1: missing vertices declaration"),
        ("# no statements\n\n", ParseError, "line 1: missing vertices declaration"),
    ],
)
def test_parse_failures_name_the_line_and_the_fault(text, error, message):
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[0].split()[1])


def test_angle_without_a_quadratic_cosine_rejected():
    d = parse_diagram("vertices 2\n1 2 angle 7\n")
    assert d.edges == {(0, 1): Angle(7)}
    with pytest.raises(UnrepresentableAngle) as exc:
        gram_from_diagram(d)
    assert str(exc.value) == "cos(pi/7) does not live in a quadratic field"
