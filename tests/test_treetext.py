import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    TreeSyntaxError,
    binary_caterpillar,
    decode,
    encode,
    join,
    leaf,
    parse,
    serialize,
    star,
    to_dot,
)

from test_trees import deep_path, small_trees


def test_parse_leaf():
    assert parse("*") == leaf()


def test_parse_worked_example():
    assert encode(parse("((*),(*,*),*)")) == 42


def test_parse_caterpillar():
    assert parse("(*,(*,(*,(*,*))))") == binary_caterpillar(5)


def test_parse_ignores_whitespace_and_input_order():
    assert parse(" ( * , ( * ) ,\n\t(*,*) ) ") == decode(42)
    assert parse("((*,*),*,(*))") == decode(42)


def test_serialize_golden():
    assert serialize(leaf()) == "*"
    assert serialize(join(leaf(), leaf())) == "(*,*)"
    assert serialize(decode(42)) == "(*,(*),(*,*))"


def test_unary_nodes_are_representable():
    assert parse("(*)") == join(leaf())
    assert serialize(decode(3)) == "((*))"


_TREE = {"*", "("}
_NEXT = {",", ")"}
_END = {"end of input"}
_SYNTAX_ERRORS = [
    ("", 0, _TREE),
    ("()", 1, _TREE),
    ("(*", 2, _NEXT),
    ("(*,)", 3, _TREE),
    ("(*,*", 4, _NEXT),
    ("*garbage", 1, _END),
    ("(*)x", 3, _END),
    (",*", 0, _TREE),
    ("(*,*))", 5, _END),
    ("((*,*)", 6, _NEXT),
]


@pytest.mark.parametrize(
    "text,offset,expected",
    _SYNTAX_ERRORS,
    ids=[f"{text}-{offset}" for text, offset, _ in _SYNTAX_ERRORS],
)
def test_syntax_errors_carry_offsets(text, offset, expected):
    with pytest.raises(TreeSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset
    assert err.value.expected == expected


def test_round_trip_small_numbers():
    for n in range(1, 3000):
        t = decode(n)
        assert parse(serialize(t)) == t


@settings(max_examples=80, deadline=None)
@given(small_trees())
def test_round_trip_random_trees(t):
    assert parse(serialize(t)) == t


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="*(), \t", max_size=24))
def test_parse_is_total(text):
    # Every input either parses (and then round-trips) or fails with a
    # located syntax error; nothing else may escape.
    try:
        t = parse(text)
    except TreeSyntaxError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert serialize(t) == serialize(parse(serialize(t)))


def _dot_counts(dot):
    nodes = len(re.findall(r"n\d+ \[", dot))
    edges = len(re.findall(r"->", dot))
    return nodes, edges


def test_to_dot_leaf():
    dot = to_dot(leaf())
    assert dot.startswith("digraph")
    assert _dot_counts(dot) == (1, 0)


def test_to_dot_star3():
    dot = to_dot(star(3))
    assert _dot_counts(dot) == (4, 3)
    assert dot.count("n0 ->") == 3


def test_to_dot_caterpillar3():
    # Two internal vertices plus three leaves.
    assert _dot_counts(to_dot(binary_caterpillar(3))) == (5, 4)


def test_to_dot_deterministic():
    assert to_dot(decode(42)) == to_dot(parse("((*,*),*,(*))"))


def test_to_dot_golden():
    # Pre-order numbering; each edge line follows its child's whole subtree.
    assert to_dot(decode(42)) == (
        "digraph tree {\n"
        '  n0 [label="0"];\n'
        '  n1 [label="1"];\n'
        "  n0 -> n1;\n"
        '  n2 [label="2"];\n'
        '  n3 [label="3"];\n'
        "  n2 -> n3;\n"
        "  n0 -> n2;\n"
        '  n4 [label="4"];\n'
        '  n5 [label="5"];\n'
        "  n4 -> n5;\n"
        '  n6 [label="6"];\n'
        "  n4 -> n6;\n"
        "  n0 -> n4;\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "build,text,vertices",
    [
        (lambda: binary_caterpillar(5000), "(*," * 4999 + "*" + ")" * 4999, 9999),
        (lambda: deep_path(5000), "(" * 5000 + "*" + ")" * 5000, 5001),
    ],
    ids=["caterpillar-5000", "path-5000"],
)
def test_deep_trees_need_no_recursion(build, text, vertices):
    # Far deeper than the recursion limit: every walk here is iterative.
    assert sys.getrecursionlimit() < 5000
    t = build()
    assert serialize(t) == text
    assert parse(text) == t
    assert _dot_counts(to_dot(t)) == (vertices, vertices - 1)
    assert repr(t) == f"Tree({text!r})"
