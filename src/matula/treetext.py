"""Text format for trees, the structural walk over it, and a DOT export.

Grammar:  tree := "*" | "(" tree { "," tree } ")"

A leaf is "*" rather than "()", so a parenthesized node has at least one
child by construction.  Whitespace between tokens is ignored.  Serialization
is canonical (children in ascending Matula order) and round-trips exactly;
this is the wire format for the CLI and for every test fixture.

One fold over the text serves both readers: ``parse`` builds the canonical
Tree, and ``params`` reads the shape alone, so it needs no prime and never
orders siblings.  No walk here recurses, so nesting depth is bounded by
memory alone.
"""

from collections import namedtuple

from .errors import TreeSyntaxError
from .trees import Tree, join, leaf

_WHITESPACE = " \t\r\n"


def serialize(t: Tree) -> str:
    """Canonical text for t; parse(serialize(t)) == t."""
    if not t.children:
        return "*"
    parts = ["("]
    stack = [iter(t.children)]  # the children of each open node still to write
    while stack:
        for node in stack[-1]:
            if parts[-1] != "(":
                parts.append(",")
            if node.children:
                parts.append("(")
                stack.append(iter(node.children))
                break
            parts.append("*")
        else:
            stack.pop()
            parts.append(")")
    return "".join(parts)


def _fold(text: str, leaf_value, node):
    """Read tree text bottom-up: ``leaf_value`` stands for each "*", and each
    ")" calls ``node(*values of its children)`` in input order.  Returns the
    root's value; raises TreeSyntaxError carrying the byte offset and the
    expected-token set."""
    # want: the characters accepted next, "" once the whole tree is read.
    # stack: the children's values read so far of each open "(", over the
    # root's list.
    want = "*("
    stack = [[]]
    for i, c in enumerate(text):
        if c in _WHITESPACE:
            continue
        if c not in want:
            if not want:
                raise TreeSyntaxError(f"trailing input at offset {i}", i, {"end of input"})
            raise TreeSyntaxError(f"unexpected {c!r} at offset {i}", i, set(want))
        if c == "(":
            stack.append([])
        elif c == ",":
            want = "*("
        else:
            value = leaf_value if c == "*" else node(*stack.pop())
            stack[-1].append(value)
            want = ",)" if len(stack) > 1 else ""
    if want:
        end = len(text)
        raise TreeSyntaxError(f"unexpected end of input at offset {end}", end, set(want))
    return stack[0][0]


def parse(text: str) -> Tree:
    """Parse tree text into its canonical Tree.

    Child order in the input is irrelevant: join restores canonical order.
    Raises TreeSyntaxError carrying the byte offset and the expected-token
    set.
    """
    return _fold(text, leaf(), join)


class TreeParams(namedtuple(
    "TreeParams", "vertices leaves height max_outdegree outdegree_multiset wiener"
)):
    """Structural parameters of a rooted tree.

    ``outdegree_multiset`` is the sorted tuple of all vertex outdegrees and
    ``wiener`` the sum of distances over unordered vertex pairs.
    """

    __slots__ = ()


def params(tree) -> TreeParams:
    """TreeParams of tree text, or of a Tree, which is serialized first.

    The shape alone decides every field, so no prime is computed and text
    that parse would refuse for want of a prime is answered.  The Wiener
    index is computed by edge decomposition: the edge above a vertex whose
    subtree has s vertices lies on s * (V - s) of the paths, so summing over
    every vertex (the root adds V * 0) gives V * sum(s) - sum(s * s).
    """
    outdegrees, sizes = [], []  # of each vertex with children

    def node(*children):  # each child's (subtree size, height)
        outdegrees.append(len(children))
        sizes.append(1 + sum(s for s, _ in children))
        return sizes[-1], 1 + max(h for _, h in children)

    text = tree if isinstance(tree, str) else serialize(tree)
    vertices, height = _fold(text, (1, 0), node)
    leaves = vertices - len(sizes)
    return TreeParams(
        vertices=vertices,
        leaves=leaves,
        height=height,
        max_outdegree=max(outdegrees, default=0),
        outdegree_multiset=(0,) * leaves + tuple(sorted(outdegrees)),
        wiener=vertices * (leaves + sum(sizes)) - leaves - sum(s * s for s in sizes),
    )


def to_dot(t: Tree) -> str:
    """Graphviz DOT text: one node per vertex, edges parent to child, nodes
    numbered by canonical depth-first order (root is n0)."""
    lines = ["digraph tree {", '  n0 [label="0"];']
    uid = 0
    # The number and the children still to write of each open node.  A
    # node's edge line is written once its whole subtree is.
    stack = [(0, iter(t.children))]
    while stack:
        node_uid, children = stack[-1]
        for child in children:
            uid += 1
            lines.append(f'  n{uid} [label="{uid}"];')
            stack.append((uid, iter(child.children)))
            break
        else:
            stack.pop()
            if stack:
                lines.append(f"  n{stack[-1][0]} -> n{node_uid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
