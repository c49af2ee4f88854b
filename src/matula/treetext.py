"""Text format for trees, plus a DOT export.

Grammar:  tree := "*" | "(" tree { "," tree } ")"

A leaf is "*" rather than "()", so a parenthesized node has at least one
child by construction.  Whitespace between tokens is ignored.  Serialization
is canonical (children in ascending Matula order) and round-trips exactly;
this is the wire format for the CLI and for every test fixture.  No walk
here recurses, so nesting depth is bounded by memory alone.
"""

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


def parse(text: str) -> Tree:
    """Parse tree text into its canonical Tree.

    Child order in the input is irrelevant; the result is canonical.  Raises
    TreeSyntaxError carrying the byte offset and the expected-token set.
    """
    # want: the characters accepted next, "" once the whole tree is read.
    # stack: the children read so far of each open "(", over the root's list.
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
            # A tree is complete; join restores canonical child order.
            tree = leaf() if c == "*" else join(*stack.pop())
            stack[-1].append(tree)
            want = ",)" if len(stack) > 1 else ""
    if want:
        end = len(text)
        raise TreeSyntaxError(f"unexpected end of input at offset {end}", end, set(want))
    return stack[0][0]


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
