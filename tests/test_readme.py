"""The README's CLI examples and library sketch run as documented."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from matula import IndexOutOfRange, cli

_README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, expected stdout or None) for each ``matula`` line of the
    README's CLI block; a comment ``-> X`` gives the expected stdout."""
    block = _README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("matula "):
            expected = re.search(r"#\s*->\s*(.*?)\s*$", line)
            examples.append((shlex.split(line, comments=True)[1:], expected and expected[1]))
    return examples


def test_readme_cli_examples_run(capsys, ceiling):
    ceiling(2**32)  # the documented default
    examples = _cli_examples()
    assert len(examples) >= 10 and any(expected for _, expected in examples)
    for argv, expected in examples:
        code = cli.run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if expected is not None:
            assert out == expected + "\n", argv


def _library_sketch():
    """(code, comment) for each line of the README's library sketch; the
    comment is "" where there is none."""
    block = _README.read_text().split("## Library sketch\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((t for t in tokens if t.type == tokenize.COMMENT), None)
        if comment is None:
            lines.append((line, ""))
        else:
            start = comment.start[1]
            lines.append((line[:start], line[start:].removeprefix("#").strip()))
    return lines


def test_readme_library_sketch_runs(ceiling):
    ceiling(2**32)  # the documented default; the sketch's own ceiling is undone after
    *lines, (last, refusal) = _library_sketch()
    namespace = {}
    compared = 0
    for code, comment in lines:
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):  # no literal to compare with
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, code
        compared += 1
    assert compared >= 8
    assert refusal.startswith("IndexOutOfRange")
    with pytest.raises(IndexOutOfRange):
        exec(last, namespace)
