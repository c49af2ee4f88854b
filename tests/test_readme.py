"""The README's CLI examples run as documented."""

import re
import shlex
from pathlib import Path

from matula import cli

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
