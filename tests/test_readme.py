"""The README's Python library block runs and gives the values its comments
show."""

import ast
import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_block_matches_its_comments():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    # (comment, what the statement that it ends printed or returned)
    seen = []
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), README.name, "eval"), namespace)
            seen.append((comment, repr(value)))
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
        if comment:
            seen.append((comment, " / ".join(out.getvalue().splitlines())))
    assert seen == [("+x (0|2) / ooox (1|0)",) * 2,
                    ("GradedMult(d0=0, d1=2)",) * 2,
                    ("-48",) * 2]
