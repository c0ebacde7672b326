"""No dead code: every definition in the package is named somewhere else.

A function, method or class defined under src/ringkit that no source,
test or benchmark file names outside its own definition is reached by
nothing but a string, so it is dead.  Dunder methods are called by the
interpreter and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def _python_files():
    for top in ("src", "tests", "perfbench"):
        yield from sorted((ROOT / top).rglob("*.py"))


def test_every_definition_is_named_outside_itself():
    lines_of = {}
    words = Counter()
    for path in _python_files():
        lines = path.read_text(encoding="utf-8").splitlines()
        lines_of[path] = lines
        for line in lines:
            words.update(WORD.findall(line))
    dead = []
    for path in sorted((ROOT / "src" / "ringkit").rglob("*.py")):
        tree = ast.parse("\n".join(lines_of[path]), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = lines_of[path][node.lineno - 1 : node.end_lineno]
            inside = sum(WORD.findall(line).count(name) for line in own)
            if words[name] == inside:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)
