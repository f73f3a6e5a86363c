"""Guard against dead code: every module-level function or class in the
package is referenced somewhere in src/ or tests/, or exported; every
non-dunder method or property of its classes is read as an attribute,
`.name`, somewhere in src/ or tests/."""

import ast
import re
from collections import Counter
from pathlib import Path

import symprod

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(module-level function or class, False), then (method, True) for the
    non-dunder methods and properties of each class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item, True


def test_no_unreferenced_definitions():
    modules = sorted(ROOT.glob("src/symprod/*.py"))
    files = modules + sorted(ROOT.glob("tests/*.py"))
    texts = [p.read_text() for p in files]
    words = Counter(w for t in texts for w in re.findall(r"\w+", t))
    attributes = {a for t in texts for a in re.findall(r"\.(\w+)", t)}
    unused = []
    for path in modules:
        for node, method in _definitions(ast.parse(path.read_text())):
            if method:
                if node.name not in attributes:
                    unused.append(f"{path.name}:{node.name}")
            elif (not node.decorator_list
                    and node.name not in symprod.__all__
                    and words[node.name] == 1):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
