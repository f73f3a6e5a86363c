"""Guard against dead code: every module-level function or class in the
package, and every non-dunder method of its classes, is referenced somewhere
in src/ or tests/, or exported."""

import ast
import re
from collections import Counter
from pathlib import Path

import symprod

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """Module-level functions and classes, then the methods of each class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item


def test_no_unreferenced_definitions():
    modules = sorted(ROOT.glob("src/symprod/*.py"))
    files = modules + sorted(ROOT.glob("tests/*.py"))
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    unused = []
    for path in modules:
        for node in _definitions(ast.parse(path.read_text())):
            if (not node.decorator_list
                    and node.name not in symprod.__all__
                    and words[node.name] == 1):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
