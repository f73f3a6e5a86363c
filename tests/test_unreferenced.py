"""Guard against dead code: every module-level function or class in the
package is referenced somewhere in src/ or tests/, or exported."""

import ast
import re
from collections import Counter
from pathlib import Path

import symprod

ROOT = Path(__file__).resolve().parents[1]


def test_no_unreferenced_definitions():
    modules = sorted(ROOT.glob("src/symprod/*.py"))
    files = modules + sorted(ROOT.glob("tests/*.py"))
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.decorator_list
                    and node.name not in symprod.__all__
                    and words[node.name] == 1):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
