import ast
import sys
from pathlib import Path

import polardet


def test_every_export_resolves_and_is_listed_once():
    names = polardet.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polardet, n)] == []


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency; relative imports stay in polardet
    allowed = {"numpy", "polardet", *sys.stdlib_module_names}
    sources = sorted(Path(polardet.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0], path.name)
    assert {m: f for m, f in found.items() if m not in allowed} == {}
    assert "numpy" in found
