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


def test_package_text_io_names_its_encoding():
    # read_text, write_text and a text-mode open() pass encoding=, so that
    # no file's text depends on the locale
    missing = []
    for path in sorted(Path(polardet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call) or any(k.arg == "encoding"
                                                     for k in node.keywords):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
                missing.append(f"{path.name}:{node.lineno}")
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if not (isinstance(mode, ast.Constant) and "b" in mode.value):
                    missing.append(f"{path.name}:{node.lineno}")
    assert missing == []
