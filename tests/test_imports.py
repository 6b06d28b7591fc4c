"""The package stays stdlib-only at run time."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "asid"


def _outside_imports(path: Path) -> list[str]:
    """Modules imported by ``path`` that are neither asid's own nor the standard library."""
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names | {"asid"}]
    return outside


def test_every_import_is_package_relative_or_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: _outside_imports(path) for path in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}
