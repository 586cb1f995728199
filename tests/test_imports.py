"""The runtime stays stdlib-only: every import in the package is either
package-relative or a standard-library module (test-only packages such as
sympy, hypothesis or jsonschema must never leak into ``src``)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "loghodgelab"


def _foreign_imports(path: Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "loghodgelab" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{node.lineno}: {name}")
    return foreign


def test_package_imports_only_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    foreign = [line for path in modules for line in _foreign_imports(path)]
    assert not foreign, "non-stdlib imports in the package:\n" + "\n".join(foreign)


def test_guard_flags_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import linalg\nimport sympy.core\n"
                     "from jsonschema import validate\n")
    assert _foreign_imports(probe) == ["probe.py:3: sympy.core", "probe.py:4: jsonschema"]
