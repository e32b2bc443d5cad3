"""Which package modules each module of sturmjsr imports, read from its source.

The table is the layering: a new import between the package's modules must
be added to it, and one that inverts a layer fails.  words imports only
errors; dynamics, below the certificate, the staircase and the brute force,
imports none of them; and the staircase reads the thresholds off the induced
system, not from certify.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sturmjsr"

IMPORTS = {
    "__init__": {"certify", "classify", "dynamics", "errors", "jsr", "matrices", "pairfile",
                 "staircase", "words"},
    "certify": {"dynamics", "errors", "matrices", "scalar"},
    "classify": {"errors", "matrices", "scalar"},
    "cli": {"certify", "classify", "dynamics", "errors", "jsr", "pairfile", "scalar",
            "staircase", "words"},
    "dynamics": {"classify", "errors", "matrices", "scalar"},
    "errors": set(),
    "jsr": {"dynamics", "errors", "matrices", "scalar", "words"},
    "matrices": {"errors", "scalar"},
    "pairfile": {"errors", "matrices", "scalar"},
    "scalar": {"errors"},
    "staircase": {"dynamics", "errors", "jsr", "matrices", "scalar", "words"},
    "words": {"errors"},
}


def package_imports(path: Path) -> set[str]:
    """The sturmjsr modules that the module at path imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif node.module and node.module.startswith("sturmjsr."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("sturmjsr.")}
    return found


def test_the_table_names_every_module():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_module_imports_match_the_table(module):
    assert package_imports(PACKAGE / f"{module}.py") == IMPORTS[module]


def test_layers():
    assert IMPORTS["words"] == {"errors"}
    assert not IMPORTS["dynamics"] & {"certify", "staircase", "jsr"}
    assert "certify" not in IMPORTS["staircase"]
