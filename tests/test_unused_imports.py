"""No module of the package imports a name it never reads.

No lint tool is installed, so this walks each module's syntax tree: every
name an `import` or `from ... import` binds must be read (loaded) somewhere
in the module, an attribute chain such as `model.phase_one` reading `model`.
The package's `__init__.py` imports its layer modules for their side effect
of loading them, so it is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deltahull"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path\nfrom math import gcd as g, lcm\nx = lcm(2, 3)\n"
    assert unused_imports(source) == ["g", "os"]
    assert unused_imports("import os\nos = 1\n") == ["os"]  # rebound, never read
    assert unused_imports("from fractions import Fraction\nx: Fraction\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
