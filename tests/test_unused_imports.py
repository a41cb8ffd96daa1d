"""No module of the package imports a name it never reads, and no private
helper of the package goes unread.

No lint tool is installed, so this walks each module's syntax tree: every
name an `import` or `from ... import` binds must be read (loaded) somewhere
in the module, an attribute chain such as `model.phase_one` reading `model`.
The package's `__init__.py` imports its layer modules for their side effect
of loading them, so it is skipped. Every private top-level function (one
name with a leading underscore) must be read somewhere in the package,
outside its own definition, by name or as a module attribute.
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


def reads(node, name: str) -> bool:
    """Whether the syntax node loads `name`, alone or as an attribute."""
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and node.id == name
    return isinstance(node, ast.Attribute) and node.attr == name


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """The private top-level functions of `sources`, module name -> text,
    that no code in them reads outside the function's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unread = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name[:1] != "_" or fn.name[:2] == "__":
                continue
            own = {id(node) for node in ast.walk(fn)}
            nodes = (node for other in trees.values() for node in ast.walk(other))
            if not any(id(node) not in own and reads(node, fn.name) for node in nodes):
                unread.append(f"{module}.{fn.name}")
    return sorted(unread)


def test_the_check_finds_an_unread_private_function():
    sources = {
        "a": "def _alone():\n    return _alone()\n\ndef _used():\n    pass\n",
        "b": "from . import a\nx = a._used\n\ndef __getattr__(name):\n    pass\n",
    }
    assert unread_private_functions(sources) == ["a._alone"]


def test_no_unread_private_functions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_functions(sources) == []
