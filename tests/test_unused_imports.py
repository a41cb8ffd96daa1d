"""No module of the package imports a name it never reads, no private
helper of the package goes unread, and no public name is read only by the
tests.

No lint tool is installed, so this walks each module's syntax tree: every
name an `import` or `from ... import` binds must be read (loaded) somewhere
in the module, an attribute chain such as `model.phase_one` reading `model`.
The package's `__init__.py` imports its layer modules for their side effect
of loading them, so it is skipped. Every private top-level function (one
name with a leading underscore) must be read somewhere in the package,
outside its own definition, by name or as a module attribute. Every public
top-level function and class of the package, and every public method and
property of those classes, must be read somewhere in the package or in
`bench/`: a reader that only the tests call belongs in the tests. So must
every attribute that the `__init__` of a package class sets on `self`. A
method, property or attribute counts as read only by an attribute load
(`p.a`), a function or class also by its bare name.

The checks match names, not types: a load of `x.cones` counts as reading
every member named `cones`, whichever class `x` is. So every public member
name that two package classes share, or that names a field or a top-level
function as well, is listed in SHARED_MEMBERS, each checked by hand to be
read on its own class; a new shared name fails until it is looked at. A
member that shares its name with an attribute outside the package (an
argparse option, say) can still hide an unread member.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deltahull"
BENCH = PACKAGE.parents[1] / "bench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Each read on its own class: t.cones and fan.cones; p.n, stats.n and fan.n.
SHARED_MEMBERS = {
    "cones": ["hull.Triangulation.cones", "subdivision.SubdivisionFan.cones"],
    "n": ["model.HPolyhedron.n", "stats.FanStats.n", "subdivision.SubdivisionFan.n"],
}


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


def loads(trees) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """The ids of the nodes of `trees` that load each name, as an attribute
    and alone."""
    attrs: dict[str, set[int]] = {}
    names: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, set()).add(id(node))
    return attrs, names


def read_elsewhere(definition, found, member: bool = False) -> bool:
    """Whether some load of the definition's name lies outside its body: an
    attribute load, or for a non-member also a bare-name load."""
    attrs, names = found
    loaded = attrs.get(definition.name, set())
    if not member:
        loaded = loaded | names.get(definition.name, set())
    return not loaded <= {id(node) for node in ast.walk(definition)}


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """The private top-level functions of `sources`, module name -> text,
    that no code in them reads outside the function's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = loads(trees.values())
    return sorted(
        f"{module}.{fn.name}"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name[:1] == "_" and fn.name[:2] != "__"
        and not read_elsewhere(fn, found)
    )


def public_definitions(tree):
    """(qualified name, node, is a member) of each public top-level function
    and class of a module, and of each public method and property of its
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[:1] != "_":
            yield node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[:1] != "_":
                    yield f"{node.name}.{item.name}", item, True


def unread_public_names(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The public names of `sources`, module name -> text, that no code in
    them or in the `readers` texts reads outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = loads([*trees.values(), *map(ast.parse, readers)])
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition, member in public_definitions(tree)
        if not read_elsewhere(definition, found, member)
    )


def unread_init_attributes(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The attributes that the `__init__` of a class of `sources`, module
    name -> text, sets on `self` and that no attribute load in them or in
    the `readers` texts reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    attrs, _ = loads([*trees.values(), *map(ast.parse, readers)])
    return sorted(
        f"{module}.{node.name}.{target.attr}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for target in ast.walk(init)
        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
        and isinstance(target.value, ast.Name) and target.value.id == "self"
        and target.attr not in attrs
    )


def shared_member_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each public method or property name of a public class of `sources`
    that another definition uses too, a class's method, property or field
    or a top-level function, mapped to all its definitions."""
    users: dict[str, list[str]] = {}
    members = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                users.setdefault(node.name, []).append(f"{module}.{node.name}")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                    if name[:1] != "_" and node.name[:1] != "_":
                        members.add(name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                users.setdefault(name, []).append(f"{module}.{node.name}.{name}")
    return {name: sorted(users[name]) for name in sorted(members) if len(users[name]) > 1}


def test_the_check_finds_an_unread_private_function():
    sources = {
        "a": "def _alone():\n    return _alone()\n\ndef _used():\n    pass\n",
        "b": "from . import a\nx = a._used\n\ndef __getattr__(name):\n    pass\n",
    }
    assert unread_private_functions(sources) == ["a._alone"]


def test_no_unread_private_functions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_functions(sources) == []


def test_the_check_finds_an_unread_public_name():
    sources = {
        "a": (
            "class Box:\n    def size(self):\n        return self.size()\n\n"
            "    @property\n    def used(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n\n"
            "def alone():\n    return alone\n\n"
            "def caller():\n    pass\n"
        ),
    }
    readers = ["from deltahull import a\na.caller(a.Box().used)\nsize = 1\nprint(size)\n"]
    assert unread_public_names(sources, readers) == ["a.Box.size", "a.alone"]  # a bare `size` is no member
    assert unread_public_names(sources, []) == ["a.Box", "a.Box.size", "a.Box.used", "a.alone", "a.caller"]


def test_every_public_name_has_a_reader_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    assert unread_public_names(sources, readers) == []


def test_the_check_finds_an_unread_init_attribute():
    sources = {
        "a": (
            "class Box:\n    def __init__(self, size):\n        self.size = size\n"
            "        self.kept = [size]\n        other.loose = 1\n\n"
            "    def fill(self):\n        self.kept.append(1)\n"
        ),
    }
    assert unread_init_attributes(sources, []) == ["a.Box.size"]
    assert unread_init_attributes(sources, ["print(box.size)\n"]) == []


def test_every_init_attribute_has_a_reader_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    assert unread_init_attributes(sources, readers) == []


def test_the_check_finds_a_shared_member_name():
    sources = {
        "a": (
            "class Box:\n    size: int\n\n    def fill(self):\n        pass\n\n"
            "    @property\n    def used(self):\n        pass\n\n"
            "    def _own(self):\n        pass\n"
        ),
        "b": (
            "class Bag:\n    used: int\n\n    def size(self):\n        pass\n\n"
            "    def _own(self):\n        pass\n\n"
            "def fill():\n    pass\n"
        ),
    }
    assert shared_member_names(sources) == {
        "fill": ["a.Box.fill", "b.fill"],
        "size": ["a.Box.size", "b.Bag.size"],
        "used": ["a.Box.used", "b.Bag.used"],
    }


def test_every_shared_member_name_has_been_looked_at():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert shared_member_names(sources) == SHARED_MEMBERS
