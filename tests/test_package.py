import ast
import builtins
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = SRC.parent


def compile_strictly(source, filename):
    """Compile with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compile(source, filename, "exec")


def test_sources_compile_without_warnings():
    # `is` against a literal and invalid escape sequences warn at compile time.
    # The package, the tests and the benchmark are read and compiled, not run.
    folders = (SRC / "vbraid", ROOT / "tests", ROOT / "bench")
    paths = [path for folder in folders for path in sorted(folder.glob("*.py"))]
    assert {path.parent for path in paths} == set(folders)
    for path in paths:
        compile_strictly(path.read_text(), str(path))
    for source in ("x is 0", "'\\d'"):
        with pytest.raises(SyntaxError):
            compile_strictly(source, "<negative control>")


def test_submodule_import_gives_the_module():
    import vbraid.hunt as h

    assert isinstance(h, types.ModuleType)
    assert h.hunt.__module__ == "vbraid.hunt"


def fresh_interpreter(script):
    """The standard output of ``script`` run in a new interpreter; this
    process has imported submodules already."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    return result.stdout


def test_plain_import_reaches_the_submodules_and_reexports_nothing():
    script = (
        "import vbraid\n"
        "print(vbraid.hunt.HuntConfig.__qualname__)\n"
        "print(sorted(n for n in vars(vbraid) if not n.startswith('_')))\n"
    )
    assert fresh_interpreter(script).splitlines() == [
        "HuntConfig",
        "['action', 'diagram', 'hunt', 'wordproblem', 'words']",
    ]


def test_import_loads_only_the_standard_library():
    # The package declares no dependencies: importing it may load no
    # third-party module.  It loads no multiprocessing either (see below),
    # so no module is registered again under a new name such as __mp_main__.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vbraid\n"
        "new = {n.split('.')[0] for n in sys.modules if n not in before}\n"
        "print(sorted(new - sys.stdlib_module_names))\n"
    )
    assert fresh_interpreter(script) == "['vbraid']\n"


def test_import_does_not_load_multiprocessing():
    # Only hunt() with more than one worker starts a pool; it imports
    # multiprocessing itself, so a plain import stays light.
    script = "import sys\nimport vbraid\nprint('multiprocessing' in sys.modules)\n"
    assert fresh_interpreter(script) == "False\n"


def test_import_does_not_load_fractions_or_decimal():
    # Only moved_fraction builds a Fraction, and it imports fractions itself;
    # fractions would load decimal with it.
    script = "import sys\nimport vbraid\nprint([n in sys.modules for n in ('fractions', 'decimal')])\n"
    assert fresh_interpreter(script) == "[False, False]\n"


def _module_names(node):
    """The names a module-level statement defines: a function, a class or
    the plain targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _definitions(tree):
    """Module-level public names, and the public methods and properties of
    public classes, as (qualified name, name, first line, last line)."""
    for node in tree.body:
        for name in _module_names(node):
            if not name.startswith("_"):
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                method = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not member.name.startswith("_"):
                    qualified = f"{node.name}.{member.name}"
                    yield qualified, member.name, member.lineno, member.end_lineno


def _uses(tree):
    """(line, name) for every name, attribute and from-import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def test_every_public_name_is_used_outside_its_definition():
    # A public name must be used by another line of the package, or be
    # imported or used by the benchmark or the acceptance tests; the unit
    # tests do not count.  A method or property counts as used wherever an
    # attribute of its name is, whatever the object.
    sources = sorted((SRC / "vbraid").glob("*.py"))
    readers = [*sources, *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in readers}
    uses = {}
    for path, tree in trees.items():
        for line, name in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    dead = [
        f"{path.stem}.{qualified}"
        for path in sources
        for qualified, name, first, last in _definitions(trees[path])
        if all(where == path and first <= line <= last for where, line in uses.get(name, []))
    ]
    assert dead == []


def test_every_private_module_name_is_used_outside_its_definition():
    # A module-level private function, class or assignment must be used by
    # another line of the package itself; dunder names are exempt.
    sources = sorted((SRC / "vbraid").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    uses = {}
    for path, tree in trees.items():
        for line, name in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    dead = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in _module_names(node)
        if name.startswith("_") and not name.endswith("__")
        if all(where == path and node.lineno <= line <= node.end_lineno for where, line in uses.get(name, []))
    ]
    assert dead == []


def _stored_attributes(tree):
    """(class, attribute) for every attribute a class of the tree stores:
    ``self.X = ...``, ``object.__setattr__(self, "X", ...)``, or a field of a
    dataclass or a NamedTuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        fielded = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
        fielded |= any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
        for member in node.body:
            if fielded and isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                yield node.name, member.target.id
        for inner in ast.walk(node):
            targets = inner.targets if isinstance(inner, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    if target.value.id == "self":
                        yield node.name, target.attr
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                setter = inner.func.attr == "__setattr__" and len(inner.args) >= 2
                if setter and isinstance(inner.args[1], ast.Constant):
                    yield node.name, inner.args[1].value


def _read_attributes(tree):
    """The attribute names the tree reads as ``.X``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_stored_attribute_is_read():
    # An attribute a package class stores must be read as `.X` by the
    # package, the benchmark or a test; otherwise it is dead state.
    sources = sorted((SRC / "vbraid").glob("*.py"))
    readers = [*sources, *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    read = set().union(*(_read_attributes(ast.parse(path.read_text(), str(path))) for path in readers))
    unread = [
        f"{path.stem}.{owner}.{name}"
        for path in sources
        for owner, name in _stored_attributes(ast.parse(path.read_text(), str(path)))
        if name not in read
    ]
    assert unread == []
    control = ast.parse("class C:\n    def __init__(self):\n        self.kept = self.gone = 0\n")
    stored = {name for _, name in _stored_attributes(control)}
    assert stored - _read_attributes(ast.parse("C().kept")) == {"gone"}


def _module_bindings(statements):
    """The names bound by module-level statements, looking inside ``if``
    blocks (an ``if TYPE_CHECKING:`` import counts) but not into function or
    class bodies."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.If):
            yield from _module_bindings(node.body + node.orelse)
        else:
            yield from _module_names(node)


def _annotation_names(tree):
    """(line, name) for every name that an annotation in the tree uses,
    including the names inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
            every += [arguments.vararg, arguments.kwarg]
            annotations += [argument.annotation for argument in every if argument is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.walk(ast.parse(node.value, mode="eval"))
                yield from ((node.lineno, n.id) for n in inner if isinstance(n, ast.Name))
            elif isinstance(node, ast.Name):
                yield node.lineno, node.id


def _unbound_annotation_names(tree):
    bound = set(_module_bindings(tree.body)) | set(dir(builtins))
    return [(line, name) for line, name in _annotation_names(tree) if name not in bound]


def test_every_annotation_name_is_bound_at_module_level():
    # An annotation may only name what the module binds, by an import (one
    # under `if TYPE_CHECKING:` included), a def, a class or an assignment,
    # or a builtin, for a type checker resolves it there.
    unbound = [
        f"{path.stem}:{line} {name}"
        for path in sorted((SRC / "vbraid").glob("*.py"))
        for line, name in _unbound_annotation_names(ast.parse(path.read_text(), str(path)))
    ]
    assert unbound == []
    control = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import Kept\n"
    control += "def f(a: Kept, b: 'Gone') -> int:\n    from y import Gone\n"
    assert _unbound_annotation_names(ast.parse(control)) == [(4, "Gone")]
