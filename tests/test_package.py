import ast
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
