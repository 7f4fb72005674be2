import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_submodule_import_gives_the_module():
    import vbraid.hunt as h

    assert isinstance(h, types.ModuleType)
    assert h.hunt.__module__ == "vbraid.hunt"


def test_plain_import_reaches_the_submodules_and_reexports_nothing():
    # A fresh interpreter: this process has imported submodules already.
    script = (
        "import vbraid\n"
        "print(vbraid.hunt.HuntConfig.__qualname__)\n"
        "print(sorted(n for n in vars(vbraid) if not n.startswith('_')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert result.stdout.splitlines() == [
        "HuntConfig",
        "['action', 'diagram', 'hunt', 'wordproblem', 'words']",
    ]
