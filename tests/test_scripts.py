import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_near_kernel_stats_writes_its_json(tmp_path, capsys):
    script = load_script("near_kernel_stats")
    path = tmp_path / "stats.json"
    assert script.main(["--seed", "11", "--samples", "2000", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"beta", "second", "burau_kernel_word"}
    assert payload["beta"]["fixes_base_vector"] is True
    assert payload["burau_kernel_word"]["separated_from_identity"] is True
