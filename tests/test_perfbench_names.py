"""The names the benchmark harness reaches in the package still resolve.

perfbench/shim.py wraps the functions it lists in SPANNED and COUNTED, and
perfbench/run.py runs SETUP_SCRIPT against the package.  Both files are only
read here: the shim is loaded without running its main, and the script is
taken from run.py's source.  So removing or renaming a function the traced
benchmark reaches fails this test, not a later traced run.
"""
import ast
import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import k4holo
import k4holo.cli  # noqa: F401  (the shim traces what this import loads)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", PERFBENCH / "shim.py")
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


def _setup_script() -> str:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_SCRIPT"]):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no SETUP_SCRIPT")


def _resolve(dotted: str):
    obj = k4holo
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves():
    shim = _load_shim()
    names = [f"{module}.{func}" for module, func in shim.SPANNED]
    names += [*shim.COUNTED, *shim.FROZEN, *shim.DISTINCT]
    assert len(names) > 20
    assert [name for name in names if not callable(_resolve(name))] == []


def test_setup_script_names_resolve_and_it_runs():
    script = _setup_script()
    used = {node.attr for node in ast.walk(ast.parse(script))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "k4holo"}
    assert "builtin_groups" in used
    assert [name for name in sorted(used) if not callable(getattr(k4holo, name, None))] == []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(script, {})
    assert out.getvalue() == "sigma2\n"


def test_setup_script_loads_only_the_layers_it_uses():
    # a fresh process: the package imports each module when a name of it is read
    code = _setup_script() + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('k4holo.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "sigma2\n['k4holo.errors', 'k4holo.reductive', 'k4holo.rootsys', 'k4holo.toral']\n")
