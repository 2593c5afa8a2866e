"""tools/mutate.py on a toy module: which mutants it makes, and which the
toy's check kills.  The k4holo modules themselves are scored by running the
tool by hand (README, "Mutation score")."""
import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"

TOY = """\
def sign(x: int) -> int:
    if x > 0:
        return 1
    return -1 if x else 0


def both(a, b):
    return a and not b
"""

# Checks sign away from 0 and both() on two inputs, so the mutants that
# move sign's threshold to 1 or its zero value to 1 survive.
CHECK = """\
from toy.arith import both, sign
assert sign(5) == 1 and sign(-5) == -1
assert both(True, False) and not both(True, True)
"""


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_toy_module_mutants_and_survivors(tmp_path):
    tool = _load_tool()
    # the check must not sit beside the package, or it imports the original
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "arith.py").write_text(TOY)
    check = tmp_path / "check.py"
    check.write_text(CHECK)
    # one change per mutant; the annotations (int) are left alone
    assert [site[:3] for site in tool.mutants(TOY)] == [
        (2, 11, "0 -> 1"), (2, 7, "> -> <="), (3, 15, "1 -> 2"), (4, 12, "1 -> 2"),
        (4, 24, "0 -> 1"), (8, 17, "drop not"), (8, 11, "and -> or")]
    assert "return a and b" in tool.mutants(TOY)[5][3]

    result = tool.run(package / "arith.py", [sys.executable, "-S", str(check)])
    assert result == {"module": "arith", "mutants": 7, "killed": 5, "survivors": [
        {"line": 2, "col": 11, "change": "0 -> 1", "source": "if x > 0:"},
        {"line": 4, "col": 24, "change": "0 -> 1", "source": "return -1 if x else 0"}]}
    json.dumps(result)
    # the check ran on copies: the toy module is unchanged
    assert (package / "arith.py").read_text() == TOY
