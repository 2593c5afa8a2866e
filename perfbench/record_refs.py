"""Record the reference outputs that perfbench/run.py compares against.

    python3 perfbench/record_refs.py

The references in refs.json were recorded from the seed engine and are the
behaviour every later version must reproduce byte for byte.  Re-recording
them to make a changed program pass defeats the benchmark's output check;
run this only to confirm that a fresh recording still matches.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
FORMATS = ("plain", "json", "markdown")


def cli(args: list[str], cwd: str, hashseed: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("K4HOLO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hashseed
    done = subprocess.run([sys.executable, "-m", "k4holo", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    return done.stdout.decode()


def record(hashseed: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        refs: dict = {}
        refs["theorem24"] = {f: cli(["theorem24", "--format", f], tmp, hashseed)
                             for f in FORMATS}
        report = json.loads(refs["theorem24"]["json"])
        refs["selftest"] = cli(["selftest", "--ntable-out", "n1"], tmp, hashseed)
        if cli(["selftest", "--jobs", "2", "--ntable-out", "n2"], tmp, hashseed) != refs["selftest"]:
            raise SystemExit("selftest stdout depends on --jobs")
        dumps = {Path(tmp, n).read_bytes() for n in ("n1", "n2")}
        if len(dumps) != 1:
            raise SystemExit("N-table dump depends on --jobs")
        refs["ntable_sha256"] = hashlib.sha256(dumps.pop()).hexdigest()
        refs["e6_roots"] = json.loads(cli(["roots", "--type", "E6", "--format", "json"],
                                          tmp, hashseed))["roots"]
        thetas = [f"{g['name']}:{t}" for g in report["groups"] for t in g["sigma2_elements"]]
        refs["survey"] = {t: cli(["survey", "--theta", t], tmp, hashseed) for t in thetas}
        refs["realform"] = {}
        for c in report["candidates"]:
            key = " ".join([c["group"], c["theta"], *c["gamma"]])
            refs["realform"][key] = cli(["realform", "--group", c["group"], "--gamma",
                                         *c["gamma"], "--theta", c["theta"],
                                         "--format", "json"], tmp, hashseed)
        refs["classify"] = {}
        for bits in range(1, 64):
            chain = ",".join(str(bits >> i & 1) for i in range(6))
            refs["classify"][chain] = cli(["classify", "--char", f"chi m=2 [{chain}]",
                                           "--format", "json"], tmp, hashseed)
        return refs


def main() -> int:
    refs = record("0")
    if record("1") != refs:
        raise SystemExit("outputs depend on the string hash seed")
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    if REFS.exists() and REFS.read_text() != text:
        print(f"a fresh recording differs from {REFS.name}; not overwriting", file=sys.stderr)
        return 1
    REFS.write_text(text)
    print(f"{REFS.name}: {len(text)} bytes, unchanged or newly written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
