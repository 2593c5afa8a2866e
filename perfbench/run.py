"""Benchmark of the k4holo command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op runs the real CLI as fresh processes (``python3 -m k4holo ...``
against the checkout's ``src``), one process at a time, because a user pays
interpreter start, import and table building on every call.  Every output is
compared with the references in ``refs.json``, recorded from the seed engine.

With ``--trace 0`` the run times ops for S seconds (and at least MIN_OPS ops)
and reports the end-to-end metrics.  With ``--trace 1`` it replays a fixed
round of the same seeded ops, each op once plainly and once through
``shim.py``, which records spans around the calls into every layer, and
reports the per-layer metrics per op.  The layer metrics and the end-to-end
metrics they should move are mapped in README.md.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable account of the run.  The run exits 2 without a result when the
checkout holds no k4holo sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from shim import COUNTED, DISTINCT, SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

# BENCHMARK.json lists theorem24 and certify; explore runs only when asked
# for by name (see README.md).
WORKLOADS = ("theorem24", "certify", "explore")
FORMATS = ("plain", "json", "markdown")
# The eight pairs of the theorem, kept here rather than imported from the
# program under test.
GOLDEN_PAIRS = (
    "2su(2,1)+2c",
    "su(2,2)+2su(2)+c",
    "su(3,1)+su(1,1)+su(2)+c",
    "su(3,2)+2c",
    "su(2,1)+su(3)+2c",
    "su(4,1)+2c",
    "so(6,2)+2c",
    "2su(1,1)+su(4)+c",
)
FIXED_MODULI = (2, 3, 4, 6, 12)
# Ops in one traced round.  theorem24 and certify have fixed inputs; an
# explore round spans several seeded sessions.
ROUND_OPS = {"theorem24": 1, "certify": 1, "explore": 4}

# The tail is the highest percentile with at least ten samples beyond it,
# so a run needs eleven ops to report one.
MIN_OPS = 11
SETUP_PROBES = 15
# Far above the slowest command (~1.5 s), so only a hang reaches it.
PROC_TIMEOUT_S = 15.0
# No new op or round starts after this, whatever the op count.
HARD_CAP_S = 100.0
SPIN_N = 100_000

SETUP_SCRIPT = (
    "import k4holo\n"
    "s = k4holo.build_root_system('E', 6)\n"
    "k4holo.builtin_groups()\n"
    "print(k4holo.classify_involution(k4holo.sigma2_reference(), s).label)\n"
)

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "op_cpu_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: dict[str, str] = {}
    for module, func in SPANNED:
        base = f"{module}.{func}"
        names.update({base + ".calls": "count", base + ".busy_s": "s", base + ".self_s": "s"})
    names["rootsys.decompose_closed_subset.roots_in"] = "count"
    for name in DISTINCT:
        names[name + ".distinct_ratio"] = "ratio"
    names["chevalley.check_jacobi.triples"] = "count"
    names["chevalley.check_jacobi.serial_s"] = "s"
    names["chevalley.check_jacobi.parallel_s"] = "s"
    for name in COUNTED:
        names[name + ".calls"] = "count"
    names["k4holo.import_s"] = "s"
    names["python.start_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


# ---------------------------------------------------------------- inputs

Check = Callable[[bytes, Path], "str | None"]


@dataclass(frozen=True)
class Step:
    """One CLI process of an op and the check on its stdout."""
    args: tuple[str, ...]
    check: Check


def expect(text: str) -> Check:
    want = text.encode()

    def check(out: bytes, workdir: Path) -> str | None:
        return None if out == want else "stdout differs from the reference"
    return check


def expect_selftest(text: str, dump: str, sha256: str) -> Check:
    same = expect(text)

    def check(out: bytes, workdir: Path) -> str | None:
        path = workdir / dump
        if not path.exists():
            return f"no N-table dump at {dump}"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        if digest != sha256:
            return f"N-table dump sha256 {digest} differs from the reference"
        return same(out, workdir)
    return check


def internal_exps(chain: tuple[int, ...]) -> tuple[int, ...]:
    """CLI chain order (alpha1, alpha3, alpha4, alpha5, alpha6, alpha2) to root order."""
    return (chain[0], chain[5], chain[1], chain[2], chain[3], chain[4])


def expect_fixed(chars: tuple[tuple[int, tuple[int, ...]], ...], roots: list) -> Check:
    exps = [(m, internal_exps(chain)) for m, chain in chars]
    count = sum(1 for r in roots
                if all(sum(c * e for c, e in zip(r, ex)) % m == 0 for m, ex in exps))

    def check(out: bytes, workdir: Path) -> str | None:
        try:
            doc = json.loads(out)
        except ValueError:
            return "fixed output is not JSON"
        if doc.get("fixed_root_count") != count or doc.get("dim") != count + 6:
            return (f"fixed reports {doc.get('fixed_root_count')} roots, dim "
                    f"{doc.get('dim')}; expected {count} roots, dim {count + 6}")
        return None
    return check


def chi_spec(modulus: int, chain: tuple[int, ...]) -> str:
    return f"chi m={modulus} [{','.join(map(str, chain))}]"


@dataclass(frozen=True)
class ExploreInputs:
    theta: str                                   # "group:label" of a sigma2 element
    classify: tuple[int, ...]                    # nonzero chain vector mod 2
    fixed: tuple[tuple[int, tuple[int, ...]], ...]  # (modulus, chain vector)
    realform: tuple[str, str, str, str]          # group, theta, gamma1, gamma2


def explore_inputs(seed: int, index: int, thetas: list[str],
                   candidates: list[str]) -> ExploreInputs:
    """Inputs of explore session `index`; a pure function of its arguments.

    `thetas` are the sigma2 elements as "group:label" and `candidates` the
    real (theta, Gamma) candidates as "group theta gamma1 gamma2".  The
    survey cycles over all thetas from a seeded start.
    """
    start = random.Random(f"explore:{seed}").randrange(len(thetas))
    rng = random.Random(f"explore:{seed}:{index}")
    bits = rng.randrange(1, 64)
    classify = tuple(bits >> i & 1 for i in range(6))
    fixed = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(FIXED_MODULI)
        fixed.append((m, tuple(rng.randrange(m) for _ in range(6))))
    group, theta, g1, g2 = rng.choice(candidates).split()
    return ExploreInputs(theta=thetas[(start + index) % len(thetas)], classify=classify,
                         fixed=tuple(fixed), realform=(group, theta, g1, g2))


class Workload:
    """The op sequence of one workload, built from the references."""

    def __init__(self, name: str, seed: int, refs: dict):
        self.name, self.seed, self.refs = name, seed, refs
        self.thetas = sorted(refs["survey"])
        self.candidates = sorted(refs["realform"])
        self.jobs = min(2, os.cpu_count() or 1)

    def op(self, index: int) -> list[Step]:
        refs = self.refs
        if self.name == "theorem24":
            return [Step(("theorem24", "--format", f), expect(refs["theorem24"][f]))
                    for f in FORMATS]
        if self.name == "certify":
            return [Step(("selftest", "--ntable-out", "A"),
                         expect_selftest(refs["selftest"], "A", refs["ntable_sha256"])),
                    Step(("selftest", "--jobs", str(self.jobs), "--ntable-out", "B"),
                         expect_selftest(refs["selftest"], "B", refs["ntable_sha256"]))]
        x = explore_inputs(self.seed, index, self.thetas, self.candidates)
        chain = ",".join(map(str, x.classify))
        group, theta, g1, g2 = x.realform
        return [
            Step(("survey", "--theta", x.theta), expect(refs["survey"][x.theta])),
            Step(("classify", "--char", chi_spec(2, x.classify), "--format", "json"),
                 expect(refs["classify"][chain])),
            Step(("fixed", "--chars", *(chi_spec(m, c) for m, c in x.fixed), "--format", "json"),
                 expect_fixed(x.fixed, refs["e6_roots"])),
            Step(("realform", "--group", group, "--gamma", g1, g2, "--theta", theta,
                  "--format", "json"), expect(refs["realform"][" ".join(x.realform)])),
        ]


def check_refs(refs: dict) -> str | None:
    """The references must carry the theorem: the golden pairs, verified."""
    plain = refs["theorem24"]["plain"].splitlines()
    if plain[:-2] != sorted(GOLDEN_PAIRS) or plain[-1] != "verified: true":
        return "reference theorem24 output does not list the eight golden pairs"
    report = json.loads(refs["theorem24"]["json"])
    if report["distinct_pairs"] != sorted(GOLDEN_PAIRS) or not report["verified_against_theorem24"]:
        return "reference theorem24 JSON does not list the eight golden pairs"
    if len(refs["e6_roots"]) != 72 or len(refs["survey"]) != 12 or len(refs["realform"]) != 48:
        return "reference tables are incomplete"
    return None


# --------------------------------------------------------------- running

@dataclass
class OpResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    traces: list = field(default_factory=list)


class Runner:
    """Starts CLI processes one at a time in a temporary directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("K4HOLO_")}
        self.env["PYTHONPATH"] = str(SRC)

    def process(self, argv: list[str]):
        """Run one process; return (wall, cpu, rss_mb, error, stdout)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env, start_new_session=True)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], PROC_TIMEOUT_S)[0]
                if timed_out:
                    os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(status)
            try:  # leave nothing of the session behind (pool workers)
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        stdout = out_path.read_bytes()
        error = None
        if timed_out:
            error = f"timed out after {PROC_TIMEOUT_S} s"
        elif proc.returncode != 0:
            tail = err_path.read_bytes().decode(errors="replace").strip()[-400:]
            error = f"exit code {proc.returncode}: {tail}"
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error, stdout

    def op(self, steps: list[Step], traced: bool) -> OpResult:
        res = OpResult()
        spans_path = self.workdir / "spans.json"
        for step in steps:
            if traced:
                argv = [sys.executable, str(HERE / "shim.py"), str(spans_path), *step.args]
            else:
                argv = [sys.executable, "-m", "k4holo", *step.args]
            wall, cpu, rss, error, stdout = self.process(argv)
            res.wall += wall
            res.cpu += cpu
            res.rss_mb = max(res.rss_mb, rss)
            error = error or step.check(stdout, self.workdir)
            if error:
                res.error = f"{' '.join(step.args)}: {error}"
                return res
            if traced:
                res.traces.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
        return res

    def setup_probe(self) -> tuple[float, str | None]:
        wall, _, _, error, stdout = self.process([sys.executable, "-c", SETUP_SCRIPT])
        if not error and stdout != b"sigma2\n":
            error = f"set-up probe printed {stdout!r}"
        return wall, error

    def start_probe(self) -> tuple[float, str | None]:
        wall, _, _, error, _ = self.process([sys.executable, "-c", "pass"])
        return wall, error


def spin_s() -> float:
    """A fixed pure-Python loop, timed as context for the machine's speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_N):
        x += i
    return time.perf_counter() - t0


# ------------------------------------------------------------- arithmetic

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_totals(spans: list) -> dict[str, float]:
    """calls, busy_s and self_s per span name, plus check_jacobi's serial/parallel split.

    A span is ``[name, start, end, parent_index, tag]``.  Self time is the
    duration minus the part covered by the span's children; busy time counts
    only the outermost span of each name, so recursion is not counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, (name, start, end, parent, tag) in enumerate(spans):
        add(name + ".calls", 1)
        kids = [(spans[c][1], spans[c][2]) for c in children.get(i, [])]
        add(name + ".self_s", (end - start) - covered(kids, start, end))
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            add(name + ".busy_s", end - start)
            if tag:
                add(f"{name}.{tag}_s", end - start)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least ten samples above it."""
    ranked = sorted(values)
    i = len(ranked) - 11
    return ranked[i], 100.0 * i / (len(ranked) - 1)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- runs

def measure(runner: Runner, workload: Workload, seconds: float, log) -> tuple[dict, int, int]:
    """Untraced run: end-to-end metrics, attempted ops, failed ops."""
    ops: list[OpResult] = []
    setup: list[float] = []
    spins: list[float] = []
    failed = 0
    start = time.perf_counter()
    next_probe = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(ops) - failed >= MIN_OPS or failed or elapsed >= HARD_CAP_S):
            break
        res = runner.op(workload.op(len(ops)), traced=False)
        ops.append(res)
        if res.error:
            failed += 1
            log(f"FAILED op {len(ops) - 1}: {res.error}")
        if time.perf_counter() - start >= next_probe:
            wall, error = runner.setup_probe()
            if error:  # counted as a failed op: the run is not correct
                failed += 1
                log(f"FAILED set-up probe: {error}")
            setup.append(wall)
            next_probe += seconds / SETUP_PROBES
        spins.append(spin_s())
    good = [op for op in ops if not op.error]
    walls = [op.wall for op in good]
    metrics = {}
    if len(walls) >= MIN_OPS:
        value, pct = tail(walls)
        cpus = [op.cpu for op in good]
        metrics = {
            "op_s_p50": median(walls),
            "op_s_tail": value,
            "op_cpu_s_p50": median(cpus),
            "ops_per_s": len(walls) / sum(walls),
            "peak_rss_mb": median([op.rss_mb for op in good]),
            "setup_s": median(setup),
        }
        log(f"ops: {len(ops)} attempted, {failed} failed, fail_ratio {failed / len(ops):.4g}")
        log(f"op_s_tail is p{pct:.0f} of {len(walls)} ops; op_s range "
            f"{min(walls):.4f}..{max(walls):.4f}")
        log(f"setup_s: median of {len(setup)} probes, range "
            f"{min(setup):.4f}..{max(setup):.4f}")
    log(f"spin loop (context only): median {median(spins) * 1e3:.3f} ms, range "
        f"{min(spins) * 1e3:.3f}..{max(spins) * 1e3:.3f} ms over {len(spins)} samples")
    return metrics, len(ops), failed


def round_values(traces: list[dict], n_ops: int) -> tuple[dict, dict]:
    """Per-op timings and exact round totals of one traced round."""
    totals: dict[str, float] = {}
    for doc in traces:
        for key, value in list(layer_totals(doc["spans"]).items()) + list(doc["counts"].items()):
            totals[key] = totals.get(key, 0) + value
    exact = {k: int(v) for k, v in totals.items() if not k.endswith("_s")}
    timing = {k: v / n_ops for k, v in totals.items() if k.endswith("_s")}
    return timing, exact


def trace(runner: Runner, workload: Workload, seconds: float, log) -> tuple[dict, int, int, bool]:
    """Traced run: per-layer metrics, attempted ops, failed ops, counters steady."""
    n_ops = ROUND_OPS[workload.name]
    rounds: list[tuple[dict, dict]] = []
    overhead: list[float] = []
    starts: list[float] = []
    imports: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not failed:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(rounds) >= 2) or elapsed >= HARD_CAP_S:
            break
        traces = []
        for index in range(n_ops):
            steps = workload.op(index)
            plain = runner.op(steps, traced=False)
            traced = runner.op(steps, traced=True)
            attempted += 2
            for res in (plain, traced):
                if res.error:
                    failed += 1
                    log(f"FAILED op {index}: {res.error}")
            overhead.append(traced.wall - plain.wall)
            traces += traced.traces
            wall, error = runner.start_probe()
            if error:  # counted as a failed op: the run is not correct
                failed += 1
                log(f"FAILED python start probe: {error}")
            starts.append(wall)
        if not failed:
            rounds.append(round_values(traces, n_ops))
            imports += [doc["import_s"] for doc in traces]
    steady = all(exact == rounds[0][1] for _, exact in rounds)
    if not steady:
        log("FAILED: exact counters differ between traced rounds of the same ops")
    metrics: dict[str, float] = {}
    if rounds and not failed:
        exact = rounds[0][1]
        for name in layer_metric_names():
            if name.endswith("_s"):
                metrics[name] = median([timing.get(name, 0.0) for timing, _ in rounds])
            elif name.endswith(".distinct_ratio"):
                base = name[: -len(".distinct_ratio")]
                calls = exact.get(base + ".calls", 0)
                metrics[name] = exact.get(base + ".distinct", 0) / calls if calls else 0.0
            else:
                metrics[name] = exact.get(name, 0) / n_ops
        metrics["k4holo.import_s"] = median(imports)
        metrics["python.start_s"] = median(starts)
        metrics["trace.overhead_s"] = median(overhead)
        log(f"traced rounds: {len(rounds)} of {n_ops} op(s), {len(traces)} processes each; "
            f"counters identical: {steady}")
        log(f"tracing overhead per op: {metrics['trace.overhead_s']:.4f} s, median of "
            f"{len(overhead)} paired ops; traced cli.main busy "
            f"{metrics['cli.main.busy_s']:.4f} s per op")
        for key in ("realform.center_of_fixed.calls", "rootsys.decompose_closed_subset.calls",
                    "chevalley.check_jacobi.calls", "chevalley.check_jacobi.triples"):
            log(f"{key}: {exact.get(key, 0)} per round")
    return metrics, attempted, failed, steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "k4holo" / "cli.py").is_file():
        print(f"no k4holo sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text())
    problem = check_refs(refs)
    if problem:
        print(problem, file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(f"[{args.workload} seed={args.seed} trace={args.trace}] {line}", flush=True)

    workload = Workload(args.workload, args.seed, refs)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        if args.trace:
            metrics, attempted, failed, steady = trace(runner, workload, args.seconds, log)
            names = layer_metric_names()
        else:
            metrics, attempted, failed = measure(runner, workload, args.seconds, log)
            steady = True
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0 and steady and set(metrics) == set(names),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": names[k]} for k in names if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
