"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

REFS = json.loads(run.REFS.read_text())
THETAS = sorted(REFS["survey"])
CANDIDATES = sorted(REFS["realform"])


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_explore_inputs_are_a_pure_function_of_the_seed(seed):
    first = [run.explore_inputs(seed, i, THETAS, CANDIDATES) for i in range(50)]
    again = [run.explore_inputs(seed, i, THETAS, CANDIDATES) for i in range(50)]
    assert first == again
    other = [run.explore_inputs(seed + 1, i, THETAS, CANDIDATES) for i in range(50)]
    assert first != other


def test_explore_inputs_are_valid():
    for seed in range(5):
        for i in range(40):
            x = run.explore_inputs(seed, i, THETAS, CANDIDATES)
            assert x.theta in THETAS
            assert " ".join(x.realform) in CANDIDATES
            assert len(x.classify) == 6 and set(x.classify) <= {0, 1} and any(x.classify)
            assert 1 <= len(x.fixed) <= 3
            for m, chain in x.fixed:
                assert m in run.FIXED_MODULI
                assert len(chain) == 6 and all(0 <= e < m for e in chain)


def test_survey_cycles_over_every_theta():
    assert {run.explore_inputs(7, i, THETAS, CANDIDATES).theta for i in range(12)} == set(THETAS)


def test_reference_inputs_are_what_the_engine_accepts():
    import k4holo

    sys_e6 = k4holo.build_root_system("E", 6)
    groups = k4holo.builtin_groups()
    for theta in THETAS:
        group, label = theta.split(":")
        char = groups[group].element(label)
        assert k4holo.classify_involution(char, sys_e6) is k4holo.ConjClass.SIGMA2
    report = k4holo.classify_all(sys_e6)
    engine = sorted(" ".join([c.group_name, c.theta_label, *c.gamma_labels])
                    for c in report.candidates)
    assert engine == CANDIDATES
    assert run.check_refs(REFS) is None


def test_self_time_subtracts_children_and_busy_time_skips_nested_same_name():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["a", 6.0, 7.0, 3, None],
        ["chevalley.check_jacobi", 20.0, 22.0, -1, "serial"],
    ]
    totals = run.layer_totals(spans)
    assert totals["a.calls"] == 2 and totals["b.calls"] == 2 and totals["c.calls"] == 1
    assert totals["a.self_s"] == pytest.approx((10 - 3 - 4) + 1)
    assert totals["b.self_s"] == pytest.approx((3 - 1) + (4 - 1))
    assert totals["c.self_s"] == pytest.approx(1)
    assert totals["a.busy_s"] == pytest.approx(10)
    assert totals["b.busy_s"] == pytest.approx(7)
    assert totals["chevalley.check_jacobi.serial_s"] == pytest.approx(2)
    assert "chevalley.check_jacobi.parallel_s" not in totals


def test_covered_merges_overlapping_children_and_clips_to_the_parent():
    assert run.covered([(1, 4), (2, 6), (8, 12)], 0, 10) == 7
    assert run.covered([], 0, 10) == 0


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(11)]) == (0.0, 0.0)
    assert run.tail([float(v) for v in range(21)]) == (10.0, 50.0)
    value, pct = run.tail([float(v) for v in range(101)])
    assert (value, pct) == (90.0, 90.0)


def test_fixed_check_counts_roots_itself():
    check = run.expect_fixed(((2, (1, 0, 0, 0, 1, 0)),), REFS["e6_roots"])
    assert check(b'{"fixed_root_count": 40, "dim": 46}', None) is None
    assert check(b'{"fixed_root_count": 41, "dim": 47}', None) is not None
    assert check(b"so(10)+c", None) is not None
    everything = run.expect_fixed(((4, (0,) * 6),), REFS["e6_roots"])
    assert everything(b'{"fixed_root_count": 72, "dim": 78}', None) is None


def test_traced_process_keeps_stdout_and_sees_calls_through_cli(tmp_path):
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(run.HERE / "shim.py"), str(spans), "classify",
         "--char", "chi m=2 [1,0,0,0,0,0]", "--format", "json"],
        stdout=subprocess.PIPE, check=True)
    assert done.stdout.decode() == REFS["classify"]["1,0,0,0,0,0"]
    doc = json.loads(spans.read_text())
    totals = run.layer_totals(doc["spans"])
    assert doc["counts"]["cli.parse_char_spec.calls"] == 1
    assert doc["counts"]["toral.TorusCharacter.evaluate.calls"] > 0
    assert totals["cli.main.calls"] == 1
    assert totals["reductive.fixed_subalgebra.calls"] == 1


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == ["theorem24", "certify"]
    assert set(run.WORKLOADS) == {"theorem24", "certify", "explore"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_metric_names()
