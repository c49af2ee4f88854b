"""Tests of the benchmark itself: reference routes, checks, small runs.

    python3 -m pytest -q perfbench
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SCRATCH = os.path.join(W.WORK, "tests")


@pytest.fixture(scope="module")
def table():
    return R.PrimeTable(1 << 24)


@pytest.fixture(scope="module")
def encoder(table):
    return R.Encoder(table)


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


# -- reference routes ------------------------------------------------------------


def test_byte_sieve_and_miller_rabin_agree(table):
    flags = R.byte_sieve(100_000)
    assert [n for n in range(30) if flags[n]] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(R.is_prime(n) == bool(flags[n]) for n in range(100_001))
    assert table.pi(10**6) == 78498 and table.nth(78498) == 999983
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5, 7.
    for n in (561, 41041, 825265, 3215031751):
        assert not R.is_prime(n)
    assert R.is_prime(2**61 - 1) and not R.is_prime((2**31 - 1) * (2**31 + 11))


def test_prime_bounds_hold_over_the_table(table):
    """The log bounds used past the table hold wherever the table can check."""
    for m in range(39017, len(table), 997):
        u = math.log(m)
        lo, hi = R._log_prime_bounds(u, u)
        assert lo < math.log(table.nth(m)) < hi


def test_counting_recursions():
    assert [R.count_rooted(n) for n in range(1, 11)] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [R.count_topological(n) for n in range(1, 12)] == [
        1, 1, 2, 5, 12, 33, 90, 261, 766, 2312, 7068]
    assert [R.count_binary(n) for n in range(1, 15)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983, 2179]
    assert R.count_rooted(14) == 32973


def test_reference_encoder(encoder):
    assert encoder.number(R.parse_tree("((*),(*,*),*)")) == 42
    assert encoder.number(R.min_binary_shape(12)) == 143573641
    assert encoder.number(R.gi_max_shape(11)) == 3042161
    text = "(*, ((*),*))"
    assert R.write_tree(R.parse_tree(text)) == "(*,((*),*))"
    for bad in ("", "(", "(*", "()", "*,*", "(*))", "x"):
        with pytest.raises(ValueError):
            R.parse_tree(bad)


def test_inputs_depend_on_the_seed_only(table):
    assert inputs.factorize_inputs(3) == inputs.factorize_inputs(3)
    assert inputs.factorize_inputs(3) != inputs.factorize_inputs(4)
    cases = inputs.factorize_inputs(5)
    assert len(cases) == 8
    for n, factors in cases:
        assert math.prod(p**e for p, e in factors) == n
    assert inputs.encode_inputs(1, 20, table) == inputs.encode_inputs(1, 20, table)
    for text, number in inputs.encode_inputs(1, 20, table):
        assert R.Encoder(table).number(R.parse_tree(text)) == number


# -- checks reject planted wrong answers -------------------------------------------


def test_scalar_check_rejects_off_by_one_prime():
    check = W.expect_line(99999989)
    op = W.Op("nth", W.Proc(0, 1.0, 1.0, 0.0, "99999971\n", ""))
    with pytest.raises(CheckFailed):
        check(op)
    op.proc.stdout = "99999989\n"
    check(op)


def test_factorization_check_rejects_wrong_factors():
    cases = inputs.factorize_inputs(1, 1)
    good = [[[str(p), e] for p, e in f] for _, f in cases]
    W.check_factorizations(cases, good)
    (a, _), (b, _) = cases[0][1]
    for bad in (
        [[[str(a * b), 1]], good[1]],  # composite "factor"
        [[[str(a), 1]], good[1]],  # dropped factor
        [[[str(a + 2), 1], [str(b), 1]], good[1]],  # wrong factor
        good[:1],  # dropped input
    ):
        with pytest.raises(CheckFailed):
            W.check_factorizations(cases, bad)


def test_enumeration_check_rejects_dropped_or_misordered_trees(encoder):
    proc = subprocess.run(
        [sys.executable, "-m", "matula.cli", "enumerate", "--class", "binary",
         "--leaves", "9"], capture_output=True, text=True, env=W.child_env(),
        check=True)
    lines = proc.stdout.splitlines()
    W.check_enumeration(lines, "binary", "leaves", 9, 46, encoder)
    with pytest.raises(CheckFailed):
        W.check_enumeration(lines[1:], "binary", "leaves", 9, 46, encoder)
    with pytest.raises(CheckFailed):
        W.check_enumeration(lines[1:] + lines[-1:], "binary", "leaves", 9, 46, encoder)
    swapped = [R.write_tree(R.parse_tree(lines[0]), lambda c: c[::-1])] + lines[1:]
    assert swapped != lines
    with pytest.raises(CheckFailed):
        W.check_enumeration(swapped, "binary", "leaves", 9, 46, encoder)
    with pytest.raises(CheckFailed):
        W.check_enumeration(lines, "binary", "leaves", 10, 46, encoder)
    star = "(" + ",".join(["*"] * 9) + ")"
    with pytest.raises(CheckFailed):
        W.check_enumeration(lines[1:] + [star], "binary", "leaves", 9, 46, encoder)


def test_verify_and_codec_checks_reject_wrong_answers(encoder, table):
    line = ("leaves=12 minimum=143573641 witness=(((*,*),(*,*)),(((*,*),(*,*)),"
            "((*,*),(*,*)))) examined=1 pruned=1 exhaustive=True ok")
    shape = R.min_binary_shape(12)
    W.check_verify(line, "minimum", shape, encoder)
    with pytest.raises(CheckFailed):
        W.check_verify(line.replace("143573641", "143573642"), "minimum", shape, encoder)
    with pytest.raises(CheckFailed):
        W.check_verify(line.replace(" ok", " MISMATCH"), "minimum", shape, encoder)

    W.check_decoded([42, 1], ["(*,(*),(*,*))", "*"], encoder)
    for bad in (["((*),*,(*,*))", "*"], ["(*,(*),(*,*),*)", "*"], ["*"]):
        with pytest.raises(CheckFailed):
            W.check_decoded([42, 1], bad, encoder)
    cases = inputs.encode_inputs(2, 5, table)
    W.check_encoded(cases, [str(n) for _, n in cases])
    with pytest.raises(CheckFailed):
        W.check_encoded(cases, [str(n + (i == 3)) for i, (_, n) in enumerate(cases)])


def _planted(monkeypatch, label, plant):
    """Corrupt the output of the operations named ``label``."""
    real = W.spawn

    def spawn(argv, timeout):
        proc = real(argv, timeout)
        if label in " ".join(argv):
            plant(proc, argv)
        return proc

    monkeypatch.setattr(W, "spawn", spawn)


def _drop_first_line(proc, argv):
    proc.stdout = "".join(proc.stdout.splitlines(True)[1:])


def _bump_json(key):
    def plant(proc, argv):
        path = argv[argv.index(key) + 2]  # child.py MODE IN OUT
        with open(path) as fh:
            data = json.load(fh)
        if key == "codec":
            data["encoded"][0] = str(int(data["encoded"][0]) + 1)
        else:
            data[0][0][0] = str(int(data[0][0][0]) + 2)
        with open(path, "w") as fh:
            json.dump(data, fh)

    return plant


@pytest.mark.parametrize(
    "workload,label,plant",
    [
        ("prime-reach", "factorize", _bump_json("factorize")),
        ("codec-stream", "codec", _bump_json("codec")),
        ("enumerate-verify", "rooted", _drop_first_line),
    ],
)
def test_each_workload_rejects_a_planted_answer(monkeypatch, workload, label, plant):
    _planted(monkeypatch, label, plant)
    w = W.WORKLOADS[workload](W.Session(W.SMALL), 1, 1)
    ops = w.round(False, False)
    assert any(e.startswith(label) or label in e for op in ops for e in op.errors)


# -- whole runs -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload,trace",
    [("prime-reach", 0), ("codec-stream", 0), ("enumerate-verify", 0),
     ("enumerate-verify", 1)],
)
def test_small_run_end_to_end(scratch, capsys, workload, trace):
    results = os.path.join(scratch, "runs.jsonl")
    args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=trace,
                              results=results)
    run.run(args, sizes=W.SMALL)
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"] for m in wanted} == set(out["metrics"])
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    # Only the kept-failing operation fails, once in every round of six.
    if workload == "enumerate-verify":
        assert out["failed"] >= 1 and out["attempted"] == 6 * out["failed"]
    else:
        assert out["failed"] == 0
    with open(results) as fh:
        record = json.loads(fh.readlines()[-1])
    assert record["environment"]["sieve_backend"]
    assert record["environment"]["cpus"] >= 1


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def test_compare_prints_medians_ratio_and_bound(scratch, capsys):
    def write(path, value):
        with open(path, "w") as fh:
            for seed in range(3):
                fh.write(json.dumps({
                    "workload": "prime-reach", "trace": 0,
                    "metrics": {"wall_s": {"value": value + seed, "unit": "s"}},
                }) + "\n")

    old, new = os.path.join(scratch, "old.jsonl"), os.path.join(scratch, "new.jsonl")
    write(old, 10.0)
    write(new, 13.0)
    run.compare(old, new)
    row = [l for l in capsys.readouterr().out.splitlines() if "wall_s" in l][0]
    assert "11" in row and "14" in row and "1.273" in row and "WORSE" in row


def test_refuses_without_the_package(scratch):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(os.path.join(W.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prime-reach", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
