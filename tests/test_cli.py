import ast
import io
import json
import os
import signal
import subprocess
import sys
import threading
from functools import reduce
from contextlib import redirect_stderr, redirect_stdout
from math import log
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    TreeClass,
    binary_caterpillar,
    cli,
    encode,
    extremal,
    min_binary_numbers,
    min_binary_tree,
    primes,
)

from oracles import caterpillar_ln_intervals


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_worked_example(capsys):
    code, out, err = run_cli(capsys, "encode", "((*),(*,*),*)")
    assert (code, out, err) == (0, "42\n", "")


def test_encode_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("*\n(*,*)\n\n((*),(*,*),*)\n"))
    code, out, _ = run_cli(capsys, "encode", "-")
    assert code == 0
    assert out == "1\n4\n42\n"


def test_encode_from_stdin_answers_each_line_as_it_arrives():
    proc = subprocess.Popen(
        [sys.executable, "-m", "matula.cli", "encode", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        proc.stdin.write("((*),(*,*),*)\n")
        proc.stdin.flush()
        # The first answer must come back while stdin is still open.
        answers = []
        reader = threading.Thread(target=lambda: answers.append(proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert answers == ["42\n"]
        proc.stdin.write("(*,*)\n")
        proc.stdin.close()
        assert proc.stdout.read() == "4\n"
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait(timeout=30)


def test_decode_one(capsys):
    code, out, _ = run_cli(capsys, "decode", "1")
    assert (code, out) == (0, "*\n")


def test_decode_worked_example(capsys):
    code, out, _ = run_cli(capsys, "decode", "42")
    assert (code, out) == (0, "(*,(*),(*,*))\n")


def test_decode_dot(capsys):
    code, out, _ = run_cli(capsys, "decode", "8", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 3


def test_round_trip_through_cli(capsys):
    for n in range(1, 1001):
        code, out, _ = run_cli(capsys, "decode", str(n))
        assert code == 0
        code, out2, _ = run_cli(capsys, "encode", out.strip())
        assert code == 0
        assert out2.strip() == str(n)


def test_params_accepts_tree_or_number(capsys):
    code, out, _ = run_cli(capsys, "params", "42")
    assert code == 0
    assert "vertices=7" in out and "leaves=4" in out
    code, out2, _ = run_cli(capsys, "params", "((*),(*,*),*)")
    assert out2 == out


def test_params_of_a_non_decimal_digit_is_a_usage_error(capsys):
    # "²" is a digit to str.isdigit but not a decimal number to int().
    code, out, err = run_cli(capsys, "params", "²")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "params", "42")
    record = json.loads(out)
    assert record["vertices"] == 7
    assert record["leaves"] == 4
    assert record["wiener"] == 46
    assert out == (
        '{"height": 2, "leaves": 4, "max_outdegree": 3, '
        '"outdegree_multiset": [0, 0, 0, 0, 1, 2, 3], "vertices": 7, "wiener": 46}\n'
    )


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "topological", "--leaves", "4"
    )
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 5
    assert lines == sorted(lines)


def test_enumerate_with_matula(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "binary", "--leaves", "4", "--with-matula"
    )
    rows = [line.split("\t") for line in out.splitlines()]
    assert code == 0
    assert len(rows) == 2
    assert {row[1] for row in rows} == {"49", "86"}


def test_enumerate_binary_14_under_a_low_ceiling(capsys):
    code, out, err = run_cli(
        capsys, "--prime-bound", "200000000", "enumerate", "--class", "binary", "--leaves", "14"
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2179


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "rooted", "--vertices", "5", "--count"
    )
    assert (code, out) == (0, "9\n")


def test_json_count_is_a_decimal_string(capsys):
    # Far past 2^53, where a JSON number loses digits in most readers.
    code, out, _ = run_cli(
        capsys, "--json", "enumerate", "--class", "rooted", "--vertices", "60", "--count"
    )
    assert (code, out) == (0, '{"count": "16486885726043465205200778"}\n')


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--class", "topological", "--leaves", "13"
    )
    assert code == 3
    assert "cap" in err
    # The caps are fixed; counting holds no tree and has a bound of its own.
    for argv, cap in [
        (("rooted", "--vertices", "15"), 14),
        (("binary", "--leaves", "21"), 20),
        (("rooted", "--vertices", "2001", "--count"), 2000),
    ]:
        assert run_cli(capsys, "enumerate", "--class", *argv) == (
            3, "", f"error: {argv[0]} size {argv[2]} exceeds cap {cap}\n"
        )


@pytest.mark.parametrize("extra", [
    # No cap can be raised.
    ("--max-leaves", "5"),
    ("--max-vertices", "5"),
    # Counting prints no trees, so it has no Matula numbers to append.
    ("--count", "--with-matula"),
])
def test_enumerate_usage_errors(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        cli.run(["enumerate", "--class", "rooted", "--vertices", "5", *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (("rooted", "--leaves", "5"), "rooted trees are sized by vertices, not leaves"),
    (("binary", "--vertices", "5"), "binary trees are sized by leaves, not vertices"),
    (("topological", "--vertices", "5"), "topological trees are sized by leaves, not vertices"),
])
def test_enumerate_size_flag_must_fit_the_class(capsys, argv, message):
    # The class fixes what a size counts; the CLI is where a size is named.
    assert run_cli(capsys, "enumerate", "--class", *argv) == (2, "", f"error: {message}\n")


def test_prime_bound_flag_validation(capsys):
    # Named like the flag, not the library's argument.
    for value in ["1", "70", "281474976710657", "99999999999999999999"]:
        code, out, err = run_cli(capsys, "--prime-bound", value, "primes", "nth", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --prime-bound must be in [71, {2**48}], got {value}\n"


def test_the_least_ceiling_prints_finite_intervals(capsys):
    # Under the least ceiling, p_20 = 71, q_5 = 2 p_86 lies past it and
    # still prints a finite interval.
    code, out, err = run_cli(capsys, "--prime-bound", "71", "seq", "q", "--max", "5")
    rows = [line.split("\t") for line in out.splitlines()]
    assert (code, err) == (0, "")
    assert rows[:4] == [["1", "1"], ["2", "4"], ["3", "14"], ["4", "86"]]
    lo, hi = _interval(rows[4][1], "ln_value")
    assert lo < log(886) < hi


@pytest.mark.parametrize("value", ["abc", "1", "281474976710657", "99999999999999999999"])
def test_the_prime_bound_variable_is_not_read(value):
    # The ceiling comes from --prime-bound or the library alone: a value
    # the flag would refuse is ignored.
    proc = subprocess.run(
        [sys.executable, "-m", "matula.cli", "primes", "nth", "5"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, MATULA_PRIME_BOUND=value),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "11\n", "")


def test_bad_prime_bound_variable_keeps_an_installed_oracle(capsys, ceiling, monkeypatch):
    installed = ceiling(100)
    monkeypatch.setenv("MATULA_PRIME_BOUND", "abc")
    assert run_cli(capsys, "primes", "nth", "5") == (0, "11\n", "")
    assert primes.default_oracle() is installed


def test_seq_q(capsys):
    code, out, _ = run_cli(capsys, "seq", "q", "--max", "6")
    assert code == 0
    assert out == "1\t1\n2\t4\n3\t14\n4\t86\n5\t886\n6\t13766\n"


def test_seq_l_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "seq", "l", "--max", "4")
    values = [json.loads(line)["value"] for line in out.splitlines()]
    assert code == 0
    assert values == ["1", "4", "14", "49"]


def test_primes_queries(capsys):
    assert run_cli(capsys, "primes", "nth", "14")[1] == "43\n"
    assert run_cli(capsys, "primes", "index", "43")[1] == "14\n"
    assert run_cli(capsys, "primes", "pi", "100")[1] == "25\n"


def test_primes_usage_error_on_composite(capsys):
    code, _, err = run_cli(capsys, "primes", "index", "4")
    assert code == 2
    assert "composite" in err


def test_prime_bound_flag_range_exit(capsys):
    code, _, err = run_cli(capsys, "--prime-bound", "100", "primes", "nth", "26")
    assert code == 3
    assert "offending index 26" in err


def test_syntax_error_exit(capsys):
    code, _, err = run_cli(capsys, "encode", "(*,)")
    assert code == 2
    assert "offset" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.run(["no-such-command"])
    assert err.value.code == 2


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--max", "6")
    assert code == 0
    lines = out.splitlines()
    assert all("holds" in line for line in lines)
    for product in ("86", "49", "886", "301", "13766", "3101", "1849"):
        assert any(f" {product} <= " in line for line in lines)


def _interval(field, key):
    """(lo, hi) from the text ``key=[lo,hi]``."""
    assert field.startswith(f"{key}=[") and field.endswith("]"), field
    lo, hi = map(float, field.removeprefix(f"{key}=[").removesuffix("]").split(","))
    assert lo < hi
    return lo, hi


_DEFAULT = ("--prime-bound", str(2**32))


def test_verify_lemma1_up_to_the_cap(capsys):
    code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "lemma1", "--max", "300")
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 22500)
    assert "VIOLATED" not in out and all(" holds" in line for line in lines)
    equalities = [line for line in lines if line.endswith(" holds (equality)")]
    assert equalities == [line for line in lines if line.startswith("(1,")]
    assert len(equalities) == 299


def test_a_value_past_the_ceiling_prints_its_bounds(capsys):
    # q_10 = 2 p_300427382 is past the ceiling; q_9 = 300427382 is not.
    code, out, _ = run_cli(capsys, *_DEFAULT, "seq", "q", "--max", "10")
    rows = [line.split("\t") for line in out.splitlines()]
    assert code == 0 and rows[8] == ["9", "300427382"]
    q10 = rows[9][1]
    _interval(q10, "ln_value")
    code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "lemma1", "--max", "10")
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert code == 0
    assert lines["(4,5)"] == "3049169 <= 300427382 holds"
    assert lines["(5,5)"] == f"47375689 <= {q10.replace('value', 'rhs')} holds"
    lhs, _, rhs, *status = lines["(1,9)"].split()
    assert _interval(lhs, "ln_lhs") == _interval(rhs, "ln_rhs")
    assert status == ["holds", "(equality)"]
    # The claim of the same tree prints the same interval, also after the
    # refused exact attempts above computed M(C_9).
    code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "max-topological", "--leaves", "10")
    assert out.split()[1] == q10.replace("value", "maximum")
    # Past k = 10 no exact attempt is made, and each route values C_k from
    # bounds taken as its caterpillars were built.
    for k in (11, 12, 20):
        code, out, _ = run_cli(capsys, *_DEFAULT, "seq", "q", "--max", str(k))
        interval = _interval(out.splitlines()[-1].split("\t")[1], "ln_value")
        code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "max-topological", "--leaves", str(k))
        assert _interval(out.split()[1], "ln_maximum") == interval, k
        code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "lemma1", "--max", str(k))
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert _interval(lines[f"(1,{k - 1})"].split()[2], "ln_rhs") == interval, k


def test_a_balanced_tree_past_the_ceiling_prints_one_interval(capsys):
    # l_21 is the first balanced minimum past the ceiling.  Its row in seq
    # and the certificate's minimum are the same tree, valued by one route.
    for k in (21, 32, extremal.SIZE_CAP):
        code, out, _ = run_cli(capsys, *_DEFAULT, "seq", "l", "--max", str(k))
        interval = _interval(out.splitlines()[-1].split("\t")[1], "ln_value")
        code, out, _ = run_cli(capsys, *_DEFAULT, "verify", "min-binary", "--leaves", str(k))
        assert code == 0 and out.endswith(" ok\n")
        assert _interval(out.split()[1], "ln_minimum") == interval, k


def test_seq_l_prints_every_row_under_a_small_ceiling(capsys):
    # Under 100 the bounds of B_63 and B_64 overlap, and their exact numbers
    # need p_49 = 227.  The family is built in its proven branch order, so
    # they are never compared: every row prints, and rows 1 to 20 hold ln l_k.
    exact = min_binary_numbers(20)  # under the default ceiling 2^32
    code, out, _ = run_cli(capsys, "--prime-bound", "100", "seq", "l", "--max", "300")
    rows = [line.split("\t") for line in out.splitlines()]
    assert code == 0 and [k for k, _ in rows] == [str(k) for k in range(1, 301)]
    for (k, value), l_k in zip(rows, exact):
        if value.startswith("ln_value="):
            lo, hi = _interval(value, "ln_value")
            assert lo <= log(l_k) <= hi, k
        else:
            assert int(value) == l_k, k


def _distinct_nodes(trees):
    """The number of distinct node objects in the given trees."""
    seen = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return len(seen)


@pytest.mark.parametrize("which", ["q", "l"])
def test_seq_values_one_node_shared_family(capsys, monkeypatch, which):
    # The rows are the members of one family, so k rows hold k nodes.
    valued = []
    value = cli._value
    monkeypatch.setattr(cli, "_value", lambda key, tree: valued.append(tree) or value(key, tree))
    code, _, _ = run_cli(capsys, *_DEFAULT, "seq", which, "--max", "300")
    assert code == 0 and len(valued) == 300
    assert _distinct_nodes(valued) == 300


def test_json_values_past_the_ceiling_name_their_bounds(capsys):
    code, out, _ = run_cli(capsys, *_DEFAULT, "--json", "seq", "q", "--max", "10")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[8] == {"k": 9, "value": "300427382"}
    assert set(rows[9]) == {"k", "ln_value"}
    code, out, _ = run_cli(capsys, *_DEFAULT, "--json", "verify", "lemma1", "--max", "10")
    records = {(r["k1"], r["k2"]): r for r in map(json.loads, out.splitlines())}
    assert records[(5, 5)]["lhs"] == "47375689"
    assert records[(5, 5)]["ln_rhs"] == rows[9]["ln_value"]
    assert set(records[(1, 9)]) == {"k1", "k2", "ln_lhs", "ln_rhs", "holds", "equality"}
    assert set(records[(4, 5)]) == {"k1", "k2", "lhs", "rhs", "holds", "equality"}


def test_intervals_past_the_ceiling_contain_the_exact_values(capsys, ceiling):
    # Under 2^36 the exact numbers are feasible: q_10 needs p_300427382 and
    # l_21 = p_{l_8} p_{l_13} needs p_1260538619 (about 1 and 3.5 s).
    ceiling(2**36)
    exact = {"q": encode(binary_caterpillar(10)), "l": encode(min_binary_tree(21))}
    assert exact == {"q": 12942000398, "l": 18372645935658281}
    for which, k in (("q", 10), ("l", 21)):
        code, out, _ = run_cli(capsys, *_DEFAULT, "seq", which, "--max", str(k))
        lo, hi = _interval(out.splitlines()[-1].split("\t")[1], "ln_value")
        assert code == 0 and lo < log(exact[which]) < hi


def test_seq_q_overlaps_the_oracle_intervals(capsys):
    # A second route to bounds on ln q_k: Dusart's 2010 bounds applied to
    # q_{k+1} = 2 p_{q_k} from the exact q_9.
    code, out, _ = run_cli(capsys, *_DEFAULT, "seq", "q", "--max", str(extremal.SIZE_CAP))
    rows = [line.split("\t") for line in out.splitlines()]
    assert code == 0 and len(rows) == extremal.SIZE_CAP
    for (k, value), (olo, ohi) in zip(rows, caterpillar_ln_intervals(extremal.SIZE_CAP)[1:]):
        if value.startswith("ln_value="):
            lo, hi = _interval(value, "ln_value")
            assert lo <= ohi and olo <= hi, k
        else:
            assert olo <= log(int(value)) <= ohi, k


def test_verify_max_topological(capsys):
    code, out, _ = run_cli(capsys, "verify", "max-topological", "--leaves", "5")
    assert code == 0
    assert "maximum=886" in out and "ok" in out


def test_verify_min_binary(capsys):
    code, out, _ = run_cli(capsys, "verify", "min-binary", "--leaves", "6")
    assert code == 0
    assert "minimum=1589" in out


def test_verify_min_topological(capsys):
    code, out, _ = run_cli(capsys, "verify", "min-topological", "--leaves", "6")
    assert (code, out) == (0, "leaves=6 minimum=64 witness=(*,*,*,*,*,*) ok\n")


def test_verify_prints_the_certified_interval_past_the_ceiling(capsys):
    # q_6 = 13766 = 2 p_886 needs p_886 = 6883, past a ceiling of 5000.
    code, out, _ = run_cli(
        capsys, "--prime-bound", "5000", "verify", "max-topological", "--leaves", "6"
    )
    assert code == 0 and out.endswith(" ok\n")
    interval = out.split()[1].removeprefix("ln_maximum=")
    lo, hi = map(float, interval.strip("[]").split(","))
    assert lo < log(13766) < hi


# Ceilings below p_20 = 71, where no upper bound on p_m holds, are refused
# before any work.
_TOO_LOW = [(verb, c) for verb in ("min-binary", "max-topological") for c in ("2", "3", "5")]
# The sequences and Lemma 1 share the extremal size cap.
_CAPPED = [["seq", "q"], ["seq", "l"], ["verify", "lemma1"]]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["verify", "gi-max", "--vertices", "4"], 2, "n >= 5"),
        (["verify", "min-topological", "--leaves", "1"], 2, "n >= 2"),
        (["verify", "max-topological", "--leaves", "0"], 2, ">= 1"),
        (["verify", "min-binary", "--leaves", str(extremal.SIZE_CAP + 1)], 3, "exceeds cap"),
        (["verify", "prime-bounds", "--max-m", "1"], 2, "--max-m must be >= 2, got 1"),
        # Two splits whose bounds on ln M overlap: their exact numbers need
        # p_301 = 1993, past the ceiling.
        (["--prime-bound", "1000", "verify", "min-binary", "--leaves", "30"], 3,
         "offending index 301"),
        *[(["--prime-bound", c, "verify", verb, "--leaves", "3"], 2,
           "--prime-bound must be in [71, ") for verb, c in _TOO_LOW],
        *[([*argv, "--max", "301"], 3, "exceeds cap 300") for argv in _CAPPED],
        # As above: no row is printed before the refusal.
        *[(["--prime-bound", "5", "seq", which, "--max", "4"], 2, "--prime-bound must be in [71, ")
          for which in "ql"],
    ],
    ids=["gi-max-4", "min-topological-1", "max-topological-0", "past-the-cap",
         "prime-bounds-1", "min-binary-30-under-1000", *(f"{verb}-3-under-{c}" for verb, c in _TOO_LOW),
         "seq-q-past-the-cap", "seq-l-past-the-cap", "lemma1-past-the-cap",
         "seq-q-3-under-5", "seq-l-3-under-5"],
)
def test_verify_sizes_out_of_range(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err


def test_verify_gi_max(capsys):
    code, out, _ = run_cli(capsys, "verify", "gi-max", "--vertices", "6")
    assert code == 0
    assert "maximum=67" in out


def test_verify_gi_max_computes_no_prime_past_the_prefix(capsys, monkeypatch):
    # The witness's root branch has a number past the 2^32 ceiling, so its
    # exact number is doomed; only its bounds on ln M are printed.
    spy = mock.Mock(side_effect=AssertionError("a prime past the prefix"))
    monkeypatch.setattr(primes.PrimeOracle, "_nth_past_prefix", spy)
    code, out, _ = run_cli(capsys, "verify", "gi-max", "--vertices", "100")
    assert code == 0 and out.endswith(" ok\n")
    assert out.startswith("vertices=100 ln_maximum=[")
    spy.assert_not_called()


def test_verify_prime_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "2000")
    assert code == 0
    assert "failures=0" in out


@pytest.fixture
def nudge():
    """``nudge(name, c)`` sets the constant of the ``primes._BOUNDS`` row
    ``name`` to c until the test ends."""
    with pytest.MonkeyPatch.context() as patch:

        def install(name, c):
            rows = tuple(row._replace(c=c) if row.name == name else row for row in primes._BOUNDS)
            patch.setattr(primes, "_BOUNDS", rows)

        yield install


@pytest.mark.parametrize("name, c, first", [
    # Robin 1983: p_k >= k (ln k + ln ln k - 1.0072629) for k >= 2; with 0.95
    # the bound passes p_257 = 1621.
    ("lower", 0.95, "m=257 p=1621"),
    # Rosser and Schoenfeld 1962: p_n < n (ln n + ln ln n - 1/2) for n >= 20;
    # with 0.55 it falls below p_20 = 71.
    ("upper", 0.55, "m=20 p=71"),
])
def test_verify_prime_bounds_checks_the_quoted_constants(capsys, nudge, name, c, first):
    nudge(name, c)
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "2000")
    assert code == 4
    assert out.splitlines()[0] == f"{first} VIOLATES {name} bound"
    assert out.endswith(" FAILED\n")


def test_verify_prime_bounds_checks_dusart(capsys, nudge):
    # Dusart's bound holds from m = 39017; a larger constant breaks it there.
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "40000")
    assert (code, out.count("VIOLATES")) == (0, 0)
    nudge("dusart", 1.2)
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "40000")
    assert code == 4
    assert out.splitlines()[0].endswith(" VIOLATES dusart bound")
    assert "failures=0" not in out and out.endswith(" FAILED\n")


def test_verify_prime_bounds_checks_dusart_lower(capsys, nudge):
    # A smaller constant lifts Dusart's 2010 lower bound past p_m.
    nudge("dusart-lower", -10.0)
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "2000")
    assert code == 4
    assert out.splitlines()[0].endswith(" VIOLATES dusart-lower bound")
    assert out.endswith(" FAILED\n")


def test_verify_prime_bounds_checks_dusart_upper(capsys, nudge):
    # Dusart's 2010 upper bound holds from m = 688383, where a larger
    # constant breaks it.  The clean run also sieves p_700000 into the shared
    # table, so the nudged bound does not size the sieve.
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "700000")
    assert (code, out.count("VIOLATES")) == (0, 0)
    nudge("dusart-upper", 2.1)
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "700000")
    assert code == 4
    assert out.splitlines()[0] == "m=688383 p=10384261 VIOLATES dusart-upper bound"
    assert out.endswith(" FAILED\n")


def test_verify_prime_bounds_sieves_past_an_undershooting_bound(capsys, nudge, ceiling):
    # A fresh oracle sizes its sieve by the nudged bound, which falls short
    # of p_m from m = 688383 on; the sieve grows on until it holds p_m.
    ceiling()
    nudge("dusart-upper", 2.1)
    code, out, _ = run_cli(capsys, "verify", "prime-bounds", "--max-m", "700000")
    assert code == 4
    assert out.splitlines()[0] == "m=688383 p=10384261 VIOLATES dusart-upper bound"
    assert out.endswith(" FAILED\n")


def test_verify_failure_trips_exit_4(capsys, monkeypatch):
    real = extremal._levels

    def corrupted(tree_class, n, maximum):
        # The opposite extremum: real trees of the class and sizes, which
        # first differ from the caterpillars at 3 leaves.
        return real(tree_class, n, not maximum)

    monkeypatch.setattr(extremal, "_levels", corrupted)
    code, out, _ = run_cli(capsys, "verify", "max-topological", "--leaves", "4")
    assert code == 4
    assert out == "leaves=3 maximum=8 witness=(*,*,*) MISMATCH\n"


def test_verify_names_the_first_size_whose_claim_fails(capsys, monkeypatch):
    # Every size up to the requested one is certified: a claim made wrong
    # at 7 leaves alone fails a request for 300, and the line names 7.
    real = extremal._family

    def corrupted(which, n):
        family = real(which, n)
        if which == "q":
            family[6] = real("l", 7)[-1]  # B_7 in place of C_7
        return family

    monkeypatch.setattr(extremal, "_family", corrupted)
    code, out, _ = run_cli(capsys, "verify", "max-topological", "--leaves", "300")
    assert code == 4
    assert out == "leaves=7 maximum=298154 witness=(*,(*,(*,(*,(*,(*,*)))))) MISMATCH\n"


def test_deterministic_output(capsys):
    first = run_cli(capsys, "enumerate", "--class", "rooted", "--vertices", "6")
    second = run_cli(capsys, "enumerate", "--class", "rooted", "--vertices", "6")
    assert first == second


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "matula.cli", "encode", "((*),(*,*),*)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "42\n"


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as stop:
        cli.run(list(argv))
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command(capsys):
    commands = "encode,decode,params,enumerate,seq,primes,verify"
    verbs = "lemma1,max-topological,min-topological,min-binary,gi-max,prime-bounds"
    assert f"{{{commands}}}" in _help(capsys, "--help")
    assert f"{{{verbs}}}" in _help(capsys, "verify", "--help")
    assert [*cli._COMMANDS, "verify"] == commands.split(",")
    assert sorted(cli._VERIFIERS) == sorted(verbs.split(","))


def test_class_choices_are_the_tree_classes(capsys):
    choices = ",".join(c.value for c in TreeClass)
    assert f"--class {{{choices}}}" in _help(capsys, "enumerate", "--help")


# Imports the package, then runs two commands in process, and prints after
# each step which package modules, and which of json and dataclasses, are
# loaded.  The probe imports nothing else, so what it sees is the package's.
_COLD_PROBE = """
import sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("matula", "json", "dataclasses"))

import matula
steps = [loaded()]
from matula.cli import run
for argv in (["primes", "nth", "10"], ["encode", "(*,*)"]):
    run(argv)
    steps.append(loaded())
print(steps)
"""


def test_a_cold_process_loads_only_the_layers_its_command_uses():
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *printed, steps = proc.stdout.splitlines()
    assert printed == ["29", "4"]
    imported, prime_query, encoded = ast.literal_eval(steps)
    assert imported == ["matula"]
    assert prime_query == [
        "matula", "matula._sieve_py", "matula.cli", "matula.errors", "matula.primes",
    ]
    assert {"matula.codec", "matula.treetext", "matula.trees"} <= set(encoded)
    assert not {"matula.enumerator", "matula.extremal"} & set(encoded)


# Runs argv[1:] and reports its exit code and peak RSS (KiB) from wait4 as
# the last stderr line.  The measured process is started from this small
# launcher, not from the test process: a child's peak RSS counts the memory
# of the process it was forked from.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss, file=sys.stderr)
"""


def test_nth_prime_past_the_prefix_in_bounded_memory():
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER,
         sys.executable, "-m", "matula.cli", "primes", "nth", "100000000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, max_rss_kib = map(int, proc.stderr.split()[-2:])
    assert code == 0, proc.stderr
    assert proc.stdout == "2038074743\n"
    assert max_rss_kib / 1024 <= 150


def test_a_wrong_lower_bound_on_a_prime_is_a_usage_error(capsys, overshoot):
    overshoot(2_000_000, 32_452_843 + 2)  # just past p_2000000
    code, out, err = run_cli(capsys, *_DEFAULT, "primes", "nth", "2000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: lower bound ") and err.count("\n") == 1
    assert "Traceback" not in err


def _peak_rss_mib(code):
    """Peak RSS of a fresh interpreter running ``code``, default ceiling."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    status, max_rss_kib = map(int, proc.stderr.split()[-2:])
    assert status == 0, proc.stderr
    return max_rss_kib / 1024


def test_prime_stream_past_the_prefix_in_bounded_memory():
    # verify prime-bounds walks this stream; ten times the primes, nine
    # tenths of them past the prefix, may not cost ten times the memory.
    code = (
        "import collections, matula; collections.deque("
        "matula.default_oracle().primes_up_to_index({}), maxlen=0)"
    )
    assert _peak_rss_mib(code.format(10**7)) - _peak_rss_mib(code.format(10**6)) <= 10


def test_decode_of_a_semiprime_past_the_ceiling_is_a_range_error():
    # Both factors lie past the 2^32 ceiling: 1811095800043 * 1811096800063;
    # 1287836182261 * 2575672364521, the least strong pseudoprime to all
    # thirteen Miller-Rabin witnesses; and 399165290221 * 798330580441, the
    # least to the first twelve.  Rho splits each in about a second; trial
    # division toward the square root took minutes.  Past a ceiling of 100,
    # 101 * 103 and 101^3 are split at once.
    for n, past, ceiling in [
        (3280069808065416197802709, 2, 2**32),
        (3317044064679887385961981, 2, 2**32),
        (318665857834031151167461, 2, 2**32),
        (101 * 103, 2, 100),
        (101**3, 3, 100),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "matula.cli", "--prime-bound", str(ceiling), "decode", str(n)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), n
        assert proc.stderr == (
            f"error: cofactor {n} of {n} has {past} prime factors past the ceiling {ceiling}\n"
        )


def test_decode_of_a_prime_power_past_the_certification_bound(capsys):
    # 65537^6 lies past 3.3 * 10^24, where no prime can be certified, but a
    # witness proves it composite and rho splits it into p_6543 = 65537.
    n = 65537**6
    code, out, err = run_cli(capsys, "decode", str(n))
    assert (code, err) == (0, "")
    code, back, _ = run_cli(capsys, "encode", out.strip())
    assert (code, back) == (0, f"{n}\n")


def test_decode_of_a_probable_prime_past_the_certification_bound(capsys, monkeypatch):
    # 2^89 - 1 passes every witness: refused at once, rho never runs.
    calls = []
    monkeypatch.setattr(primes, "_pollard_brent", calls.append)
    n = 2**89 - 1
    code, out, err = run_cli(capsys, "decode", str(n))
    assert (code, out, calls) == (3, "", [])
    assert err == (
        f"error: cannot certify primality of {n} (beyond deterministic witness range)\n"
    )


def test_verify_min_binary_past_the_sieved_prefix():
    # From 95 leaves on, only Dusart's 2010 bounds order the best splits;
    # without them the certificate asked for p_64474684537.
    proc = subprocess.run(
        [sys.executable, "-m", "matula.cli", "verify", "min-binary", "--leaves", "300"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("leaves=300 ln_minimum=[") and proc.stdout.endswith(" ok\n")


def test_last_prime_below_the_default_ceiling():
    # A fresh process counts pi(2^32) to decide the refusal, then p_m.
    proc = subprocess.run(
        [sys.executable, "-m", "matula.cli", "primes", "nth", "203280221"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4294967291\n", "")


def test_json_mode_streams_objects(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "lemma1", "--max", "4")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert all(rec["holds"] for rec in records)
    assert {(rec["k1"], rec["k2"]) for rec in records} >= {(1, 3), (2, 2)}


def _matula_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "matula.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


_DEEP_PATH = "(" * 3000 + "*" + ")" * 3000


def test_encode_of_deep_tree_text_is_a_range_error():
    # The smallest Matula number of height 13 is already past the ceiling.
    proc = _matula_cli("encode", _DEEP_PATH)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "offending index 3657500101" in proc.stderr


def test_params_of_deep_tree_text():
    proc = _matula_cli("params", _DEEP_PATH)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("vertices=3001 leaves=1 height=3000 ")


def test_encode_prints_numbers_past_4300_digits():
    # The 15000-leaf star is 2^15000, which has 4516 decimal digits.
    proc = _matula_cli("encode", "(" + ",".join("*" * 15000) + ")")
    assert (proc.returncode, proc.stderr) == (0, "")
    digits = proc.stdout.strip()
    assert len(digits) == 4516
    # Horner's rule, so this check needs no long int <-> str conversion.
    assert reduce(lambda n, d: 10 * n + int(d), digits, 0) == 1 << 15000


@pytest.mark.parametrize("command", ["decode", "params"])
def test_huge_numbers_are_range_errors(capsys, command):
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digits_limit()
    code, out, err = run_cli(capsys, command, "9" * 5000)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    # The run lifts the conversion limit for itself only, on usage errors too.
    assert digits_limit() == limit
    with pytest.raises(SystemExit):
        cli.run(["decode", "not-a-number"])
    assert digits_limit() == limit


def test_an_error_shows_a_huge_number_by_its_ends(capsys):
    # The 5000-digit repunit leaves a 4933-digit cofactor that no witness
    # range certifies; stderr names its digit count instead of its digits.
    code, out, err = run_cli(capsys, "decode", "1" * 5000)
    assert (code, out) == (3, "")
    assert len(err.encode()) < 300 and "(4933 digits)" in err
    assert err.startswith("error: cannot certify primality of 2051050132...2700944651 ")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_quietly():
    # Like `matula enumerate ... | head -1`: the reader leaves after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "matula.cli", "enumerate", "--class", "rooted", "--vertices", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=120)
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE


# ASCII digits, a superscript two (a digit, but not decimal) and two
# Arabic-Indic digits (decimal, so int() reads them).
_DIGITS = "0123456789\u00b2\u0663\u0664"
_TREE_TEXT = st.text(alphabet="(*,) -" + _DIGITS, max_size=24)
_NUMBER_TEXT = st.text(alphabet="-" + _DIGITS, min_size=1, max_size=6)
_FAST_ARGV = st.one_of(
    st.tuples(st.sampled_from(["encode", "params"]), _TREE_TEXT),
    st.tuples(st.sampled_from(["decode", "params"]), _NUMBER_TEXT),
    st.tuples(
        st.just("--prime-bound"),
        st.integers(-1, 5000).map(str),
        st.just("primes"),
        st.sampled_from(["nth", "index", "pi", "other"]),
        _NUMBER_TEXT,
    ),
    st.tuples(
        st.just("--prime-bound"),
        st.integers(-1, 5000).map(str),
        st.just("verify"),
        st.sampled_from(
            [("max-topological", "--leaves"), ("min-topological", "--leaves"),
             ("gi-max", "--vertices"), ("min-binary", "--leaves")]
        ),
        st.integers(-2, 30).map(str),
    ).map(lambda argv: (*argv[:3], *argv[3], argv[4])),
    st.tuples(
        st.just("enumerate"),
        st.just("--class"),
        st.sampled_from(["rooted", "topological", "binary", "other"]),
        st.sampled_from(["--leaves", "--vertices"]),
        st.integers(-2, 30).map(str),
        st.just("--count"),
    ),
).map(list)


@settings(max_examples=300, deadline=None)
@given(_FAST_ARGV)
def test_exit_code_is_always_0_2_3_or_4(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), mock.patch(
        "sys.stdin", io.StringIO("*\n")
    ):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
