"""The three workloads, the process runner, and the output checks.

A workload run is a set-up phase (timed several times), then whole rounds
of the workload's operations until the run's time is used.  Each operation
is one fresh child process, and only one child runs at a time.
"""

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import inputs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
# A run must end within 180 s: children still running this long after the
# run started are killed and count as failed.
RUN_DEADLINE_S = 165
SETUP_REPEATS = 7
# The reference prime table covers every value below 2^24: all decode inputs
# and every prime the encode inputs need.
TABLE_LIMIT = 1 << 24
# Passes of a codec child in a traced run, on either side of a pair.
FIXED_PASSES = 5

# The one operation expected to fail until the canonical-order fault is
# mended: join falls back to exact Matula numbers, which need a prime index
# past the ceiling although the class cap (20) allows 14 leaves.
KNOWN_FAULT = "prime index 11893763 is not answerable"


class CheckFailed(Exception):
    """The program answered, and the answer is wrong."""


def child_env():
    """The environment every child gets: the checkout's package, no
    caller-set prime ceiling, fixed hash seed."""
    env = dict(os.environ)
    env.pop("MATULA_PRIME_BOUND", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    start: float
    stdout: str
    stderr: str


def spawn(argv, timeout=RUN_DEADLINE_S):
    """Run one child to completion, killing it after ``timeout`` seconds;
    wall time and peak RSS from wait4."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "stdout.txt")
    err_path = os.path.join(WORK, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(max(1.0, timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, start, stdout, stderr)


@dataclass
class Op:
    """The outcome of one operation (one child process)."""

    label: str
    proc: Proc
    attempted: int = 1
    failed: int = 0
    errors: list = field(default_factory=list)
    note: str = ""  # why the operation failed
    trees: int = 0  # trees printed by a successful enumerate
    codec: dict = None  # a codec child's timings and outputs
    setup_s: float = None  # a codec child's set-up time
    timed_s: float = None  # a codec child's median pass time
    trace: dict = None

    @property
    def wall_s(self):
        """The operation's time: the process's wall time, or for a codec
        child the median time of one pass over the inputs."""
        return self.proc.wall_s if self.timed_s is None else self.timed_s


class Session:
    """Shared state of one benchmark run: the reference table, the run's
    deadline, trace file names, and the outputs already checked."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self._table = None
        self._encoder = None
        self._checked = set()
        self._trace_n = 0

    @property
    def table(self):
        if self._table is None:
            self._table = reference.PrimeTable(TABLE_LIMIT)
        return self._table

    @property
    def encoder(self):
        if self._encoder is None:
            self._encoder = reference.Encoder(self.table)
        return self._encoder

    def trace_path(self, traced):
        if not traced:
            return None
        self._trace_n += 1
        return os.path.join(WORK, f"trace-{self._trace_n}.json")

    def run(self, label, argv, traced, check, attempted=1, memo=False):
        """Spawn, then check.  A nonzero exit is a failed operation; an
        answer that does not pass its check is an error.  With ``memo``,
        stdout already checked in this run is not checked again."""
        trace = self.trace_path(traced)
        proc = spawn(argv(trace), self.deadline - time.monotonic())
        op = Op(label, proc, attempted=attempted)
        if proc.rc != 0:
            op.failed = attempted
            op.note = f"{label}: exit {proc.rc}: {proc.stderr.strip()[-300:]}"
        else:
            key = hashlib.sha256(f"{label}\0{proc.stdout}".encode()).digest()
            try:
                if not (memo and key in self._checked):
                    check(op)
                    self._checked.add(key)
            except CheckFailed as exc:
                op.errors.append(f"{label}: {exc}")
        if trace is not None and os.path.exists(trace):
            with open(trace) as fh:
                op.trace = json.load(fh)
            os.remove(trace)
        return op

    def cli(self, label, args, traced, check):
        def argv(trace):
            if trace is None:
                return ["-m", "matula.cli", *args]
            return [CHILD, "cli", "--trace", trace, "--", *args]

        return self.run(label, argv, traced, check, memo=True)


# -- checks -------------------------------------------------------------------


def expect_line(expected):
    def check(op):
        got = op.proc.stdout.strip()
        if got != str(expected):
            raise CheckFailed(f"printed {got!r}, expected {expected}")

    return check


def check_factorizations(cases, printed):
    """Every factorization multiplies back to n, every factor passes the
    reference primality test, and (when sympy imports) agrees with it."""
    sympy = reference.sympy_or_none()
    if len(printed) != len(cases):
        raise CheckFailed(f"{len(printed)} factorizations for {len(cases)} inputs")
    for (n, known), got in zip(cases, printed):
        pairs = [(int(p), int(e)) for p, e in got]
        product = 1
        for p, e in pairs:
            if e < 1 or not reference.is_prime(p):
                raise CheckFailed(f"factor {p}^{e} of {n} is not a prime power")
            product *= p**e
        if product != n or pairs != sorted(pairs):
            raise CheckFailed(f"{n} factorized as {pairs}")
        if pairs != known:
            raise CheckFailed(f"{n} factorized as {pairs}, built as {known}")
        if sympy is not None and dict(pairs) != sympy.factorint(n):
            raise CheckFailed(f"{n} factorized as {pairs}, sympy disagrees")


def check_canonical(t, encoder, text):
    """Children ascend by reference Matula number at every vertex."""
    stack = [t]
    while stack:
        node = stack.pop()
        stack.extend(node)
        for a, b in zip(node, node[1:]):
            c = encoder.compare(a, b)
            if c is None:
                raise CheckFailed(f"cannot decide sibling order in {text}")
            if c > 0:
                raise CheckFailed(f"children out of Matula order in {text}")


def check_enumeration(lines, tree_class, size_kind, size, expected, encoder):
    if len(lines) != expected:
        raise CheckFailed(f"{len(lines)} trees, the counting recursion gives {expected}")
    if len(set(lines)) != len(lines):
        raise CheckFailed("duplicate trees")
    for line in lines:
        try:
            t = reference.parse_tree(line)
        except ValueError as exc:
            raise CheckFailed(str(exc)) from None
        vertices, leaves, outdegrees = reference.size(t)
        if (vertices if size_kind == "vertices" else leaves) != size:
            raise CheckFailed(f"{line} has the wrong size")
        if tree_class == "topological" and 1 in outdegrees:
            raise CheckFailed(f"{line} has a vertex of outdegree 1")
        if tree_class == "binary" and not outdegrees <= {0, 2}:
            raise CheckFailed(f"{line} is not binary")
        check_canonical(t, encoder, line)


def check_verify(line, key, expected_shape, encoder):
    """A verify line: ends in ok, optimum and witness match the reference."""
    if not line.endswith(" ok"):
        raise CheckFailed(f"verify printed {line!r}")
    expected = encoder.number(expected_shape)
    m = re.search(rf"\b{key}=(\d+) witness=(\S+)", line)
    if m is None or int(m.group(1)) != expected:
        raise CheckFailed(f"{line!r}: reference optimum is {expected}")
    if encoder.number(reference.parse_tree(m.group(2))) != expected:
        raise CheckFailed(f"{line!r}: witness is not the reference shape")


def check_decoded(numbers, texts, encoder):
    if len(texts) != len(numbers):
        raise CheckFailed(f"{len(texts)} decodes for {len(numbers)} inputs")
    for n, text in zip(numbers, texts):
        t = reference.parse_tree(text)
        if encoder.number(t) != n:
            raise CheckFailed(f"decode({n}) gave {text}")
        check_canonical(t, encoder, text)


def check_encoded(cases, printed):
    if len(printed) != len(cases):
        raise CheckFailed(f"{len(printed)} encodes for {len(cases)} inputs")
    for (text, n), got in zip(cases, printed):
        if int(got) != n:
            raise CheckFailed(f"encode({text}) gave {got}, reference {n}")


# -- sizes --------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Operation sizes.  FULL is the benchmark; SMALL runs in seconds and
    is used by the benchmark's own tests."""

    nth_index: int
    pi_x: int
    factor_pairs: int
    decode_count: int
    encode_count: int
    enumerations: tuple  # (class, size kind, size)
    min_binary_leaves: int
    gi_max_vertices: int
    fault_bound: tuple  # the kept-failing operation: its ceiling flags,
    fault_leaves: int  # its binary leaf count
    fault_expected: int  # and the tree count once it succeeds


FULL = Sizes(
    nth_index=5_761_455,
    pi_x=2 * 10**8,
    factor_pairs=4,
    decode_count=4000,
    encode_count=1000,
    enumerations=(("rooted", "vertices", 14), ("topological", "leaves", 11),
                  ("binary", "leaves", 13)),
    min_binary_leaves=12,
    gi_max_vertices=11,
    fault_bound=("--prime-bound", "200000000"),
    fault_leaves=14,
    fault_expected=2179,
)

SMALL = Sizes(
    nth_index=1000,
    pi_x=10**5,
    factor_pairs=1,
    decode_count=200,
    encode_count=50,
    enumerations=(("rooted", "vertices", 8), ("topological", "leaves", 6),
                  ("binary", "leaves", 7)),
    min_binary_leaves=6,
    gi_max_vertices=7,
    fault_bound=("--prime-bound", "1000"),
    fault_leaves=10,
    fault_expected=98,
)

_COUNTS = {
    "rooted": reference.count_rooted,
    "topological": reference.count_topological,
    "binary": reference.count_binary,
}


# -- operations -----------------------------------------------------------------


def setup_cli(session):
    """Fresh ``encode "(*,*)"`` processes: interpreter, import, argparse and
    oracle bootstrap."""
    ops = []
    for _ in range(SETUP_REPEATS):
        op = session.cli("setup encode", ["encode", "(*,*)"], False, expect_line(4))
        if op.failed or op.errors:
            raise SystemExit(f"set-up failed: {op.note or op.errors[0]}")
        ops.append(op)
    return ops


def enumerate_op(session, spec, traced, expected=None, extra_args=()):
    tree_class, size_kind, size = spec
    if expected is None:
        expected = _COUNTS[tree_class](size)
    label = f"enumerate {tree_class} {size_kind}={size}"

    def check(op):
        lines = op.proc.stdout.splitlines()
        check_enumeration(lines, tree_class, size_kind, size, expected, session.encoder)

    args = [*extra_args, "enumerate", "--class", tree_class, f"--{size_kind}", str(size)]
    op = session.cli(label, args, traced, check)
    if not op.failed and not op.errors:
        op.trees = expected
    return op


def factorize_op(session, cases, traced):
    os.makedirs(WORK, exist_ok=True)
    in_path = os.path.join(WORK, "factorize-in.json")
    out_path = os.path.join(WORK, "factorize-out.json")
    with open(in_path, "w") as fh:
        json.dump([str(n) for n, _ in cases], fh)

    def argv(trace):
        tail = ["--trace", trace] if trace else []
        return [CHILD, "factorize", in_path, out_path, *tail]

    def check(op):
        with open(out_path) as fh:
            check_factorizations(cases, json.load(fh))

    return session.run("factorize", argv, traced, check, attempted=len(cases))


def codec_op(session, cases, traced, seconds=None):
    """One codec child: import, warm-up pass, then timed passes for
    ``seconds``, or FIXED_PASSES passes when ``seconds`` is None."""
    decode_in, encode_in = cases
    os.makedirs(WORK, exist_ok=True)
    in_path = os.path.join(WORK, "codec-in.json")
    out_path = os.path.join(WORK, "codec-out.json")
    with open(in_path, "w") as fh:
        json.dump({"decode": decode_in, "encode": [t for t, _ in encode_in]}, fh)
    loaded = {}

    def argv(trace):
        how = (["--passes", str(FIXED_PASSES)] if seconds is None
               else ["--seconds", str(seconds)])
        tail = ["--trace", trace] if trace else []
        return [CHILD, "codec", in_path, out_path, *how, *tail]

    def check(op):
        with open(out_path) as fh:
            loaded.update(json.load(fh))
        if not loaded["stable"]:
            raise CheckFailed("passes over the same inputs gave different outputs")
        check_decoded(decode_in, loaded["decoded"], session.encoder)
        check_encoded(encode_in, loaded["encoded"])

    per_pass = len(decode_in) + len(encode_in)
    op = session.run("codec", argv, traced, check, attempted=per_pass)
    if loaded:
        passes = list(zip(loaded["decode_pass_s"], loaded["encode_pass_s"]))
        op.codec = loaded
        op.attempted = per_pass * len(passes)
        op.timed_s = statistics.median(d + e for d, e in passes)
        op.setup_s = loaded["ready_monotonic"] - op.proc.start
    return op


# -- workloads ------------------------------------------------------------------
#
# round(traced, timed) runs one round.  ``timed`` is False in a traced run,
# where each traced round is paired with an untraced one of the same work.


class PrimeReach:
    """Cold prime-oracle queries, each in a fresh process."""

    name = "prime-reach"
    min_rounds = 2

    def __init__(self, session, seed, seconds):
        self.s = session
        self.factor_cases = inputs.factorize_inputs(seed, session.sizes.factor_pairs)

    def setup(self):
        return setup_cli(self.s)

    def round(self, traced, timed):
        s, z = self.s, self.s.sizes
        return [
            s.cli("primes nth", ["primes", "nth", str(z.nth_index)], traced,
                  expect_line(reference_nth(s, z.nth_index))),
            s.cli("primes pi", ["primes", "pi", str(z.pi_x)], traced,
                  expect_line(reference_pi(s, z.pi_x))),
            factorize_op(s, self.factor_cases, traced),
        ]


class CodecStream:
    """Warm decode/serialize and parse/encode through the library API.

    Each round is one codec child with its own set-up, so a run sets up
    ``min_rounds`` times."""

    name = "codec-stream"
    min_rounds = 3

    def __init__(self, session, seed, seconds):
        self.s = session
        self.cases = (
            inputs.decode_inputs(seed, session.sizes.decode_count),
            inputs.encode_inputs(seed, session.sizes.encode_count, session.table),
        )
        # Leave about 1.5 s of each round for the child's set-up.
        self.child_seconds = max(0.5, seconds / self.min_rounds - 1.5)

    def setup(self):
        return []  # each codec child measures its own set-up

    def round(self, traced, timed):
        return [codec_op(self.s, self.cases, traced, self.child_seconds if timed else None)]


class EnumerateVerify:
    """Enumeration and extremal verification through the CLI."""

    name = "enumerate-verify"
    min_rounds = 2

    def __init__(self, session, seed, seconds):
        self.s = session

    def setup(self):
        return setup_cli(self.s)

    def round(self, traced, timed):
        s, z = self.s, self.s.sizes
        ops = [enumerate_op(s, spec, traced) for spec in z.enumerations]
        ops.append(self._verify("min-binary", "--leaves", z.min_binary_leaves,
                                "minimum", reference.min_binary_shape, traced))
        ops.append(self._verify("gi-max", "--vertices", z.gi_max_vertices,
                                "maximum", reference.gi_max_shape, traced))
        ops.append(enumerate_op(s, ("binary", "leaves", z.fault_leaves), traced,
                                expected=z.fault_expected, extra_args=z.fault_bound))
        return ops

    def _verify(self, verb, flag, size, key, shape, traced):
        s = self.s

        def check(op):
            check_verify(op.proc.stdout.strip(), key, shape(size), s.encoder)

        return s.cli(f"verify {verb}", ["verify", verb, flag, str(size)], traced, check)


WORKLOADS = {w.name: w for w in (PrimeReach, CodecStream, EnumerateVerify)}


def reference_nth(session, m):
    if m in reference.PUBLISHED_NTH:
        return reference.PUBLISHED_NTH[m]
    return session.table.nth(m)


def reference_pi(session, x):
    if x in reference.PUBLISHED_PI:
        return reference.PUBLISHED_PI[x]
    return session.table.pi(x)


# -- end-to-end metrics and workload figures ---------------------------------------


def _p99_us(samples_ns):
    ordered = sorted(samples_ns)
    return ordered[-(-99 * len(ordered) // 100) - 1] / 1000


def _codec_passes(codec):
    """Per pass: (decodes/s, encodes/s, decode p99 us, encode p99 us)."""
    nd = len(codec["decode_ns"]) // len(codec["decode_pass_s"])
    ne = len(codec["encode_ns"]) // len(codec["encode_pass_s"])
    for i, (ds, es) in enumerate(zip(codec["decode_pass_s"], codec["encode_pass_s"])):
        yield (nd / ds, ne / es,
               _p99_us(codec["decode_ns"][i * nd:(i + 1) * nd]),
               _p99_us(codec["encode_ns"][i * ne:(i + 1) * ne]))


def end_to_end(setup_ops, rounds):
    """The end-to-end metrics of an untraced run, and the workload's own
    figures, each as {name: (value, unit)}.

    Every value is a median of repeated measurements, never a single one:
    on the shared 2-CPU host this was built on, one and the same pass runs
    up to 1.5x faster or slower from one second to the next.
    """
    med = statistics.median
    ops = [op for r in rounds for op in r]
    setups = [op.proc.wall_s for op in setup_ops] or [op.setup_s for op in ops if op.codec]
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(sum(op.wall_s for op in r) for r in rounds), "s"),
        "peak_rss_mb": (max(op.proc.rss_mb for op in setup_ops + ops), "MB"),
    }
    figures = {}
    factorize = [op.proc.wall_s for op in ops if op.label == "factorize"]
    if factorize:
        figures["factorize_s"] = (med(factorize), "s")
    passes = [p for op in ops if op.codec for p in _codec_passes(op.codec)]
    if passes:
        figures["decode_ops_per_s"] = (med(p[0] for p in passes), "ops/s")
        figures["encode_ops_per_s"] = (med(p[1] for p in passes), "ops/s")
        figures["decode_p99_us"] = (med(p[2] for p in passes), "us")
        figures["encode_p99_us"] = (med(p[3] for p in passes), "us")
    tree_rates = [sum(op.trees for op in r) / sum(op.proc.wall_s for op in r if op.trees)
                  for r in rounds if any(op.trees for op in r)]
    if tree_rates:
        figures["trees_per_s"] = (med(tree_rates), "trees/s")
    return metrics, figures
