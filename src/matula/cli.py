"""Command-line interface.

One binary, deterministic output.  Results go to stdout, errors to stderr.
Exit codes: 0 success, 2 usage or malformed input, 3 range/infeasibility
(the offending prime index is printed), 4 a verification claim failed (the
CI tripwire).  Matula numbers, primes and tree counts are printed as
decimal strings, also under --json.  A number past the ceiling (an extremal
claim's, a Lemma 1 side or a sequence value) prints as its certified bounds
on ln M, ln_<key>=[lo,hi] with repr; only the two analytic bound formulas
print other floats, at 6 significant figures.  With --json every result
line is a single JSON object.
"""

import argparse
import signal
import sys
from contextlib import suppress
from functools import partial
from math import log

# Each command imports the layers it calls, so a fresh process loads only
# those: a prime query never loads the tree layers.
from . import primes
from .errors import (
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    MatulaError,
    SizeTooLarge,
    ValueOutOfRange,
    brief,
)

_RANGE_ERRORS = (IndexOutOfRange, ValueOutOfRange, FactorOutOfRange, SizeTooLarge)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="matula",
        description="Rooted trees as integers: encode, decode, enumerate, verify.",
    )
    parser.add_argument(
        "--prime-bound",
        type=int,
        default=None,
        metavar="N",
        help="prime value ceiling in [71, 2^48]: from p_20, as p_m has proven "
        "upper bounds from m = 20 on, to the square of the sieved prefix's "
        "end (default: 2^32)",
    )
    parser.add_argument(
        "--json", action="store_true", help="one JSON object per result line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="tree text -> Matula number")
    p.add_argument("tree", help="tree text, or '-' to read one tree per stdin line")

    p = sub.add_parser("decode", help="Matula number -> tree text")
    p.add_argument("number", type=int)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead")

    p = sub.add_parser("params", help="structural parameters of a tree or number")
    p.add_argument("tree_or_number", help="tree text, or a decimal Matula number")

    p = sub.add_parser("enumerate", help="list all trees of a class and size")
    p.add_argument(
        "--class",
        dest="tree_class",
        required=True,
        choices=["rooted", "topological", "binary"],  # the TreeClass values
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--leaves", type=int)
    group.add_argument("--vertices", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--with-matula",
        action="store_true",
        help="append the Matula number, tab-separated",
    )
    group.add_argument("--count", action="store_true", help="print the count only")

    p = sub.add_parser("seq", help="extremal Matula number sequences")
    p.add_argument("which", choices=["q", "l"], help="q: caterpillar max, l: binary min")
    p.add_argument("--max", type=int, required=True, dest="k_max")

    p = sub.add_parser("primes", help="prime oracle queries")
    p.add_argument("query", choices=["nth", "index", "pi"])
    p.add_argument("argument", type=int)

    v = sub.add_parser("verify", help="re-check the extremal claims (exit 4 on failure)")
    vsub = v.add_subparsers(dest="verb", required=True)

    p = vsub.add_parser("lemma1", help="caterpillar product inequality instances")
    p.add_argument("--max", type=int, required=True, dest="k_max")

    p = vsub.add_parser("max-topological", help="caterpillar is the leaf-count maximum")
    p.add_argument("--leaves", type=int, required=True)

    p = vsub.add_parser("min-topological", help="star is the leaf-count minimum")
    p.add_argument("--leaves", type=int, required=True)

    p = vsub.add_parser("min-binary", help="balanced tree is the binary minimum")
    p.add_argument("--leaves", type=int, required=True)

    p = vsub.add_parser("gi-max", help="Gutman-Ivic tree is the vertex-count maximum")
    p.add_argument("--vertices", type=int, required=True)

    p = vsub.add_parser("prime-bounds", help="Robin / Rosser-Schoenfeld / Dusart bounds")
    p.add_argument("--max-m", type=int, required=True)

    return parser


def _emit(args, obj, plain):
    if args.json:
        import json

        print(json.dumps(obj, sort_keys=True))
    else:
        print(plain)


def _six_figures(x: float) -> str:
    return f"{x:.5e}"


def _cmd_encode(args):
    from . import treetext
    from .codec import encode

    if args.tree == "-":
        # Lazily, and flushed below, so each line is answered as it arrives.
        texts = (text for text in map(str.strip, sys.stdin) if text)
    else:
        texts = [args.tree]
    for text in texts:
        n = encode(treetext.parse(text))
        _emit(args, {"matula": str(n)}, str(n))
        sys.stdout.flush()
    return 0


def _cmd_decode(args):
    from . import treetext
    from .codec import decode

    t = decode(args.number)
    if args.dot:
        out = treetext.to_dot(t)
        _emit(args, {"dot": out}, out.rstrip("\n"))
    else:
        text = treetext.serialize(t)
        _emit(args, {"tree": text}, text)
    return 0


def _cmd_params(args):
    from .codec import decode
    from .treetext import params

    raw = args.tree_or_number.strip()
    # Text is read for its shape alone: no Tree is built and no prime asked.
    p = params(decode(int(raw)) if raw.isdecimal() else raw)
    plain = (
        f"vertices={p.vertices} leaves={p.leaves} height={p.height} "
        f"max_outdegree={p.max_outdegree} "
        f"outdegrees={','.join(map(str, p.outdegree_multiset))} "
        f"wiener={p.wiener}"
    )
    _emit(args, p._asdict(), plain)
    return 0


def _cmd_enumerate(args):
    from . import treetext
    from .codec import encode
    from .enumerator import count_trees, enumerate_trees
    from .trees import TreeClass

    tree_class = TreeClass(args.tree_class)
    kind = "leaves" if args.leaves is not None else "vertices"
    expected = "vertices" if tree_class is TreeClass.ROOTED else "leaves"
    if kind != expected:
        raise DomainError(f"{tree_class.value} trees are sized by {expected}, not {kind}")
    size = getattr(args, kind)
    if args.count:
        n = count_trees(tree_class, size)
        _emit(args, {"count": str(n)}, str(n))
        return 0
    for t in enumerate_trees(tree_class, size):
        text = treetext.serialize(t)
        if args.with_matula:
            m = encode(t)
            _emit(args, {"tree": text, "matula": str(m)}, f"{text}\t{m}")
        else:
            _emit(args, {"tree": text}, text)
    return 0


def _cmd_seq(args):
    from . import extremal

    extremal._check_size(args.k_max)
    for k, tree in enumerate(extremal._family(args.which, args.k_max), start=1):
        value = _value("value", tree)
        _emit(args, {"k": k, **value}, f"{k}\t{_bare(value)}")
    return 0


def _cmd_primes(args):
    oracle = primes.default_oracle()
    if args.query == "nth":
        result = oracle.nth_prime(args.argument)
    elif args.query == "index":
        result = oracle.prime_index(args.argument)
    else:
        result = oracle.prime_count(args.argument)
    _emit(args, {args.query: str(result)}, str(result))
    return 0


def _verify_lemma1(args):
    from . import extremal

    records = extremal.check_caterpillar_inequality(args.k_max)
    for rec in records:
        lhs, rhs = _value("lhs", rec.lhs), _value("rhs", rec.rhs)
        status = "holds" if rec.holds else "VIOLATED"
        suffix = " (equality)" if rec.equality else ""
        _emit(
            args,
            {"k1": rec.k1, "k2": rec.k2, **lhs, **rhs,
             "holds": rec.holds, "equality": rec.equality},
            f"({rec.k1},{rec.k2}) {_bare(lhs)} <= {_bare(rhs)} {status}{suffix}",
        )
    return 0 if all(rec.holds for rec in records) else 4


def _value(key, tree):
    """{key: M(tree)} while the exact number is feasible under the ceiling,
    else {ln_key: its certified bounds on ln M, printed with repr}."""
    from .trees import ln_bounds, matula_number

    # p_m > m, so a root branch whose number exceeds the ceiling dooms the
    # exact number: skip it rather than compute far primes only to be
    # refused.  The margin covers rounding in log().
    ln_ceiling = log(primes.default_oracle().limit_value) * (1 + primes._WIDEN)
    if all(ln_bounds(branch)[0] <= ln_ceiling for branch in tree.children):
        with suppress(IndexOutOfRange):
            return {key: str(matula_number(tree))}
    lo, hi = ln_bounds(tree)
    return {f"ln_{key}": f"[{lo!r},{hi!r}]"}


def _bare(value):
    """The plain text of one ``_value``: the number alone, or ln_key=[lo,hi]."""
    ((key, text),) = value.items()
    return f"{key}={text}" if key.startswith("ln_") else text


def _verdict(args, fields, ok):
    """Emit one verification result: ``fields`` as key=value pairs, then ok
    or MISMATCH; exit code 0 or 4."""
    plain = " ".join(f"{key}={value}" for key, value in fields.items())
    _emit(args, {**fields, "ok": ok}, f"{plain} {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 4


def _topological_stars(n):
    """[S_2 .. S_n], the topological stars of 2 to n leaves."""
    from .trees import star

    if n < 2:
        raise DomainError(f"a topological star needs n >= 2 leaves, got {brief(n)}")
    return [star(s) for s in range(2, n + 1)]


def _verify_claim(args):
    """Certify the claim at every size up to the requested one by the
    branch-size dynamic program.  Print the requested size, or the first
    size whose claim fails, with the certified tree's exact number while
    that is feasible, else its bounds on ln M."""
    from . import extremal, treetext
    from .trees import TreeClass

    # verb -> (tree class, size flag, maximum?, the claimed extremal trees
    # from the claim's least size up to a given one)
    tree_class, flag, maximum, claims = {
        "max-topological": (TreeClass.TOPOLOGICAL, "leaves", True, partial(extremal._family, "q")),
        "min-topological": (TreeClass.TOPOLOGICAL, "leaves", False, _topological_stars),
        "gi-max": (TreeClass.ROOTED, "vertices", True, extremal._gi_trees),
        "min-binary": (TreeClass.BINARY, "leaves", False, partial(extremal._family, "l")),
    }[args.verb]
    n = getattr(args, flag)
    levels = extremal._levels(tree_class, n, maximum)  # refuses a bad n first
    claimed = claims(n)
    least = n - len(claimed) + 1
    wrong = [s for s, tree in enumerate(claimed, start=least) if levels[s - 1] != tree]
    s = wrong[0] if wrong else n
    return _verdict(args, {
        flag: s,
        **_value("maximum" if maximum else "minimum", levels[s - 1]),
        "witness": treetext.serialize(levels[s - 1]),
    }, not wrong)


def _violation(args, m, p, bound):
    _emit(
        args,
        {"m": m, "p": str(p), "bound": bound, "ok": False},
        f"m={m} p={p} VIOLATES {bound} bound",
    )
    return 1


def _verify_prime_bounds(args):
    from itertools import islice
    from operator import gt, truediv

    m_max = args.max_m
    if m_max < 2:
        raise DomainError(f"--max-m must be >= 2, got {brief(m_max)}")
    # The primes stream past in chunks, so memory stays bounded for any m_max.
    stream = islice(primes.default_oracle().primes_up_to_index(m_max), 1, None)
    failures = 0
    for start in range(2, m_max + 1, 1 << 12):  # no row starts below m = 2
        ps = list(islice(stream, 1 << 12))
        ms = range(start, start + len(ps))
        ln_ms = list(map(log, ms))
        ln_ln_ms = list(map(log, ln_ms))
        ratios = list(map(truediv, ps, ms))  # p_m / m, against each row's factor
        found = []  # (m, row number, p) for each bound p_m violates
        for i, row in enumerate(primes._BOUNDS):
            k = max(row.least - start, 0)  # from the row's least m on
            factors = primes._factors(row, ln_ms[k:], ln_ln_ms[k:])
            big, small = (factors, ratios[k:]) if row.side == "lower" else (ratios[k:], factors)
            if any(map(gt, big, small)):
                found += [(m, i, p) for m, p, x, y in zip(ms[k:], ps[k:], big, small) if x > y]
        for m, i, p in sorted(found):
            failures += _violation(args, m, p, primes._BOUNDS[i].name)
    # Robin's lower bound (row 0) at m_max and Rosser and Schoenfeld's upper
    # bound (row 1) at m_max, or at m = 20, where it starts to hold.
    lower_of_last, upper_of_last = (
        _six_figures(m * primes._factors(row, [log(m)], [log(log(m))])[0])
        for row, m in zip(primes._BOUNDS, (m_max, max(m_max, 20)))
    )
    _emit(
        args,
        {
            "checked_m": m_max,
            "failures": failures,
            "lower_at_max": lower_of_last,
            "upper_at_max": upper_of_last,
            "ok": failures == 0,
        },
        f"checked m=2..{m_max} failures={failures} "
        f"bounds_at_max=[{lower_of_last}, {upper_of_last}] "
        f"{'ok' if failures == 0 else 'FAILED'}",
    )
    return 0 if failures == 0 else 4


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "params": _cmd_params,
    "enumerate": _cmd_enumerate,
    "seq": _cmd_seq,
    "primes": _cmd_primes,
}

_VERIFIERS = {
    "lemma1": _verify_lemma1,
    "prime-bounds": _verify_prime_bounds,
    **dict.fromkeys(
        ("max-topological", "min-topological", "gi-max", "min-binary"), _verify_claim
    ),
}


def run(argv=None) -> int:
    """Parse argv, execute, and return the exit code (0/2/3/4)."""
    # Numbers are exact, so decimal text of any length must convert both ways.
    previous_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous_digits is not None:
        sys.set_int_max_str_digits(0)
    previous_default = primes._default_oracle
    args = None
    try:
        args = _build_parser().parse_args(argv)
        if args.prime_bound is not None:
            # Every layer reads the shared oracle, so the override applies
            # process-wide for this run.
            try:
                primes.set_default_oracle(primes.PrimeOracle(args.prime_bound))
            except ValueError as exc:
                print(f"error: {exc}".replace("limit_value", "--prime-bound"), file=sys.stderr)
                return 2
        if args.command == "verify":
            return _VERIFIERS[args.verb](args)
        return _COMMANDS[args.command](args)
    except _RANGE_ERRORS as exc:
        detail = getattr(exc, "index", None)
        where = f" (offending index {brief(detail)})" if detail is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 3
    except MatulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_digits is not None:
            sys.set_int_max_str_digits(previous_digits)
        if args is not None and args.prime_bound is not None:
            primes.set_default_oracle(previous_default)


def main() -> int:
    # Like other Unix tools, end quietly when the reader closes stdout.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run()


if __name__ == "__main__":
    sys.exit(main())
