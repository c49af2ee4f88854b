"""Child processes of the benchmark; one runs at a time.

    python child.py codec     IN OUT [--passes N | --seconds S] [--trace T]
    python child.py factorize IN OUT [--trace T]
    python child.py cli       --trace T -- <matula CLI arguments>
    python child.py kernels   OUT

``codec`` imports the package, runs a warm-up pass over the inputs, then
timed passes; ``factorize`` factorizes a list with a fresh ``PrimeOracle``;
``cli`` runs the command line in process (the traced form of
``python -m matula.cli``); ``kernels`` times each importable sieve kernel
on one fixed segment.  With ``--trace`` the tracer is installed before the
package does any work and its spans are written to T.  ``matula`` is found
through PYTHONPATH, which the parent points at the checkout's ``src``.
"""

import argparse
import json
import sys
import time


def _tracer(path):
    if path is None:
        return None
    import tracer

    return tracer.install(tracer.Tracer())


def _run_pass(matula, decode_in, encode_in, dec_ns, enc_ns):
    """One pass over every input; returns (decoded texts, encoded ints, s, s)."""
    decode, serialize = matula.decode, matula.serialize
    encode, parse = matula.encode, matula.parse
    clock = time.perf_counter_ns
    decoded = []
    t0 = clock()
    for n in decode_in:
        a = clock()
        decoded.append(serialize(decode(n)))
        dec_ns.append(clock() - a)
    t1 = clock()
    encoded = []
    for text in encode_in:
        a = clock()
        encoded.append(encode(parse(text)))
        enc_ns.append(clock() - a)
    t2 = clock()
    return decoded, encoded, (t1 - t0) / 1e9, (t2 - t1) / 1e9


def codec(args):
    with open(args.inputs) as fh:
        data = json.load(fh)
    decode_in, encode_in = data["decode"], data["encode"]
    import matula

    tracer = _tracer(args.trace)
    warm = _run_pass(matula, decode_in, encode_in, [], [])[:2]
    ready = time.monotonic()

    dec_ns, enc_ns = [], []
    decode_pass_s, encode_pass_s = [], []
    stable = True
    while True:
        decoded, encoded, ds, es = _run_pass(matula, decode_in, encode_in, dec_ns, enc_ns)
        decode_pass_s.append(ds)
        encode_pass_s.append(es)
        stable = stable and (decoded, encoded) == warm
        if args.passes is not None:
            if len(decode_pass_s) >= args.passes:
                break
        elif time.monotonic() - ready >= args.seconds:
            break
    out = {
        "ready_monotonic": ready,
        "decode_pass_s": decode_pass_s,
        "encode_pass_s": encode_pass_s,
        "decode_ns": dec_ns,
        "encode_ns": enc_ns,
        "decoded": warm[0],
        "encoded": [str(m) for m in warm[1]],
        "stable": stable,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    if tracer is not None:
        tracer.dump(args.trace)


def factorize(args):
    with open(args.inputs) as fh:
        numbers = json.load(fh)
    import matula

    tracer = _tracer(args.trace)
    oracle = matula.PrimeOracle()
    result = [[[str(p), e] for p, e in oracle.factorize(int(n))] for n in numbers]
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(args.trace)


def cli(args):
    import matula.cli

    tracer = _tracer(args.trace)
    try:
        rc = matula.cli.run(args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.trace)
    return rc


def kernels(args):
    """values/s of every importable kernel on the segment [3, 3 + 2^24)."""
    from matula import _kernel, _sieve_py

    lo, hi = 3, 3 + (1 << 24)
    base = _sieve_py.simple_sieve(4097)
    out = {}
    for kernel in _kernel.available_backends():
        t0 = time.perf_counter()
        kernel.sieve_segment(lo, hi, base)
        out[kernel.BACKEND] = (hi - lo) / (time.perf_counter() - t0)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("codec")
    p.add_argument("inputs")
    p.add_argument("out")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--passes", type=int)
    g.add_argument("--seconds", type=float)
    p.add_argument("--trace")
    p = sub.add_parser("factorize")
    p.add_argument("inputs")
    p.add_argument("out")
    p.add_argument("--trace")
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("kernels")
    p.add_argument("out")
    args = parser.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"codec": codec, "factorize": factorize, "cli": cli, "kernels": kernels}[
        args.mode
    ](args) or 0


if __name__ == "__main__":
    sys.exit(main())
