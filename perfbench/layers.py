"""Per-layer metrics from the spans of a traced round.

Each traced child writes one trace (see tracer.py).  The traces of one
round are summed, the metrics below are computed per round, and a traced
run reports their mean over its traced rounds.  ``primes.table_bytes`` is
computed, not measured: 8 bytes per prime the kernels returned, taking the
largest table any one process of the round held.
"""

import statistics

# name -> (unit, better)
METRICS = {
    "kernel.segments": ("count", "lower"),
    "kernel.values": ("count", "lower"),
    "kernel.self_s": ("s", "lower"),
    "kernel.values_per_s": ("1/s", "higher"),
    "kernel.bootstrap_s": ("s", "lower"),
    "primes.table_bytes": ("bytes-computed", "lower"),
    "primes.nth_prime.calls": ("count", "lower"),
    "primes.nth_prime.self_s": ("s", "lower"),
    "primes.prime_index.calls": ("count", "lower"),
    "primes.prime_index.self_s": ("s", "lower"),
    "primes.prime_count.calls": ("count", "lower"),
    "primes.prime_count.self_s": ("s", "lower"),
    "primes.factorize.calls": ("count", "lower"),
    "primes.factorize.self_s": ("s", "lower"),
    "primes.is_prime_certified.calls": ("count", "lower"),
    "codec.encode.calls": ("count", "lower"),
    "codec.encode.self_s": ("s", "lower"),
    "codec.decode.calls": ("count", "lower"),
    "codec.decode.self_s": ("s", "lower"),
    "codec.decode.factorize_per_call": ("ratio", "lower"),
    "treetext.parse.calls": ("count", "lower"),
    "treetext.parse.self_s": ("s", "lower"),
    "treetext.serialize.calls": ("count", "lower"),
    "treetext.serialize.self_s": ("s", "lower"),
    "trees.join.calls": ("count", "lower"),
    "trees.join.self_s": ("s", "lower"),
    "trees.matula_number.calls": ("count", "lower"),
    "trees.join.exact_fallbacks": ("count", "lower"),
    "enumerator.enumerate_trees.trees": ("count", "higher"),
    "enumerator.enumerate_trees.self_s": ("s", "lower"),
    "enumerator.count_trees.self_s": ("s", "lower"),
    "extremal.min_binary_bnb.self_s": ("s", "lower"),
    "extremal.min_binary_bnb.examined": ("count", "lower"),
    "extremal.min_binary_bnb.pruned": ("count", "higher"),
    "extremal.exhaustive_max.self_s": ("s", "lower"),
    "extremal.exhaustive_max.examined": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_CALLS = ("primes.nth_prime", "primes.prime_index", "primes.prime_count",
          "primes.factorize", "primes.is_prime_certified", "codec.encode",
          "codec.decode", "treetext.parse", "treetext.serialize", "trees.join",
          "trees.matula_number")
_SELF = ("primes.nth_prime", "primes.prime_index", "primes.prime_count",
         "primes.factorize", "codec.encode", "codec.decode", "treetext.parse",
         "treetext.serialize", "trees.join", "enumerator.enumerate_trees",
         "enumerator.count_trees", "extremal.min_binary_bnb",
         "extremal.exhaustive_max", "cli.run")
_COUNTERS = ("trees.join.exact_fallbacks", "enumerator.enumerate_trees.trees",
             "extremal.min_binary_bnb.examined", "extremal.min_binary_bnb.pruned",
             "extremal.exhaustive_max.examined")


def round_metrics(traces):
    """Per-layer metrics of one traced round (overhead excluded)."""
    stats, counters = {}, {}
    table = 0
    for tr in traces:
        for name, st in tr["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0) + value
        table = max(table, 8 * tr["counters"].get("kernel.primes_out", 0))

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    kernel_s = self_s("kernel.sieve_segment") + self_s("kernel.simple_sieve")
    values = counters.get("kernel.values", 0)
    out = {
        "kernel.segments": calls("kernel.sieve_segment"),
        "kernel.values": values,
        "kernel.self_s": kernel_s,
        "kernel.values_per_s": values / kernel_s if kernel_s else 0.0,
        "kernel.bootstrap_s": self_s("kernel.simple_sieve"),
        "primes.table_bytes": table,
        "codec.decode.factorize_per_call": (
            counters.get("codec.decode.nested_factorize", 0) / calls("codec.decode")
            if calls("codec.decode") else 0.0
        ),
    }
    for name in _CALLS:
        out[f"{name}.calls"] = calls(name)
    for name in _SELF:
        out[f"{name}.self_s"] = self_s(name)
    for name in _COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def run_metrics(traced_rounds, overheads):
    """Mean of each metric over the traced rounds, plus trace.overhead_s
    (median over pairs of traced minus untraced round wall time)."""
    per_round = [round_metrics(traces) for traces in traced_rounds]
    out = {}
    for name, (unit, _) in METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.fmean(r[name] for r in per_round)
        out[name] = (value, unit)
    return out
