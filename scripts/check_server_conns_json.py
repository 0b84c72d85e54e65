#!/usr/bin/env python3
"""Structural schema check for BENCH_server_conns.json.

Used by two CI consumers: the `server-conns` job validates the JSON a
fresh `conn_storm --small-only` run just emitted, and the committed
baseline under bench_results/ is validated the same way. Checks
structure plus (optionally) the I/O-plane gates.

A live `conn_storm` run emits only the epoll series. The committed
baseline also carries `threads_small` and `threads_large`, measured
against the thread-per-connection plane the server used to ship; it is
the evidence that plane was removed on. The gates read those series
and fail when they are absent:

* `--gate-small R` — epoll throughput must be at least R times the
  thread-per-connection plane at the small connection count.
* `--gate-large R` — same ratio at the large (10k+) count, and the
  large series must actually be present: readiness-driven
  multiplexing wins big once connections outnumber cores by orders
  of magnitude.

Usage: check_server_conns_json.py PATH [--gate-small R] [--gate-large R]
"""

import json
import math
import sys

POINT_KEYS = (
    "label",
    "threads",
    "throughput",
    "committed",
    "aborted",
    "p50_us",
    "p99_us",
)
SMALL_LABELS = ["epoll_small", "epoll_nobatch_small"]
LARGE_LABELS = ["epoll_large", "epoll_nobatch_large"]
# Label lists a file may carry: a live small-only run, a live full run,
# and the committed baseline with its thread-plane series.
ACCEPTED_LABELS = [
    SMALL_LABELS,
    SMALL_LABELS + LARGE_LABELS,
    ["threads_small"] + SMALL_LABELS + ["threads_large"] + LARGE_LABELS,
]


def fail(msg):
    print(f"{sys.argv[1]}: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    path = sys.argv[1]
    gate_small = None
    gate_large = None
    rest = sys.argv[2:]
    while rest:
        flag = rest.pop(0)
        if flag == "--gate-small":
            if not rest:
                fail("--gate-small needs a ratio")
            gate_small = float(rest.pop(0))
        elif flag == "--gate-large":
            if not rest:
                fail("--gate-large needs a ratio")
            gate_large = float(rest.pop(0))
        else:
            fail(f"unknown flag {flag!r}")
    with open(path) as f:
        doc = json.load(f)

    if doc.get("name") != "server_conns":
        fail(f'name is {doc.get("name")!r}, expected "server_conns"')
    series = doc.get("series")
    if not series:
        fail("no series")
    labels = [p.get("label") for p in series]
    if labels not in ACCEPTED_LABELS:
        fail(f"labels {labels} are none of {ACCEPTED_LABELS}")

    by_label = {}
    for i, point in enumerate(series):
        for key in POINT_KEYS:
            if key not in point:
                fail(f"series {i} missing {key}")
        for key in ("threads", "committed", "aborted"):
            if not isinstance(point[key], int) or point[key] < 0:
                fail(f"series {i}: {key} = {point[key]!r} not a non-negative int")
        if point["threads"] == 0:
            fail(f"series {i}: zero connections")
        if point["committed"] == 0:
            fail(f'series {i} ({point["label"]}): made no progress')
        for key in ("throughput", "p50_us", "p99_us"):
            v = point[key]
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                fail(f"series {i}: {key} = {v!r} not finite and non-negative")
        by_label[point["label"]] = point

    # Each tier must run every plane at the same connection count, and
    # the large tier must live up to its name.
    for tier in (["threads_small"] + SMALL_LABELS, ["threads_large"] + LARGE_LABELS):
        counts = {by_label[l]["threads"] for l in tier if l in by_label}
        if len(counts) > 1:
            fail(f"mismatched connection counts within a tier: {sorted(counts)}")
    if "epoll_large" in by_label and by_label["epoll_large"]["threads"] < 10_000:
        fail(
            f'epoll_large ran {by_label["epoll_large"]["threads"]} connections, '
            "expected at least 10000"
        )

    def check_gate(name, threads_label, epoll_label, gate):
        if threads_label not in by_label:
            fail(f"--gate-{name} given but {threads_label} series is absent")
        base = by_label[threads_label]["throughput"]
        ours = by_label[epoll_label]["throughput"]
        if base <= 0:
            fail(f"{threads_label} throughput is zero")
        ratio = ours / base
        if ratio < gate:
            fail(
                f"{epoll_label} is only {ratio:.2f}x {threads_label} "
                f"(required: >= {gate:.2f}x)"
            )
        print(f"{path}: {name} gate ok ({ratio:.2f}x >= {gate:.2f}x)")

    if gate_small is not None:
        check_gate("small", "threads_small", "epoll_small", gate_small)
    if gate_large is not None:
        check_gate("large", "threads_large", "epoll_large", gate_large)

    print(f"{path}: {len(series)} series OK")


if __name__ == "__main__":
    main()
