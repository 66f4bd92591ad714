"""The four workloads: their op lists, the inputs each seed selects, and
the reference answer every op is checked against.

A seed only picks among inputs of nearly equal cost (menus of x within a
percent of each other) or permutes op order, so runs with different seeds
measure the same amount of work.  Every menu entry has a pinned answer in
pins.json, computed by `oracle` without the package (or, for floating-point
constants, recorded once from the package's reference output).
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gate
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

PIK2_X = (10 ** 9, 999_999_937, 999_999_001, 998_244_353)
PIK34_X = (10 ** 10, 9_999_999_967, 9_999_000_001, 9_990_000_001)
COUNT_S_LIMITS = (10 ** 16, 9_999_999_999_999_937, 9_990_000_000_000_001,
                  9_980_000_000_000_003)
SIEVE_LIMIT = 10 ** 8
CONSTRUCT_LIMIT = 10 ** 12
S7_LIMITS = (60 * 10 ** 24, 6_006 * 10 ** 22, 6_012 * 10 ** 22, 6_018 * 10 ** 22)
# class-3 primes whose squares form the Lemma-1 sample (all below 2^62)
SQUARES_RANGE = (200_000, 1_000_000)
SQUARES_SIZE = 4000

COMPARE_GRID = ([10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9], [2, 3, 4])
# Session queries: each menu repeated a fixed number of times, so the seed
# changes only the order and the random lemma1 / property-P arguments, and
# every seed asks for the same amount of work.  x stays within 5% of 1e9 so
# no query grows the prime cache beyond what `compare` left.
SESSION_PIK = tuple((x, k) for x in range(950_000_009, 10 ** 9, 3_125_000)
                    for k in (2, 3, 4))
SESSION_ENUM = tuple((i, limit, ex) for i in (1, 2, 3)
                     for limit in (10 ** 10, 10 ** 11, 10 ** 12) for ex in (False, True))
# (log x, j) with j in [2, l], l the window's width at that x
SESSION_THEOREM = tuple((log_x, j) for log_x, l in
                        ((6.0e3, 2), (1.0e5, 2), (1.0e8, 2), (1.0e10, 3), (1.0e12, 3))
                        for j in range(2, l + 1))


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One CLI command, run in a fresh process with `--out` and `--threads 1`."""

    family: str
    argv: list
    check: Callable[[int, bytes], Optional[str]]


@dataclass
class Plan:
    ops: list = field(default_factory=list)
    # library-session workload: the query list and a checker per query
    session: Optional[list] = None
    session_checks: Optional[list] = None


def count_plan(rng: random.Random, pins: dict, workdir: str) -> Plan:
    plan = Plan()
    for k, menu in ((2, PIK2_X), (3, PIK34_X), (4, PIK34_X)):
        x = rng.choice(menu)
        want = pins["pik"][f"{k}:{x}"]
        plan.ops.append(Op("pik", ["pik", "--x", str(x), "--k", str(k)],
                           lambda rc, out, want=want: gate.pik(rc, out, want)))
    for exclude in (False, True):
        limit = rng.choice(COUNT_S_LIMITS)
        pin = pins["count_s"][f"{limit}:{int(exclude)}"]
        argv = ["count-s", "--limit", str(limit)] + (["--exclude-qi"] if exclude else [])
        plan.ops.append(Op("count_s", argv, lambda rc, out, a=(limit, exclude, pin):
                           gate.count_s(rc, out, *a)))
    return plan


def constants_plan(rng: random.Random, pins: dict, workdir: str) -> Plan:
    csv = pins["sieve_csv"]
    ops = [
        Op("bounds", ["bounds", "--emit", "json"], gate.bounds),
        Op("constants", ["constants"], lambda rc, out, d=pins["constants_digest"]:
           gate.constants(rc, out, d)),
        Op("sieve_csv", ["sieve", "--limit", str(SIEVE_LIMIT), "--emit", "csv"],
           lambda rc, out: gate.exact_bytes(rc, out, csv["lines"], csv["sha256"])),
    ]
    rng.shuffle(ops)
    return Plan(ops=ops)


def _write_sequence(path: str, values) -> bytes:
    data = "".join(f"{v}\n" for v in values).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def verify_plan(rng: random.Random, pins: dict, workdir: str) -> Plan:
    s_values = oracle.s_union(CONSTRUCT_LIMIT)
    if len(s_values) != pins["construct_count"]:
        raise RuntimeError(f"oracle S has {len(s_values)} elements, "
                           f"pinned {pins['construct_count']}")
    s_path = os.path.join(workdir, "s.txt")
    s_digest = gate.digest(_write_sequence(s_path, s_values))
    squares, planted = oracle.planted_squares(rng, *SQUARES_RANGE, SQUARES_SIZE)
    sq_path = os.path.join(workdir, "squares.txt")
    _write_sequence(sq_path, squares)
    with_planted = sorted(squares + [planted])
    pl_path = os.path.join(workdir, "planted.txt")
    _write_sequence(pl_path, with_planted)
    s7 = oracle.s_layer(7, rng.choice(S7_LIMITS))
    s7_path = os.path.join(workdir, "s7.txt")
    _write_sequence(s7_path, s7)

    def holds(path, n):
        return Op("verify", ["verify", "--force", "--input", path],
                  lambda rc, out: gate.verify_holds(rc, out, n))

    return Plan(ops=[
        Op("construct", ["construct", "--all", "--limit", str(CONSTRUCT_LIMIT)],
           lambda rc, out: gate.exact_bytes(rc, out, len(s_values), s_digest)),
        holds(s_path, len(s_values)),
        holds(sq_path, len(squares)),
        Op("verify", ["verify", "--force", "--input", pl_path],
           lambda rc, out: gate.verify_planted(rc, out, with_planted, planted)),
        holds(s7_path, len(s7)),
    ])


def _short_sequence(rng: random.Random) -> list:
    return sorted(rng.sample(range(1, 400), rng.randint(3, 9)))


def session_plan(rng: random.Random, pins: dict, workdir: str) -> Plan:
    rows = pins["compare"]
    queries = [["compare"] + list(COMPARE_GRID)]
    checks = [lambda got: None if len(got) == len(rows) and all(
        g[:3] == w[:3] and all(gate.close(a, b) for a, b in zip(g[3:], w[3:]))
        for g, w in zip(got, rows)) else f"compare rows {got} differ from the pin"]
    stream = ([["pi_k_exact", x, k] for x, k in SESSION_PIK]
              + [["enumerate_s_i", *a] for a in SESSION_ENUM] * 3
              + [["theorem_terms_from_logs", *a] for a in SESSION_THEOREM] * 4
              + [["check_lemma1"] + [rng.randrange(2, 10 ** 6) for _ in range(3)]
                 for _ in range(60)]
              + [["check_property_p", _short_sequence(rng)] for _ in range(60)])
    rng.shuffle(stream)
    for query in stream:
        kind, args = query[0], query[1:]
        if kind == "pi_k_exact":
            want = pins["pik"][f"{args[1]}:{args[0]}"]
            check = (lambda got, a=args, w=want: None if got == w
                     else f"pi_k_exact{tuple(a)} = {got}, expected {w}")
        elif kind == "check_lemma1":
            check = lambda got, a=args: gate.lemma1(a, got)
        elif kind == "enumerate_s_i":
            i, limit, ex = args
            count, want = pins["enumerate"][f"{i}:{limit}:{int(ex)}"]
            check = (lambda got, a=args, n=count, w=want:
                     None if len(got) == n and gate.digest(
                         "".join(f"{v}\n" for v in got).encode()) == w
                     else f"enumerate_s_i{tuple(a)} differs from the reference")
        elif kind == "theorem_terms_from_logs":
            log_x, j = args
            want = pins["theorem"][f"{log_x}:{j}"]
            check = (lambda got, a=args, w=want: None if got[:3] == w[:3] and all(
                gate.close(p, q) for p, q in zip(got[3:], w[3:]))
                else f"theorem_terms_from_logs{tuple(a)} = {got}, expected {w}")
        else:
            check = lambda got, a=args: gate.property_p(a[0], got)
        queries.append(query)
        checks.append(check)
    return Plan(session=queries, session_checks=checks)


BUILDERS = {"count": count_plan, "constants": constants_plan,
            "verify": verify_plan, "session": session_plan}


def build(workload: str, seed: int, workdir: str) -> Plan:
    return BUILDERS[workload](random.Random(seed), load_pins(), workdir)
