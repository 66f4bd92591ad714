"""Regenerate pins.json, the reference answers of every menu entry.

    PYTHONPATH=src python3 perfbench/make_pins.py

Integer answers (counts, sequences, the sieve CSV) come from `oracle`,
which does not use the package; each is also compared with the package's
answer here, and a disagreement stops the script.  Floating-point answers
(the `constants` report, the asymptotic columns of `compare`, theorem
terms) have no independent reference and are recorded from the package.
Regenerate only when the menus change, never to absorb a changed answer.
"""
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import oracle  # noqa: E402
import workloads as w  # noqa: E402

import propp  # noqa: E402
from propp import cli  # noqa: E402


def agree(what, ours, theirs):
    if ours != theirs:
        raise SystemExit(f"{what}: oracle {ours} != package {theirs}")
    return ours


def count_s_pin(limit, exclude):
    per_index = {}
    i = 1
    while True:
        q = oracle.nth_class3(i)
        c = oracle.count_products(math.isqrt(limit // q ** 4), i,
                                  exclude=q if exclude else None)
        if c == 0:
            break
        per_index[str(i)] = c
        i += 1
    baseline = len(oracle.class3_upto(math.isqrt(limit)))
    return {"per_index": per_index, "baseline_squares": baseline}


def cli_json(argv, tmp):
    if cli.main(argv + ["--out", tmp]) != 0:
        raise SystemExit(f"{argv} failed")
    with open(tmp, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    tmp = os.path.join(HERE, ".pins.tmp")
    pins = {"pik": {}, "count_s": {}, "enumerate": {}, "theorem": {}}
    pik_cases = ([(2, x) for x in w.PIK2_X] + [(k, x) for k in (3, 4) for x in w.PIK34_X]
                 + [(k, x) for x, k in w.SESSION_PIK])
    for k, x in pik_cases:
        pins["pik"][f"{k}:{x}"] = agree(f"pi_{k}({x})", oracle.count_products(x, k),
                                        propp.pi_k_exact(x, k))
    for limit in w.COUNT_S_LIMITS:
        for exclude in (False, True):
            pin = count_s_pin(limit, exclude)
            body = cli_json(["count-s", "--limit", str(limit)]
                            + (["--exclude-qi"] if exclude else []), tmp)
            agree(f"count-s {limit} {exclude}", pin["per_index"], body["per_index"])
            agree("baseline", pin["baseline_squares"], body["baseline_squares"])
            pins["count_s"][f"{limit}:{int(exclude)}"] = pin
    c3 = oracle.class3_upto(w.SIEVE_LIMIT)
    pins["sieve_csv"] = {"lines": len(c3),
                         "sha256": gate.digest("".join(f"{q}\n" for q in c3).encode())}
    pins["constants_digest"] = gate.rounded_digest(cli_json(["constants"], tmp))
    pins["construct_count"] = agree(
        "S count", len(oracle.s_union(w.CONSTRUCT_LIMIT)),
        len(propp.enumerate_s(w.CONSTRUCT_LIMIT)))
    rows = []
    for r in propp.compare(*w.COMPARE_GRID):
        agree(f"compare {r.x} {r.k}", oracle.count_products(r.x, r.k), r.exact)
        rows.append([r.x, r.k, r.exact, r.landau, r.meng_main, r.meng_full,
                     r.ratio_exact_to_main])
    pins["compare"] = rows
    for i, limit, ex in w.SESSION_ENUM:
        values = agree(f"S_{i}({limit}, {ex})", oracle.s_layer(i, limit, ex),
                       [e.value for e in propp.enumerate_s_i(i, limit, ex)])
        pins["enumerate"][f"{i}:{limit}:{int(ex)}"] = [
            len(values), gate.digest("".join(f"{v}\n" for v in values).encode())]
    for log_x, j in w.SESSION_THEOREM:
        t = propp.theorem_terms_from_logs(log_x, j)
        pins["theorem"][f"{log_x}:{j}"] = [t.k, t.l, t.j, t.f1_log, t.f2_lower_log,
                                           t.bracket]
    os.remove(tmp)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
