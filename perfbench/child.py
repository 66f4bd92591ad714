"""One benchmark process: import the package from a given source tree,
then run one op and write a JSON report.

    python3 child.py REPORT SRC SPAWNED TRACE probe
    python3 child.py REPORT SRC SPAWNED TRACE cli ARGV...
    python3 child.py REPORT SRC SPAWNED TRACE session SPEC

SPAWNED is the parent's `time.monotonic()` just before it started this
process (the clock is shared by all processes on the host), so the report's
`setup_s` covers interpreter start and `import propp`.  TRACE is 0 or 1.
The report holds the in-process op time (`op_s`, around `cli.main` or each
library call), peak RSS and, when tracing, per-op layer statistics.
"""
import json
import os
import resource
import sys
import time


def _session_call(propp, op):
    kind, args = op[0], op[1:]
    if kind == "compare":
        return [[r.x, r.k, r.exact, r.landau, r.meng_main, r.meng_full,
                 r.ratio_exact_to_main] for r in propp.compare(args[0], args[1])]
    if kind == "pi_k_exact":
        return propp.pi_k_exact(*args)
    if kind == "check_lemma1":
        r = propp.check_lemma1(*args)
        return [r.outcome, r.prime]
    if kind == "enumerate_s_i":
        return [e.value for e in propp.enumerate_s_i(*args)]
    if kind == "theorem_terms_from_logs":
        t = propp.theorem_terms_from_logs(*args)
        return [t.k, t.l, t.j, t.f1_log, t.f2_lower_log, t.bracket]
    if kind == "check_property_p":
        v = propp.check_property_p(args[0])
        return [v.holds, v.witness and list(v.witness),
                v.witness_indices and list(v.witness_indices), v.triples_checked]
    raise ValueError(f"unknown session op {kind!r}")


def main(argv):
    report_path, src, spawned, trace, mode = argv[:5]
    rest = argv[5:]
    sys.path.insert(0, src)
    import propp
    from propp import cli
    imported = time.monotonic()
    where = os.path.realpath(propp.__file__)
    report = {"setup_s": imported - float(spawned), "propp_file": where,
              "ops": []}
    if not where.startswith(os.path.realpath(src) + os.sep):
        report["error"] = f"propp resolved to {where}, outside {src}"
        return report_path, report

    tracer = None
    if trace == "1":
        import layers
        tracer = layers.Tracer()
        layers.Installation(propp, tracer)

    def timed(call):
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        result = call()
        op_s = time.perf_counter() - t0
        entry = {"op_s": op_s}
        if tracer:
            entry["trace"] = tracer.end_op().as_dict()
        return result, entry

    if mode == "cli":
        rc, entry = timed(lambda: cli.main(rest))
        entry["rc"] = rc
        report["ops"].append(entry)
    elif mode == "session":
        with open(rest[0], encoding="utf-8") as fh:
            ops = json.load(fh)
        for op in ops:
            result, entry = timed(lambda: _session_call(propp, op))
            entry["result"] = result
            report["ops"].append(entry)
    if tracer:
        report["spans"] = [[s.ident, s.parent, s.layer, s.name, s.start, s.end]
                           for s in tracer.spans]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report_path, report


if __name__ == "__main__":
    path, body = main(sys.argv[1:])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
