"""Command-line entry point binding all modules.

`main` opens the report stream once, stdout or `--out` (see `_output`),
and runs the command inside it; each `cmd_*(args, out)` computes first,
then writes to `out`.

Exit codes: 0 success (and Property P holds / all bounds pass), 1 on a
property violation or bound failure, 2 on usage, domain or resource
errors.  JSON is the stable machine interface; integers beyond 2^53 are
emitted as decimal strings so consumers never lose precision.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from decimal import Decimal, InvalidOperation

from . import constants, construct, counting, primes, seqfile, verify
from .errors import PropPError, require_fits, require_int

SCHEMA_VERSION = "1"

_JSON_INT_LIMIT = 1 << 53


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _JSON_INT_LIMIT else obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(payload: dict, stream) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    json.dump(_jsonable(body), stream, indent=2)
    stream.write("\n")


@contextlib.contextmanager
def _output(path):
    """The report stream: stdout, or `--out`.  A regular or new file is
    written through a temp file `<target>.<random>.tmp` that `mkstemp`
    creates beside it, so a file left by a killed run never collides.
    It exists while the command runs, takes the old file's mode (a new
    file's is 0666 less the umask) and replaces it once the command
    returns, and is removed if the command raises (exit 2); a device or
    pipe (such as /dev/null) is written in place."""
    if not path:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as stream:
            yield stream
        return
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(target) + ".",
                               dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8") as stream:
            yield stream
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        else:
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _magnitude(text: str):
    """Parse a possibly huge numeric argument: exact int when integral."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not d.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if d == d.to_integral_value():
        if d.adjusted() >= seqfile.MAX_INT_DIGITS:
            raise argparse.ArgumentTypeError(
                f"integer has more than {seqfile.MAX_INT_DIGITS} digits")
        return int(d)
    return float(d)


def _int_arg(text: str) -> int:
    v = _magnitude(text)
    if not isinstance(v, int):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return v


def _int_list(text: str) -> list[int]:
    return [_int_arg(part) for part in text.split(",") if part]


def _add_plimits(parser) -> None:
    parser.add_argument("--plimit", type=_int_arg, default=constants.DEFAULT_CONSTANT_PLIMIT)
    parser.add_argument("--h-plimit", type=_int_arg, default=constants.DEFAULT_H_PLIMIT)


def cmd_sieve(args, out) -> int:
    # primes_upto(1) is an empty array, not an error
    limit = require_int("sieve limit", args.limit, 2)
    # ~60 B a listed prime: peak RSS 201 MB at 1e8, 648 MB at 4e8 (the
    # uint32 store, 4 B a prime); past the sieve's cap primes_upto refuses
    # on its own
    if args.emit == "json" and limit <= primes.MAX_SIEVE_LIMIT:
        require_fits(f"the class-3 primes up to {limit}", counting.pi_k_exact(limit, 1), 60)
    prime_count = len(primes.primes_upto(limit))
    class3 = primes.class3_upto(limit)
    if args.emit == "csv":
        seqfile.write_sequence(class3, out)
    else:
        _dump_json({
            "limit": limit,
            "prime_count": prime_count,
            "class3_count": len(class3),
            "class3": class3.tolist(),
        }, out)
    return 0


def cmd_construct(args, out) -> int:
    if args.all == (args.set_index is not None):
        raise PropPError("exactly one of --set-index and --all is required")
    if args.emit == "json":
        elements = (construct.enumerate_s(args.limit, args.exclude_qi) if args.all else
                    construct.enumerate_s_i(args.set_index, args.limit, args.exclude_qi))
        _dump_json({
            "limit": args.limit,
            "exclude_qi": args.exclude_qi,
            "count": len(elements),
            "elements": [asdict(e) for e in elements],
        }, out)
        return 0
    roots = (construct.s_roots(args.limit, args.exclude_qi)[0] if args.all else
             construct.s_i_roots(args.set_index, args.limit, args.exclude_qi)[0])
    # roots below 2^31 square within int64, which the array writer formats
    small = roots.dtype != object and all(roots[-1:] < 1 << 31)
    seqfile.write_sequence(roots * roots if small else (r * r for r in roots.tolist()), out)
    return 0


def cmd_baseline(args, out) -> int:
    if args.kind == "squares":
        if args.limit is None:
            raise PropPError("--kind squares requires --limit")
        values = construct.baseline_squares(args.limit)
    else:
        if args.x is None:
            raise PropPError("--kind block requires --x")
        values = construct.finite_block(args.x)
    if args.emit == "json":
        _dump_json({"kind": args.kind, "count": len(values),
                    "values": values}, out)
    else:
        seqfile.write_sequence(values, out)
    return 0


def cmd_verify(args, out) -> int:
    values = seqfile.read_sequence(args.input)  # validated as it is parsed
    verdict = verify.decide_property_p(values, force=args.force)
    _dump_json({
        "holds": verdict.holds,
        "witness": list(verdict.witness) if verdict.witness else None,
        "witness_indices": (list(verdict.witness_indices)
                            if verdict.witness_indices else None),
        "triples_checked": verdict.triples_checked,
        "elements": len(values),
    }, out)
    return 0 if verdict.holds else 1


def cmd_lemma1(args, out) -> int:
    result = verify.check_lemma1(args.n1, args.n2, args.n3)
    if args.emit == "json":
        _dump_json({"outcome": result.outcome, "prime": result.prime}, out)
    elif result.prime is None:
        out.write(f"{result.outcome}\n")
    else:
        out.write(f"{result.outcome} p={result.prime}\n")
    return 0 if result.outcome != verify.APPLICABLE_VIOLATED else 1


def _meng_kwargs(args) -> dict:
    return {"c34_limit": args.plimit, "h_plimit": args.h_plimit}


def cmd_pik(args, out) -> int:
    payload: dict = {"x": args.x, "k": args.k, "mode": args.mode}
    if args.mode in ("exact", "all"):
        payload["exact"] = counting.pi_k_exact(args.x, args.k)
    if args.mode in ("main", "all"):
        payload["meng_main"] = counting.meng_estimate(
            args.x, args.k, "main", **_meng_kwargs(args))
    if args.mode in ("full", "all"):
        payload["meng_full"] = counting.meng_estimate(
            args.x, args.k, "full", **_meng_kwargs(args))
        payload["neglected_term_scale"] = counting.meng_neglected_scale(args.x, args.k)
        payload["c34_truncation"] = args.plimit
    if args.mode == "all":
        payload["landau"] = counting.landau_term(args.x, args.k)
        if payload.get("meng_main"):
            payload["ratio_exact_to_main"] = payload["exact"] / payload["meng_main"]
    _dump_json(payload, out)
    return 0


_COMPARE_COLUMNS = ("x", "k", "exact", "landau", "meng_main", "meng_full", "ratio")


def cmd_compare(args, out) -> int:
    reports = counting.compare(args.x_grid, args.k_set, **_meng_kwargs(args))
    if args.emit == "json":
        _dump_json({"reports": [asdict(r) for r in reports]}, out)
    else:
        out.write(",".join(_COMPARE_COLUMNS) + "\n")
        for r in reports:
            cells = [str(r.x), str(r.k), str(r.exact)]
            for v in (r.landau, r.meng_main, r.meng_full, r.ratio_exact_to_main):
                cells.append("" if v is None else f"{v:.10g}")
            out.write(",".join(cells) + "\n")
    return 0


def cmd_count_s(args, out) -> int:
    baseline, per_index = counting.count_s(args.limit, args.exclude_qi)
    total = sum(per_index.values())
    try:
        env = constants.envelope(args.limit)
    except PropPError:
        env = None
    if args.emit == "plain":
        for i, c in per_index.items():
            out.write(f"S_{i}: {c}\n")
        out.write(f"total: {total}\n")
        out.write(f"baseline_squares: {baseline}\n")
        out.write(f"envelope: {env}\n")
    else:
        _dump_json({
            "limit": args.limit,
            "per_index": per_index,
            "total": total,
            "baseline_squares": baseline,
            "envelope": env,
        }, out)
    return 0


def cmd_constants(args, out) -> int:
    # the suite's one sieve fills the prime store; the values below read it warm
    checks = constants.bounds_report(args.plimit, args.h_plimit)
    m_est = constants.mertens_m34(args.plimit)
    c_est = constants.c34(args.plimit)
    # the published 0.1485/0.1486 chain is specifically about the 1e4 truncation
    lp2 = constants.lambda_p2_sum(10 ** 4)
    value = {c.name: c.value for c in checks}
    _dump_json({
        "plimit": args.plimit,
        "h_plimit": args.h_plimit,
        "euler_mascheroni": constants.EULER_GAMMA,
        "m34": asdict(m_est),
        "c34": asdict(c_est),
        "lambda_p2": asdict(lp2),
        "h_second_at_one_third": value["h_second_lower"],
        "corollary_constant": value["corollary_constant"],
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }, out)
    return 0


def cmd_bounds(args, out) -> int:
    checks = constants.bounds_report(args.plimit, args.h_plimit)
    ok = all(c.passed for c in checks)
    if args.emit == "json":
        _dump_json({"checks": [asdict(c) for c in checks], "all_passed": ok}, out)
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            out.write(f"{status} {c.name}: value={c.value:.6g} "
                      f"requirement: {c.requirement}\n")
    return 0 if ok else 1


def cmd_envelope(args, out) -> int:
    _dump_json({"x": args.x, "value": constants.envelope(args.x)}, out)
    return 0


def cmd_theorem_terms(args, out) -> int:
    if (args.x is None) == (args.log_x is None):
        raise PropPError("exactly one of --x and --log-x is required")
    if args.x is not None:
        payload = asdict(constants.theorem_terms(args.x, args.j))
        payload["x"] = args.x
    else:
        payload = asdict(constants.theorem_terms_from_logs(args.log_x, args.j))
        payload["log_x"] = args.log_x
    _dump_json(payload, out)
    return 0


def _add_common(parser, emits, default_emit, fn):
    parser.set_defaults(fn=fn)
    parser.add_argument("--emit", choices=emits, default=default_emit)
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--threads", type=_int_arg, help="ignored: the sieve is serial")


_COMMANDS = ("sieve", "construct", "baseline", "verify", "lemma1", "pik", "compare",
             "count-s", "constants", "bounds", "envelope", "theorem-terms")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The `propp` parser, with every subcommand, or with `command` only:
    the full parser then reports the top level's errors, so their usage
    lines list every subcommand."""
    top = argparse.ArgumentParser(
        prog="propp",
        description="Property-P set construction, verification and counting")
    if command is not None:
        top.error = lambda message: build_parser().error(message)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text) if command in (None, name) else None

    if p := add("sieve", "list primes in the class 3 mod 4"):
        p.add_argument("--limit", type=_int_arg, required=True)
        _add_common(p, ("json", "csv"), "csv", cmd_sieve)

    if p := add("construct", "enumerate the set S or one layer S_i"):
        p.add_argument("--set-index", type=_int_arg)
        p.add_argument("--all", action="store_true")
        p.add_argument("--limit", type=_int_arg, required=True)
        p.add_argument("--exclude-qi", action="store_true",
                       help="require nu coprime to q_i")
        _add_common(p, ("plain", "json"), "plain", cmd_construct)

    if p := add("baseline", "classical baseline sequences"):
        p.add_argument("--kind", choices=("squares", "block"), required=True)
        p.add_argument("--limit", type=_int_arg)
        p.add_argument("--x", type=_int_arg)
        _add_common(p, ("plain", "json"), "plain", cmd_baseline)

    if p := add("verify", "decide Property P for a sequence file"):
        p.add_argument("--input", required=True)
        p.add_argument("--force", action="store_true")
        _add_common(p, ("json",), "json", cmd_verify)

    if p := add("lemma1", "square-sum divisibility witness test"):
        p.add_argument("n1", type=_int_arg)
        p.add_argument("n2", type=_int_arg)
        p.add_argument("n3", type=_int_arg)
        _add_common(p, ("plain", "json"), "plain", cmd_lemma1)

    if p := add("pik", "count k-almost-primes in the class"):
        p.add_argument("--x", type=_int_arg, required=True)
        p.add_argument("--k", type=_int_arg, required=True)
        p.add_argument("--mode", choices=("exact", "main", "full", "all"),
                       default="exact")
        _add_plimits(p)
        _add_common(p, ("json",), "json", cmd_pik)

    if p := add("compare", "exact counts against the asymptotics"):
        p.add_argument("--x-grid", type=_int_list, required=True)
        p.add_argument("--k-set", type=_int_list, required=True)
        _add_plimits(p)
        _add_common(p, ("csv", "json"), "csv", cmd_compare)

    if p := add("count-s", "per-layer counts and the envelope"):
        p.add_argument("--limit", type=_int_arg, required=True)
        p.add_argument("--exclude-qi", action="store_true")
        _add_common(p, ("json", "plain"), "json", cmd_count_s)

    if p := add("constants", "all named constants with bound checks"):
        _add_plimits(p)
        _add_common(p, ("json",), "json", cmd_constants)

    if p := add("bounds", "run the inequality suite, exit 1 on failure"):
        _add_plimits(p)
        _add_common(p, ("plain", "json"), "plain", cmd_bounds)

    if p := add("envelope", "the counting-function envelope at x"):
        p.add_argument("--x", type=_magnitude, required=True)
        _add_common(p, ("json",), "json", cmd_envelope)

    if p := add("theorem-terms", "per-layer bound factors at (x, j)"):
        p.add_argument("--x", type=_magnitude)
        p.add_argument("--log-x", type=float)
        p.add_argument("--j", type=_int_arg, required=True)
        _add_common(p, ("json",), "json", cmd_theorem_terms)

    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # only the named subcommand's parser: building all twelve took ~3 ms
        args = build_parser(argv[0] if argv[:1] and argv[0] in _COMMANDS else None).parse_args(argv)
        with _output(args.out) as out:
            return args.fn(args, out)
    except (PropPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
