"""Correctness gate: each check takes what an op produced (exit code and
output) plus a reference answer that the code under test did not produce,
and returns None when the op is correct or a one-line reason when not."""
from __future__ import annotations

import functools
import hashlib
import json
import math

import oracle


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _round(obj, digits: int):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}") if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round(v, digits) for v in obj]
    return obj


def rounded_digest(obj, digits: int = 9) -> str:
    """Checksum of a JSON value with every float rounded to `digits`
    significant digits, so a change in summation order that moves the last
    bits of a truncated prime sum does not count as a wrong answer."""
    text = json.dumps(_round(obj, digits), sort_keys=True, separators=(",", ":"))
    return digest(text.encode())


def close(a, b, rel: float = 1e-9) -> bool:
    return a == b or (a is not None and b is not None
                      and math.isclose(a, b, rel_tol=rel, abs_tol=0.0))


def _json(out: bytes, rc: int, want_rc: int = 0):
    if rc != want_rc:
        raise _Reject(f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(out)
    except ValueError:
        raise _Reject(f"output is not JSON ({len(out)} bytes)")


class _Reject(Exception):
    pass


def _checked(fn):
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _Reject as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
    return run


@_checked
def pik(rc: int, out: bytes, expected: int):
    """`pik --mode exact` reports the pinned count."""
    got = _json(out, rc)["exact"]
    if got != expected:
        return f"pik exact {got}, expected {expected}"
    return None


@_checked
def count_s(rc: int, out: bytes, limit: int, exclude: bool, pin: dict):
    """`count-s` per-layer counts, total and baseline against the pin; the
    literal layers also against pi_i(floor(sqrt(x / q_i^4));4,3) and the
    envelope against its formula."""
    body = _json(out, rc)
    per_index = {int(i): c for i, c in body["per_index"].items()}
    want = {int(i): c for i, c in pin["per_index"].items()}
    if per_index != want:
        return f"per-layer counts {per_index}, expected {want}"
    if int(body["total"]) != sum(want.values()):
        return f"total {body['total']}, expected {sum(want.values())}"
    if int(body["baseline_squares"]) != pin["baseline_squares"]:
        return f"baseline {body['baseline_squares']}, expected {pin['baseline_squares']}"
    if not close(body["envelope"], oracle.envelope(limit), 1e-12):
        return f"envelope {body['envelope']}, expected {oracle.envelope(limit)}"
    if not exclude:
        for i, c in per_index.items():
            q = oracle.nth_class3(i)
            ref = oracle.count_products(math.isqrt(limit // q ** 4), i)
            if c != ref:
                return f"S_{i} count {c} disagrees with pi_{i} = {ref}"
    return None


@_checked
def bounds(rc: int, out: bytes):
    """`bounds --emit json` exits 0 with every check passed."""
    body = _json(out, rc)
    if body["all_passed"] is not True:
        return "bounds reports a failed check"
    return None


@_checked
def constants(rc: int, out: bytes, expected_digest: str):
    """`constants` JSON matches the pinned rounded checksum."""
    got = rounded_digest(_json(out, rc))
    if got != expected_digest:
        return f"constants digest {got[:12]}, expected {expected_digest[:12]}"
    return None


@_checked
def exact_bytes(rc: int, out: bytes, lines: int, expected_digest: str):
    """Plain output (CSV, sequence file) equals the reference byte for byte."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    got = out.count(b"\n")
    if got != lines:
        return f"{got} lines, expected {lines}"
    if digest(out) != expected_digest:
        return "output checksum differs from the reference"
    return None


@_checked
def verify_holds(rc: int, out: bytes, n: int):
    """`verify` on a set that has Property P by construction."""
    body = _json(out, rc)
    if body["holds"] is not True or body["witness"] is not None:
        return f"verify found witness {body['witness']} in a Property-P set"
    if body["elements"] != n or body["triples_checked"] != math.comb(n, 3):
        return (f"verify counted {body['elements']} elements and "
                f"{body['triples_checked']} triples, expected {n} and {math.comb(n, 3)}")
    return None


@_checked
def verify_planted(rc: int, out: bytes, values: list, planted: int):
    """`verify` on a Property-P set plus one planted element: exit 1 at a
    witness that divides and contains the planted element."""
    body = _json(out, rc, want_rc=1)
    if body["holds"] is not False:
        return "verify missed the planted violation"
    a, b, c = (int(v) for v in body["witness"])
    i, j, k = body["witness_indices"]
    if not (i < j < k and (values[i], values[j], values[k]) == (a, b, c)):
        return f"witness {body['witness']} does not match indices {body['witness_indices']}"
    if (b + c) % a != 0:
        return f"witness {a} does not divide {b} + {c}"
    if planted not in (a, b, c):
        return f"witness {body['witness']} misses the planted element {planted}"
    return None


def lemma1(args, result):
    """Arithmetic check of one `check_lemma1` answer."""
    n1, n2, n3 = args
    outcome, prime = result
    g = math.gcd(n2, n3)
    if outcome == "applicable+verified":
        if prime not in oracle.class3_prime_factors(n1) or g % prime == 0:
            return f"lemma1{tuple(args)}: {prime} is not a valid witness prime"
        if (n2 * n2 + n3 * n3) % (n1 * n1) == 0:
            return f"lemma1{tuple(args)}: verified but n1^2 divides n2^2 + n3^2"
        if any(g % p for p in oracle.class3_prime_factors(n1) if p < prime):
            return f"lemma1{tuple(args)}: {prime} is not the smallest witness prime"
        return None
    if outcome == "not-applicable":
        if prime is not None or any(g % p for p in oracle.class3_prime_factors(n1)):
            return f"lemma1{tuple(args)}: a witness prime exists"
        return None
    return f"lemma1{tuple(args)}: outcome {outcome}"


def property_p(seq, result):
    """A short `check_property_p` verdict against the cubic loop."""
    holds, witness, indices, rank = oracle.first_witness(seq)
    want = [holds, witness and list(witness), indices and list(indices), rank]
    if result != want:
        return f"check_property_p({seq}) = {result}, expected {want}"
    return None
