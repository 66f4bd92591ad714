"""Tests of the benchmark itself: self-time arithmetic, binding coverage
of the tracer, the correctness gate, the pins and the source guard."""
import ast
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans_add_up_to_the_wall():
    clock = FakeClock()
    tr = layers.Tracer(clock)
    tr.begin_op()                                   # t=0, cli
    clock.now = 1.0
    a = tr.enter("counting", "pi_k_exact")          # 1..10 counting
    clock.now = 3.0
    b = tr.enter("primes", "class3_upto")           # 3..6 primes
    clock.now = 4.0
    c = tr.enter("primes", "primes_upto")           # 4..5 primes, nested
    clock.now = 5.0
    tr.exit(c)
    clock.now = 6.0
    tr.exit(b)
    clock.now = 10.0
    tr.exit(a)
    clock.now = 12.0
    d = tr.enter("verify", "check_property_p")      # 12..13 verify
    clock.now = 13.0
    tr.exit(d)
    clock.now = 20.0
    op = tr.end_op()
    assert op.wall_s == 20.0
    assert op.self_s == {"primes": 3.0, "constants": 0.0, "construct": 0.0,
                         "counting": 6.0, "verify": 1.0, "seqfile": 0.0, "cli": 10.0}
    assert sum(op.self_s.values()) == op.wall_s
    # calls count entries from another layer, not nested same-layer calls
    assert op.counts["primes.calls"] == 1 and op.counts["counting.calls"] == 1
    assert [(s.name, s.parent, s.start, s.end) for s in tr.spans] == [
        ("pi_k_exact", None, 1.0, 10.0), ("class3_upto", 0, 3.0, 6.0),
        ("primes_upto", 1, 4.0, 5.0), ("check_property_p", None, 12.0, 13.0)]


def test_spans_must_close_in_order():
    tr = layers.Tracer(FakeClock())
    tr.begin_op()
    outer = tr.enter("primes", "sieve")
    tr.enter("primes", "primes_upto")
    with pytest.raises(RuntimeError):
        tr.exit(outer)


def _cross_module_imports():
    """(module, name) for every `from .layer import name` in the package."""
    pkg = os.path.join(ROOT, "src", "propp")
    found = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(pkg, fname), encoding="utf-8").read())
        mod = "propp" if fname == "__init__.py" else f"propp.{fname[:-3]}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in layers.LAYERS):
                found += [(mod, node.module, a.asname or a.name) for a in node.names]
    return found


@pytest.fixture
def installed():
    propp = pytest.importorskip("propp")
    tracer = layers.Tracer()
    inst = layers.Installation(propp, tracer)
    try:
        yield propp, tracer
    finally:
        inst.remove()


def test_every_cross_module_binding_is_traced(installed):
    import importlib
    propp, _ = installed
    imports = _cross_module_imports()
    assert ("propp.counting", "primes", "class3_upto") in imports
    checked = 0
    for mod, source, name in imports:
        value = getattr(importlib.import_module(mod), name)
        home = getattr(importlib.import_module(f"propp.{source}"), name)
        if callable(value) and not isinstance(value, type):
            assert getattr(value, "__wrapped_layer__", None) == source, f"{mod}.{name}"
            assert value is home, f"{mod}.{name} is not the shared wrapper"
            checked += 1
    assert checked > 40
    assert layers.unwrapped_bindings(propp) == []


def test_installation_restores_the_package():
    propp = pytest.importorskip("propp")
    before = propp.counting.class3_upto
    inst = layers.Installation(propp, layers.Tracer())
    assert propp.counting.class3_upto is not before
    inst.remove()
    assert propp.counting.class3_upto is before
    assert layers.unwrapped_bindings(propp)  # plain functions again


def test_traced_call_is_charged_to_its_layers(installed):
    propp, tracer = installed
    tracer.begin_op()
    assert propp.pi_k_exact(1000, 2) == propp.counting.pi_k_exact(1000, 2)
    op = tracer.end_op()
    assert op.counts["counting.calls"] == 2
    assert op.maxima["counting.max_sieve_limit"] == 1000 // 3
    assert op.self_s["counting"] > 0 and op.self_s["primes"] > 0
    assert math.isclose(sum(op.self_s.values()), op.wall_s, abs_tol=1e-9)


def test_untraceable_binding_fails_loudly(monkeypatch):
    propp = pytest.importorskip("propp")
    from propp import primes
    monkeypatch.setattr(propp.counting, "_DISPATCH", {"sieve": primes.primes_upto},
                        raising=False)
    before = propp.counting.class3_upto
    with pytest.raises(RuntimeError, match=r"propp.counting._DISPATCH\[primes_upto\]"):
        layers.Installation(propp, layers.Tracer())
    assert propp.counting.class3_upto is before


def test_gate_rejects_an_off_by_one_pik_answer():
    out = json.dumps({"schema_version": "1", "x": 1000, "k": 2, "exact": 146}).encode()
    assert gate.pik(0, out, 146) is None
    assert "expected 147" in gate.pik(0, out, 147)
    assert "exit code" in gate.pik(2, out, 146)
    assert gate.pik(0, b"", 146) is not None


def test_gate_rejects_a_truncated_csv():
    data = "".join(f"{q}\n" for q in oracle.class3_upto(10 ** 4)).encode()
    lines, want = data.count(b"\n"), gate.digest(data)
    assert gate.exact_bytes(0, data, lines, want) is None
    assert "lines" in gate.exact_bytes(0, data[: len(data) // 2], lines, want)
    corrupted = data.replace(b"7\n", b"8\n", 1)
    assert "checksum" in gate.exact_bytes(0, corrupted, lines, want)


def test_gate_checks_the_planted_witness():
    import random
    squares, planted = oracle.planted_squares(random.Random(5), 1000, 20000, 200)
    values = sorted(squares + [planted])
    holds, witness, idx, rank = oracle.first_witness(values)
    assert not holds and planted in witness

    def report(w, i):
        return json.dumps({"holds": False, "witness": list(w),
                           "witness_indices": list(i)}).encode()

    assert gate.verify_planted(1, report(witness, idx), values, planted) is None
    assert gate.verify_planted(0, report(witness, idx), values, planted) is not None
    a, b, c = idx
    shifted = (values[a], values[b], values[c + 1])
    assert gate.verify_planted(1, report(shifted, (a, b, c + 1)), values,
                               planted) is not None


def test_gate_lemma1_arithmetic():
    assert gate.lemma1([21, 7, 14], ["applicable+verified", 3]) is None
    assert gate.lemma1([21, 7, 14], ["applicable+verified", 7]) is not None
    assert gate.lemma1([21, 7, 14], ["not-applicable", None]) is not None
    assert gate.lemma1([5, 1, 2], ["not-applicable", None]) is None


def test_oracle_class3_counts_match_a_plain_sieve():
    for x in (1, 2, 3, 10, 97, 1000, 123457):
        counts = oracle.Class3Counts(x)
        for m in range(1, 40):
            v = x // m
            assert counts(v) == len(oracle.class3_upto(v)), (x, m)


def test_cheap_pins_agree_with_the_oracle():
    pins = workloads.load_pins()
    for x in workloads.PIK2_X[:2]:
        assert pins["pik"][f"2:{x}"] == oracle.count_products(x, 2)
    limit = workloads.COUNT_S_LIMITS[0]
    for exclude in (False, True):
        per_index = pins["count_s"][f"{limit}:{int(exclude)}"]["per_index"]
        for i, count in per_index.items():
            q = oracle.nth_class3(int(i))
            assert count == oracle.count_products(
                math.isqrt(limit // q ** 4), int(i), exclude=q if exclude else None)
    for key, (count, want) in pins["enumerate"].items():
        i, limit, ex = (int(v) for v in key.split(":"))
        values = oracle.s_layer(i, limit, bool(ex))
        assert (len(values), gate.digest("".join(f"{v}\n" for v in values).encode())) \
            == (count, want)


def test_child_refuses_a_package_outside_its_source_tree(tmp_path):
    empty_src = tmp_path / "src"
    empty_src.mkdir()
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), str(report),
                    str(empty_src), "0", "0", "probe"], env=env, check=True, timeout=60)
    assert "outside" in json.loads(report.read_text())["error"]


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
