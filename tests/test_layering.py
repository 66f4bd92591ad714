"""The package imports in one chain: a module may import only the modules
before it, so no two layers depend on each other."""
import ast
import os

import propp

CHAIN = ["errors", "primes", "seqfile", "constants", "counting", "construct",
         "verify", "cli"]
PKG = os.path.join(os.path.dirname(__file__), os.pardir, "src", "propp")


def _imported(fname):
    """The package modules that `fname` imports."""
    tree = ast.parse(open(os.path.join(PKG, fname), encoding="utf-8").read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_modules_import_only_earlier_modules():
    modules = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))
    assert sorted(CHAIN + ["__init__"]) == modules
    for at, mod in enumerate(CHAIN):
        later = _imported(mod + ".py") - set(CHAIN[:at])
        assert not later, f"{mod} imports {sorted(later)}, which come after it"


def _functions_without_a_caller(public):
    """The package's top-level functions, private or public as asked, that
    no name or attribute in the package reads outside their own body."""
    trees = [ast.parse(open(os.path.join(PKG, f), encoding="utf-8").read())
             for f in sorted(os.listdir(PKG)) if f.endswith(".py")]
    defined, used = set(), set()
    for tree in trees:
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and own.startswith("_") != public:
                defined.add(own)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return defined, sorted(defined - used)


def test_every_private_function_has_a_caller():
    private, unused = _functions_without_a_caller(public=False)
    assert len(private) >= 30 and not unused, f"no caller in the package: {unused}"


def test_every_public_function_outside_the_api_has_a_caller():
    # a public function the package neither exports nor calls serves only
    # the tests: it belongs in them, or in the exported API
    public, unused = _functions_without_a_caller(public=True)
    unused = sorted(set(unused) - set(propp.__all__))
    assert len(public) >= 60 and not unused, f"neither exported nor called: {unused}"
