"""The package imports in one chain: a module may import only the modules
before it, so no two layers depend on each other."""
import ast
import os

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


def test_every_private_function_has_a_caller():
    trees = [ast.parse(open(os.path.join(PKG, f), encoding="utf-8").read())
             for f in sorted(os.listdir(PKG)) if f.endswith(".py")]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(private - used)
    assert len(private) >= 30 and not unused, f"no caller in the package: {unused}"
