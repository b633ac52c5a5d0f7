"""Every public function and class of lamadic is reached from a CLI command
or is listed in KEPT with its reason.

Reach is read from a name-level call graph over src/lamadic/*.py: a
top-level definition reaches every top-level definition whose name its
body mentions, as a name or as an attribute.  A class's body includes its
methods, and a name imported under another name stands for the original.
The roots are every definition in cli.py, the module-level
statements (they run on import), and the keys of KEPT.  The graph
over-approximates calls, so an unreached name has no caller at all.

The Gram matrix has one owner: no code outside HermitianForm reads an
attribute named gamma, so the form's methods are the only code that knows
Gamma's shape.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lamadic"

_BENCHMARK = "a trace target or workload call of bench/"
KEPT = {
    "matrix_commutator_check": _BENCHMARK,
    "group_commutator": _BENCHMARK,
    "series_evaluate": _BENCHMARK,
    "find_simple_prime": _BENCHMARK,
    "abelian_order": _BENCHMARK,
    "decompose_unit": _BENCHMARK,
    "exp": _BENCHMARK,
    "log1p": _BENCHMARK,
    "perm_embed": "ROADMAP item 4: the A_r image under the Weil form",
    "infinity_type_apply": "ROADMAP item 8: the Frobenius determinant lattice",
    "n_of": "ROADMAP item 8: n(j) against Frobenius valuations",
    "rational_factor": "the entry point of the sympy-oracle Zassenhaus tests",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _aliases(trees):
    """{asname: name} over the package's `from ... import name as asname`."""
    return {alias.asname: alias.name for tree in trees.values() for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}


def _mentioned(node, aliases):
    """The names a subtree mentions, as names or attributes."""
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
    return {aliases.get(name, name) for name in names}


def _graph():
    """(definitions, module_mentions, cli_definitions, exported): definitions
    maps each top-level function or class name to the names its body
    mentions; exported holds the names lamadic/__init__.py imports."""
    trees = _trees()
    aliases = _aliases(trees)
    defs, module_level, cli = {}, set(), set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in defs, f"{node.name} is defined twice"
                defs[node.name] = _mentioned(node, aliases)
                if name == "cli.py":
                    cli.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_level |= _mentioned(node, aliases)
    exported = {aliases.get(alias.name, alias.name)
                for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return defs, module_level, cli, exported


def _reach(defs, roots):
    seen, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(defs[name] & defs.keys())
    return seen


def test_every_public_name_is_reached_from_the_cli_or_kept():
    defs, module_level, cli, exported = _graph()
    reached = _reach(defs, cli | module_level | KEPT.keys())
    public = {name for name in defs if not name.startswith("_")} | exported
    assert not public - reached, sorted(public - reached)


def test_every_kept_name_exists_and_is_not_reached_from_the_cli():
    defs, module_level, cli, _ = _graph()
    from_cli = _reach(defs, cli | module_level)
    assert not KEPT.keys() - defs.keys(), sorted(KEPT.keys() - defs.keys())
    assert not KEPT.keys() & from_cli, sorted(KEPT.keys() & from_cli)


def test_only_hermitian_form_reads_gamma():
    readers = []
    for name, tree in _trees().items():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "HermitianForm":
                inside |= {id(n) for n in ast.walk(node)}
        readers += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "gamma"
                    and id(node) not in inside]
    assert not readers, readers
