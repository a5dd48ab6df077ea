"""Source-level guards on the package layout."""

import ast
from pathlib import Path

import almostconv

PACKAGE = Path(almostconv.__file__).parent

# (module, function) where telling the two signal kinds apart by type is
# the point: the CSV header.  Routes that differ by group ask the signal's
# quadrature rule (``Signal.trapezoid``) instead.
ALLOWED_TYPE_CHECKS = {("serialize", "signal_to_csv")}
SIGNAL_TYPES = {"DiscreteSignal", "ContinuousSignal"}
# (module, function, imported module) of the relative imports made on
# first use: the module has no imports of the package, so no cycle hides
# behind them, and ``import almostconv.cli`` does not pay for it
LAZY_IMPORTS = {("serialize", "_format", "_shortest")}


def _walk(node, scope):
    """(scope, node) for every node, scope the innermost function name."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield scope, child
        yield from _walk(child, inner)


def test_no_local_relative_imports_and_few_signal_type_checks():
    local_imports, type_checks = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope, node in _walk(tree, None):
            if isinstance(node, ast.ImportFrom) and node.level and scope:
                local_imports.append((path.stem, scope, node.module))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                    == "isinstance" and len(node.args) == 2:
                names = {n.id for n in ast.walk(node.args[1])
                         if isinstance(n, ast.Name)}
                if names & SIGNAL_TYPES:
                    type_checks.append((path.stem, scope))
    # a relative import inside a function hides an import cycle
    assert sorted(local_imports) == sorted(LAZY_IMPORTS)
    for _, _, module in LAZY_IMPORTS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level]
    assert set(type_checks) <= ALLOWED_TYPE_CHECKS
    assert len(type_checks) <= len(ALLOWED_TYPE_CHECKS)


def _names_read(tree):
    """Names a tree reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _names_read(ast.parse(sub.value, mode="eval"))
    return used


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_read(tree)
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_unused_import_guard_sees_string_annotations():
    tree = ast.parse("from typing import Dict, List, Optional\nimport os.path\n"
                     "def f(x: 'Optional[int]') -> List['Dict']: pass\n")
    assert _unused_imports(tree) == [("os", 2)]
    tree = ast.parse("from typing import List, Optional\ndef f(x: 'int'): pass\n")
    assert _unused_imports(tree) == [("List", 1), ("Optional", 1)]


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's public names
        tree = ast.parse(path.read_text())
        unused += [(path.stem, *item) for item in _unused_imports(tree)]
    assert unused == []


def test_no_full_matrices_factorization():
    # the annihilator needs only the r leading right singular vectors; an
    # N x N unitary factor costs O(N^2) memory per call at no gain
    hits = [(path.stem, line) for path in sorted(PACKAGE.glob("*.py"))
            for line, text in enumerate(path.read_text().splitlines(), 1)
            if "full_matrices=True" in text]
    assert hits == []


# the library API that the command line does not use, with what each is
# for: these and ``cli.main`` are the roots from which every module-level
# definition must be reached
PUBLIC_API = {
    ("cesaro", "window_average"): "the mean over one window, the unit the sweep extremises",
    ("cesaro", "shift_extremes"): "window-mean extremes over a caller's own shift grid",
    ("cyclic", "annihilator"): "ann(E) as an array, which the suite only certifies",
    ("cyclic", "ideal_for"): "the ideal whose transforms vanish on a set: I(C)",
    ("cyclic", "zero_set"): "Z(f), the complement of spectrum_of",
    ("cyclic", "delta"): "the point masses, the standard basis of functions on Z_N",
    ("signals", "known_limit"): "the exact almost-convergence limit a spec declares",
    ("signals", "evaluate"): "a spec's closed-form value at one point",
    ("signals", "subtract"): "f - g on the common range: the differences f - f_s and "
                             "f - k*f that the invariance identities take",
    ("signals", "scaled"): "c * f, signal arithmetic beside subtract",
    ("serialize", "generator_to_dict"): "spec -> JSON dict, the inverse of load_generator",
    ("tauberian", "primitive_check"): "the boundary value of a transform from its primitive",
    ("tauberian", "residue_oac_estimate"): "the boundary limit against the window-mean limit",
    ("spectral", "spectrum_support_check"): "a spectrum estimate against a spec's frequencies",
}


def _definitions_and_references():
    """({(module, name)}, {(module, name): {(module, name) it may reach}},
    roots): every module-level function and class, what each one's body
    names, and ``cli.main`` with what module-level code names.  The names
    ``__init__`` exports are no roots."""
    defined, edges, roots = set(), {}, {("cli", "main")}
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        local = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        imported, modules = {}, {}
        for node in ast.walk(tree):  # module level, and the lazy imports
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        modules[alias.asname or alias.name] = alias.name

        def targets(subtree):
            found = set()
            for node in ast.walk(subtree):
                # a name read: a field or local bound under a definition's
                # name does not reach it
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in local:
                        found.add((module, node.id))
                    elif node.id in imported:
                        found.add(imported[node.id])
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    found.add((modules[node.value.id], node.attr))
            return found

        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
                edges[(module, node.name)] = targets(node)
            else:
                roots |= targets(node)
    return defined, edges, roots


def _reached(edges, roots):
    reached, todo = set(), list(roots)
    while todo:
        item = todo.pop()
        if item not in reached:
            reached.add(item)
            todo.extend(edges.get(item, ()))
    return reached


def test_every_definition_is_reached():
    defined, edges, roots = _definitions_and_references()
    assert set(PUBLIC_API) <= defined
    assert sorted(defined - _reached(edges, roots | set(PUBLIC_API))) == []
    # an entry that the command line starts to use leaves the list
    assert sorted(set(PUBLIC_API) & _reached(edges, roots)) == []
