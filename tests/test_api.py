"""No API that only tests use: every top-level function, class and constant of
src/adaptod, public or private, is used in src/adaptod or bench/ outside its own
definition, and so is every method and property of its classes; every error
class but the base is raised in src/adaptod, no module of src/adaptod uses a
private name of another, only cli, nn and data touch files, and only errors
names the number types of the numbers module; and the package stays within
its line budget.
Uses are read from the AST, so a docstring or a comment that names a
function does not keep it alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "adaptod"


def defined_names(stmt):
    """The names, but dunders, that one top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {name for name in names if not name.startswith("__")}


def package_module(node, in_package):
    """The package module that `from <module> import ...` reads from: "" for
    the package itself, None for anything outside it."""
    if node.level:
        return (node.module or "") if in_package else None
    if node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def uses(path, tree, modules):
    """(module, name) of every package name that one file loads: a bare name
    of its own module or one imported from a package module, or an attribute
    of a package module. A statement's loads of the names it defines are not
    uses."""
    in_package = path.parent.name == PACKAGE
    own = path.stem if in_package else None
    aliases, imported = {}, {}  # local name -> module, local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = package_module(node, in_package)
            for alias in node.names if source is not None else ():
                local = alias.asname or alias.name
                if source == "" and alias.name in modules:
                    aliases[local] = alias.name
                elif source in modules:
                    imported[local] = (source, alias.name)
    found = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = imported.get(node.id, (own, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                ref = (aliases[node.value.id], node.attr)
            else:
                continue
            if not (ref[0] == own and ref[1] in defined_names(stmt)):
                found.add(ref)
    return found


def source_trees():
    """The AST of every file of src/adaptod and bench/, by path."""
    files = sorted([*(ROOT / "src" / PACKAGE).glob("*.py"), *(ROOT / "bench").glob("*.py")])
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def unused_names():
    """(module, name) of each top-level name of the package that nothing in
    src/adaptod or bench/ uses outside its own definition."""
    trees = source_trees()
    modules = {path.stem for path in trees if path.parent.name == PACKAGE}
    used = set().union(*(uses(path, tree, modules) for path, tree in trees.items()))
    defined = {(path.stem, name) for path, tree in trees.items() if path.parent.name == PACKAGE
               for stmt in tree.body for name in defined_names(stmt)}
    return sorted(defined - used)


def unread_members():
    """(module, class, name) of each method or property, but dunders, defined in
    a class body of the package that no attribute read in src/adaptod or bench/
    names outside its own body. A read is matched by name, whatever object it
    reads from, so a member whose name is read off another object passes."""
    trees = source_trees()
    reads = {}  # attribute name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for path, tree in trees.items():
        if path.parent.name != PACKAGE:
            continue
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("__"):
                    own = set(map(id, ast.walk(fn)))
                    if all(id(node) in own for node in reads.get(fn.name, ())):
                        unread.append((path.stem, cls.name, fn.name))
    return sorted(unread)


def test_every_public_name_is_used_outside_the_tests():
    assert [(module, name) for module, name in unused_names() if not name.startswith("_")] == []


def test_every_private_name_has_a_caller_outside_the_tests():
    """A helper that a refactor leaves without callers is dead code."""
    assert [(module, name) for module, name in unused_names() if name.startswith("_")] == []


def test_every_method_and_property_is_read_outside_the_tests():
    """A method that only tests call is API that only tests use, and one that
    only its own body calls is dead code."""
    assert unread_members() == []


def test_no_module_uses_a_private_name_of_another():
    """A private name is its own module's business: a helper that two modules
    share is public, so a change to it is seen as a change to an interface."""
    files = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    modules = {path.stem for path in files}
    found = [(path.stem, module, name) for path in files
             for module, name in uses(path, ast.parse(path.read_text(), str(path)), modules)
             if module != path.stem and name.startswith("_")]
    assert sorted(found) == []


def test_every_error_class_is_raised_in_the_package():
    """An error class that no raise statement names is an exit path no input takes."""
    files = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    modules = {path.stem for path in files}
    raised = set()
    for path in files:  # the loads of each file's imports and raise statements alone
        tree = ast.parse(path.read_text(), str(path))
        nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.ImportFrom, ast.Raise))]
        raised |= uses(path, ast.Module(body=nodes, type_ignores=[]), modules)
    classes = [n for n in ast.parse((ROOT / "src" / PACKAGE / "errors.py").read_text()).body
               if isinstance(n, ast.ClassDef)]
    bases = {base.id for n in classes for base in n.bases if isinstance(base, ast.Name)}
    errors = {("errors", n.name) for n in classes if n.name not in bases}
    assert sorted(errors - raised) == []


FILE_MODULES = {"cli", "nn", "data"}  # the run directory, checkpoints, sample sets
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_cli_nn_and_data_touch_files():
    """The numeric modules take and return values: none opens a file or
    imports json, so every file a run writes is written where it is named."""
    found = []
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        if path.stem in FILE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_CALLS:
                    found.append((path.stem, name))
            elif isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append((path.stem, "json"))
    assert found == []


def test_only_errors_names_the_number_types():
    """errors.check_int and errors.check_real are the one check of a setting
    that must be a number: no other module imports numbers or names its
    Integral or Real, so no hand-written type check grows back beside them."""
    found = []
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name == "numbers"]
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append((path.stem, "numbers"))
            elif name in ("Integral", "Real"):
                found.append((path.stem, name))
    assert found == []


SRC_LINE_BUDGET = 1668  # wc -l src/adaptod/*.py; a change that must grow it raises this and says why


def test_source_stays_within_its_line_budget():
    """The package shrinks or holds: its summed line count, as wc -l counts
    (newlines), is at most SRC_LINE_BUDGET."""
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}
    assert sum(lines.values()) <= SRC_LINE_BUDGET, lines
