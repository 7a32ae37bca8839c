import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    """Generated files listed in .gitignore must not be tracked as well."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert out == ""


PACKAGE = ROOT / "src" / "pathgraph"
TEST_ONLY = {
    "find_induced_colored", "oracle_strong_coloring", "is_strong_coloring",
    "attached", "dominates", "antipodal", "induced_subgraph",
    "INDUCED_SEARCH_MAX_HOST", "STRONG_COLORING_MAX_CLASSES", "full_antipodal_triple",
    "reports_by_eager_scan", "index_by_edge_moves", "mcs_by_buckets",
    "parts_by_intersection", "tree_by_reports", "tree_path_by_search",
    "intersection_graph_by_pairs", "path_graph_samples", "chordal_samples",
    "gen_path_graph_by_search", "gen_chordal_by_pairs", "host_paths_by_steps",
}


def _read(module):
    """Names a package module binds at its top level, names it imports
    anywhere, and the package modules it imports from."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defined, imported, modules = set(), set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name for a in node.names} | {a.asname for a in node.names if a.asname}
        if isinstance(node, ast.ImportFrom):
            base = "pathgraph" if node.level else ""
            full = ".".join(p for p in (base, node.module) if p)
            if full == "pathgraph":
                modules |= {a.name for a in node.names}
            elif full.startswith("pathgraph."):
                modules.add(full.removeprefix("pathgraph."))
        elif isinstance(node, ast.Import):
            modules |= {a.name.removeprefix("pathgraph.") for a in node.names
                        if a.name.startswith("pathgraph.")}
    return defined, imported, modules


def test_the_package_holds_no_test_only_cross_check():
    """The brute-force cross-checks live in tests/_brute.py; the package
    neither defines nor imports them."""
    for path in sorted(PACKAGE.glob("*.py")):
        defined, imported, _ = _read(path.stem)
        assert not (defined | imported) & TEST_ONLY, path.name


def test_the_oracle_imports_nothing_it_checks():
    assert _read("oracle")[2] <= {"chordal", "errors", "graphs"}


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module imports is read somewhere in it; the package's
    __init__.py imports to re-export and is exempt."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    unread = {}
    for path in paths + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if bound - read:
            unread[path.name] = sorted(bound - read)
    assert unread == {}


def _names(node):
    """Every name node mentions: names read or bound, attributes and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name for a in n.names)


def _callers(tree, name):
    """The enclosing function (None at module level) of every call to name."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == name:
                    found.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            visit(child, inner)

    visit(tree, None)
    return found


def test_the_clique_index_owns_its_one_tour():
    """The clique forest's preorder lives on the index: only chordal.py names
    _Tour, and builds it only in CliqueIndex.tour; the only index built is
    the search's, in _index_or_hole."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert [m for m, tree in sorted(trees.items()) if "_Tour" in set(_names(tree))] == ["chordal"]
    assert _callers(trees["chordal"], "_Tour") == ["tour"]
    built = {m: _callers(tree, "CliqueIndex") for m, tree in trees.items()}
    assert {m: where for m, where in built.items() if where} == {"chordal": ["_index_or_hole"]}
