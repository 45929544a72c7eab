import ast
import importlib
import pkgutil
import re
from pathlib import Path

import drtests

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def module_exports():
    """Each drtests module's __all__, for the modules that declare one."""
    out = {}
    for info in pkgutil.iter_modules(drtests.__path__):
        module = importlib.import_module(f"drtests.{info.name}")
        if hasattr(module, "__all__"):
            out[info.name] = list(module.__all__)
    return out


def perfbench_imports():
    """Names the benchmark imports from drtests, leaving out submodules."""
    submodules = {info.name for info in pkgutil.iter_modules(drtests.__path__)}
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "drtests":
                names.update(alias.name for alias in node.names)
    return names - submodules


def unused_imports(path):
    """Names a module imports and never reads, leaving out __future__ features."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            # "import a.b" binds a
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def finiteness_callers():
    """The package's modules that name isfinite, as np.isfinite or imported."""
    callers = set()
    for path in Path(drtests.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if getattr(node, "attr", None) == "isfinite" or getattr(node, "id", None) == "isfinite":
                callers.add(path.name)
    return callers


class TestPublicApi:
    def test_no_duplicates(self):
        assert len(drtests.__all__) == len(set(drtests.__all__))

    def test_every_name_resolves(self):
        for name in drtests.__all__:
            assert hasattr(drtests, name), name

    def test_union_of_module_exports(self):
        exports = module_exports()
        assert "errors" in exports and "cli" not in exports
        union = [name for names in exports.values() for name in names]
        assert sorted(drtests.__all__) == sorted(["__version__", *union])

    def test_keeps_what_perfbench_imports(self):
        imported = perfbench_imports()
        assert imported, "no drtests import found under perfbench/"
        assert imported <= set(drtests.__all__)

    def test_no_module_imports_a_name_it_never_uses(self):
        # the package __init__ imports its modules' names to re-export them
        modules = Path(drtests.__file__).parent.glob("*.py")
        unused = {
            path.name: names
            for path in modules
            if path.name != "__init__.py" and (names := unused_imports(path))
        }
        assert unused == {}

    def test_readme_names_every_export(self):
        # one README line per module: "- `drtests.<module>`: `name`, `name`, ..."
        readme = (ROOT / "README.md").read_text()
        lines = re.findall(r"^- `drtests\.(\w+)`: (.*)$", readme, re.MULTILINE)
        listed = {module: sorted(re.findall(r"`(\w+)`", names)) for module, names in lines}
        exports = {module: sorted(names) for module, names in module_exports().items()}
        assert listed == exports

    def test_only_the_shared_check_and_the_csv_reader_test_finiteness(self):
        # errors._frozen holds the package's one nonempty, finite rule; io
        # keeps its own call so that it can name the bad row and column
        assert finiteness_callers() == {"errors.py", "io.py"}
