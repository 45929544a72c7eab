import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import drtests
from drtests import DoublyRankedConfig, InvalidInputError
from tests.helpers import make_curves

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


def boundary_parameters():
    """(function name, parameter, "record" or "path") for each public function
    parameter annotated with a record type or a path.

    The package's annotations are strings (postponed evaluation), so a
    parameter is a record when its annotation names an exported dataclass
    and a path when it names os.PathLike.
    """
    records = {
        name for name in drtests.__all__ if dataclasses.is_dataclass(getattr(drtests, name))
    }
    found = []
    for name in drtests.__all__:
        function = getattr(drtests, name)
        if not inspect.isfunction(function):
            continue
        for param in inspect.signature(function).parameters.values():
            words = set(re.findall(r"\w+", str(param.annotation)))
            if "PathLike" in words:
                found.append((name, param.name, "path"))
            elif words & records:
                found.append((name, param.name, "record"))
    return found


BOUNDARY = boundary_parameters()
# The valid value of each record argument that a call passes beside the
# one refused; a function that takes a new record type adds it here
VALID_RECORDS = {
    "CurveSet": lambda: make_curves([[1.0], [2.0], [3.0], [4.0]]),
    "DoublyRankedConfig": DoublyRankedConfig,
    "CellResult": list,
}
# The value of each other argument that has no default
VALID_OTHERS = {"pve": 0.9}
NOT_RECORDS = [{}, None, np.zeros((2, 2))]
# Each record argument with each value it refuses: None is refused unless
# the annotation allows it, as it does where None selects the defaults
RECORD_CALLS = [
    pytest.param(name, refused, bad, id=f"{name}-{refused}-{type(bad).__name__}")
    for name, refused, kind in BOUNDARY
    if kind == "record"
    for bad in NOT_RECORDS
    if bad is not None
    or "None" not in str(inspect.signature(getattr(drtests, name)).parameters[refused])
]
PATH_ARGUMENTS = [(name, refused) for name, refused, kind in BOUNDARY if kind == "path"]
NOT_PATHS = [3, True, b"out.csv", None]


def arguments(name, refused, bad, tmp_path) -> dict:
    """Arguments of the public function name, with bad as its argument refused.

    Every other record or path argument gets a valid value, a path into
    tmp_path; any other argument keeps its default.
    """
    kwargs = {}
    for param in inspect.signature(getattr(drtests, name)).parameters.values():
        words = re.findall(r"\w+", str(param.annotation))
        if param.name == refused:
            kwargs[param.name] = bad
        elif "PathLike" in words:
            kwargs[param.name] = str(tmp_path / "out.csv")
        elif kinds := [w for w in words if w in VALID_RECORDS]:
            kwargs[param.name] = VALID_RECORDS[kinds[0]]()
        elif param.default is inspect.Parameter.empty:
            kwargs[param.name] = VALID_OTHERS[param.name]
    return kwargs


def assert_refused(name, refused, bad, tmp_path):
    """The call raises InvalidInputError naming refused, and opens no file."""

    def no_open(*args, **kwargs):
        raise AssertionError(f"{name} opened {args[0]!r}")

    kwargs = arguments(name, refused, bad, tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "open", no_open)
        with pytest.raises(InvalidInputError, match=f"^{refused} must be a "):
            getattr(drtests, name)(**kwargs)
    assert list(tmp_path.iterdir()) == []


class TestBoundarySweep:
    """Every public record or path argument is checked before any work."""

    def test_finds_every_record_and_path_argument(self):
        expected = {
            ("generate_dataset", "config", "record"),
            ("run_power", "grid", "record"),
            ("run_type1", "grid", "record"),
            ("rank_curves", "curves", "record"),
            ("fpca_smooth", "curves", "record"),
            ("write_curves_csv", "curves", "record"),
            ("write_curves_csv", "path", "path"),
            ("sufficient_summary", "ranks", "record"),
            ("average_rank_summary", "ranks", "record"),
            ("write_results", "results", "record"),
            ("write_results", "path", "path"),
            ("doubly_ranked_test", "curves", "record"),
            ("doubly_ranked_test", "config", "record"),
            ("read_curves_csv", "path", "path"),
            ("read_results", "path", "path"),
            ("load_grid", "path", "path"),
        }
        assert expected <= set(BOUNDARY)

    @pytest.mark.parametrize("name, refused, bad", RECORD_CALLS)
    def test_refuses_what_is_not_the_record(self, name, refused, bad, tmp_path):
        assert_refused(name, refused, bad, tmp_path)

    @pytest.mark.parametrize("name, refused", PATH_ARGUMENTS)
    @pytest.mark.parametrize("bad", NOT_PATHS, ids=["int", "bool", "bytes", "none"])
    def test_refuses_what_is_not_a_path(self, name, refused, bad, tmp_path):
        assert_refused(name, refused, bad, tmp_path)

    @pytest.mark.parametrize("name, refused", PATH_ARGUMENTS)
    def test_leaves_a_passed_descriptor_open(self, name, refused, tmp_path):
        # a regular file's descriptor, so that a read could not block
        fd = os.open(tmp_path / "held", os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(InvalidInputError, match=f"^{refused} must be a "):
                getattr(drtests, name)(**arguments(name, refused, fd, tmp_path))
            os.fstat(fd)
            assert os.path.getsize(tmp_path / "held") == 0
        finally:
            os.close(fd)
