"""Checks on the package source itself."""

import ast
import warnings
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import cascadefin as cf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cascadefin"
MODULES = sorted(SRC.glob("*.py"))


def _tree(module):
    return ast.parse(module.read_text(), filename=str(module))


def _imported(tree) -> dict:
    """The names a module's top-level imports bind, each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree) -> set:
    """The names a module reads, bare or as an attribute; a definition is no read."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | \
        {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_assert_statements(module):
    # python -O strips assert, so every check in the package must raise itself
    lines = [node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.name}: assert on lines {lines}"


def test_no_global_statement():
    # state a call leaves in a module outlives the call and is shared by every
    # caller in the process; a lattice cell is a closure its workers inherit
    lines = [f"{module.name}:{node.lineno}" for module in MODULES
             for node in ast.walk(_tree(module)) if isinstance(node, ast.Global)]
    assert lines == [], f"global statement at {lines}"


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    # a re-export listed in __all__ counts as a use
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_all(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{module.name}: imported but never used: {unused}"


# numpy's routines that hand their work to BLAS
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_blas_backed_routine(module):
    # a BLAS routine sums in its own order, which can flip a fate at the
    # barrier; with none, the one OpenBLAS thread cascade.py pins costs nothing
    uses = sorted({node.lineno for node in ast.walk(_tree(module))
                   if isinstance(getattr(node, "op", None), ast.MatMult)
                   or getattr(node, "id", getattr(node, "attr", None)) in BLAS_NAMES
                   or isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split("."))})
    assert uses == [], f"{module.name}: a BLAS-backed routine on lines {uses}"


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_process_pool_import(module):
    # the lattice forks its workers itself: concurrent.futures' process pool
    # and multiprocessing cost ~2 MB of RSS, and their start method is not
    # fork everywhere
    pools = ("concurrent", "multiprocessing")
    lines = sorted({node.lineno for node in ast.walk(_tree(module))
                    if isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] in pools for a in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] in pools})
    assert lines == [], f"{module.name}: imports a process-pool module on lines {lines}"


# the functions that may open a file for writing: the one CSV writer, the one
# JSON writer, and a lattice worker, whose file is the pipe its results go back by
WRITERS = {("ingestion.py", "write_csv"), ("cli.py", "_write_json"), ("evaluation.py", "_work")}


def _writes(call) -> bool:
    """Whether a call of open can write; a mode that is no literal counts."""
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    return not isinstance(modes[0], ast.Constant) or bool(set(modes[0].value) & set("wax+"))


def test_files_are_written_in_two_places():
    # one CSV writer and one JSON writer state every output's byte rules
    sites = []
    for module in MODULES:
        tree = _tree(module)
        allowed = [range(node.lineno, node.end_lineno + 1) for node in tree.body
                   if isinstance(node, ast.FunctionDef) and (module.name, node.name) in WRITERS]
        sites += [f"{module.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open" and _writes(node)
                  and not any(node.lineno in lines for lines in allowed)]
    assert sites == [], f"a file is opened for writing at {sites}"


def test_init_exports_every_name_it_imports():
    tree = _tree(SRC / "__init__.py")
    exported = _all(tree)
    assert len(exported) == len(set(exported))
    missing = sorted(set(_imported(tree)) - set(exported))
    assert missing == [], f"__init__.py imports but leaves out of __all__: {missing}"


def test_every_public_name_is_used_outside_tests():
    # a name only tests call is a second statement of a rule, not a public one
    users = [m for m in MODULES if m.name != "__init__.py"] + \
        sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set().union(*(_read(_tree(f)) for f in users))
    unused = sorted(set(_all(_tree(SRC / "__init__.py"))) - read)
    assert unused == [], f"exported but used only by tests: {unused}"


def _project() -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # setuptools calls [tool.setuptools] beta
        return read_configuration(ROOT / "pyproject.toml")["project"]


def test_the_version_lives_in_the_package_only():
    # pyproject.toml takes its version from cascadefin.__version__, so a bump
    # there is the only one a release needs
    assert _project()["version"] == cf.__version__


def _sys_modules(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "modules" \
        and isinstance(node.value, ast.Name) and node.value.id == "sys"


# the dict methods that change sys.modules
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def test_only_the_entry_writes_sys_modules():
    # a library import, or a host's in-process cli.main, must not change how
    # the host process hashes: only cli.console blocks OpenSSL
    writes = []
    for module in MODULES:
        tree = _tree(module)
        entry = [range(node.lineno, node.end_lineno + 1) for node in tree.body
                 if module.name == "cli.py" and isinstance(node, ast.FunctionDef)
                 and node.name == "console"]
        for node in ast.walk(tree):
            write = (_sys_modules(node) and not isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Subscript) and _sys_modules(node.value)
                     and not isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute) and node.attr in MUTATORS
                     and _sys_modules(node.value))
            if write and not any(node.lineno in lines for lines in entry):
                writes.append(f"{module.name}:{node.lineno}")
    assert writes == [], f"sys.modules written at {writes}"


def test_the_script_and_python_m_share_one_entry():
    # the cascadefin script and `python -m cascadefin.cli` both block OpenSSL
    module, entry = _project()["scripts"]["cascadefin"].split(":")
    assert module == "cascadefin.cli"
    guards = [node for node in _tree(SRC / "cli.py").body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(guards) == 1
    called = {node.func.id for node in ast.walk(guards[0])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {entry}


# os's readers of the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
# the one read: numpy's BLAS thread count, which changes no byte
BLAS_PIN = "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"


def test_no_input_comes_from_the_environment():
    # every input is a flag, and the manifest records the flags: a variable
    # standing in for one would make one command line write two outputs
    reads = []
    for module in MODULES:
        tree = _tree(module)
        pin = {id(node.func.value) for node in ast.walk(tree) if module.name == "cascade.py"
               and isinstance(node, ast.Call) and ast.unparse(node) == BLAS_PIN}
        reads += [f"{module.name}:{node.lineno}" for node in ast.walk(tree)
                  if (getattr(node, "attr", None) in ENVIRONMENT
                      or isinstance(node, ast.Name) and node.id in ENVIRONMENT
                      or isinstance(node, ast.alias) and node.name in ENVIRONMENT)
                  and id(node) not in pin]
    assert reads == [], f"the environment is read at {reads}"


def _price_index(node) -> bool:
    """Whether node names price_index, as a name, an attribute or a slice of one."""
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(map(_price_index, node.elts))
    return getattr(node, "id", getattr(node, "attr", None)) == "price_index"


def test_prices_change_only_in_scale_prices():
    # screening keeps each bound below its bank's total only because
    # _scale_prices scales the bounds with every price change; prices set
    # anywhere else but RoundState's construction let it skip a bank that can fail
    allowed = {"write": "_scale_prices", "RoundState": "run_cascade"}
    sites = []
    for module in MODULES:
        tree = _tree(module)
        scope = {line: node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                 for line in range(node.lineno, node.end_lineno + 1)}
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign)
                       or isinstance(node, ast.AnnAssign) and node.value else [])
            if any(map(_price_index, targets)) or isinstance(node, ast.keyword) \
                    and node.arg == "out" and _price_index(node.value):
                kind = "write"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RoundState" \
                    and any(k.arg == "price_index" for k in node.keywords):
                kind = "RoundState"
            else:
                continue
            if module.name != "cascade.py" or scope.get(node.lineno) != allowed[kind]:
                sites.append(f"{module.name}:{node.lineno}")
    assert sites == [], f"price_index is written at {sites}"
