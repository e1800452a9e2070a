"""Import-layering contract for the three-layer serving runtime.

The transport seam only works if upper layers actually go through it:
``repro.serving`` and ``repro.core`` must never import the RDMA substrate
modules (``repro.rdma.qp``, ``repro.rdma.memory_node``) directly — queue
pairs and raw region access are ``repro.transport``'s business.  Parsed
from source with ``ast`` so the check catches lazy/function-local imports
too, not just module top-levels.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent

#: Substrate modules upper layers must reach only through repro.transport.
FORBIDDEN = ("repro.rdma.qp", "repro.rdma.memory_node")

#: Packages bound by the contract.
CONSTRAINED = ("serving", "core", "frontdoor", "mutation")

#: The serving and mutation stages sit above the transport seam and must
#: not import the client/engine modules: each stage receives a
#: ``ClientContext`` (``repro.core.context``), which is what lets a test
#: build and drive a stage without a client.
MUTATION_FORBIDDEN = ("repro.core.client", "repro.core.engine")

#: The packages whose stages take a ``ClientContext``.
STAGE_PACKAGES = ("serving", "mutation")

#: The front door is a pure client of the serving layer: it may import
#: ``repro.core`` / ``repro.serving``, but the transport seam and the
#: whole RDMA substrate are off-limits — it reaches the clock only
#: through ``client.node.clock``, never by importing it.
FRONTDOOR_FORBIDDEN = ("repro.transport", "repro.rdma")


def iter_imports(path: pathlib.Path):
    """Yield (module_name, lineno) for every import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            # Relative imports (level > 0) resolve inside the package
            # itself and cannot name another top-level module.
            if node.level == 0:
                yield node.module, node.lineno


def test_upper_layers_never_import_the_rdma_substrate():
    violations = []
    for package in CONSTRAINED:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            for module, lineno in iter_imports(path):
                if any(module == banned or module.startswith(banned + ".")
                       for banned in FORBIDDEN):
                    violations.append(
                        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} "
                        f"imports {module}")
    assert not violations, (
        "substrate imports must go through repro.transport:\n  "
        + "\n  ".join(violations))


def test_transport_is_the_only_qp_consumer():
    """Outside the substrate itself, only ``repro.transport`` (and the
    persistence sidecar, which serializes raw regions) may name the queue
    pair / memory-node modules."""
    allowed_parents = {"transport", "rdma"}
    allowed_files = {SRC_ROOT / "persist.py"}
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        parent = path.relative_to(SRC_ROOT).parts[0]
        if parent in allowed_parents or path in allowed_files:
            continue
        for module, lineno in iter_imports(path):
            if any(module == banned or module.startswith(banned + ".")
                   for banned in FORBIDDEN):
                offenders.append(f"{path.name}:{lineno} imports {module}")
    assert not offenders, "\n".join(offenders)


def test_frontdoor_stays_above_the_transport_seam():
    """``repro.frontdoor`` may import ``repro.serving``/``repro.core``
    but must never name ``repro.transport`` or anything under
    ``repro.rdma`` — it is a client of the engine, not of the fabric."""
    violations = []
    for path in sorted((SRC_ROOT / "frontdoor").rglob("*.py")):
        for module, lineno in iter_imports(path):
            if any(module == banned or module.startswith(banned + ".")
                   for banned in FRONTDOOR_FORBIDDEN):
                violations.append(
                    f"{path.relative_to(SRC_ROOT.parent)}:{lineno} "
                    f"imports {module}")
    assert not violations, (
        "the front door must stay above the transport seam:\n  "
        + "\n  ".join(violations))


def test_mutation_never_imports_its_host():
    """``repro.serving`` and ``repro.mutation`` speak transport verbs
    through the ``ClientContext`` they are built from; importing the
    concrete client/engine would create a cycle and couple stage logic
    to the façade it serves."""
    violations = []
    for package in STAGE_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            for module, lineno in iter_imports(path):
                if any(module == banned or module.startswith(banned + ".")
                       for banned in MUTATION_FORBIDDEN):
                    violations.append(
                        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} "
                        f"imports {module}")
    assert not violations, (
        "the stages must not import the client:\n  "
        + "\n  ".join(violations))


def test_no_stage_takes_a_host():
    """No function in ``repro.serving`` or ``repro.mutation`` has a
    parameter named ``host``: a stage is handed its client's context,
    never the client."""
    violations = []
    for package in STAGE_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                arguments = node.args
                names = [arg.arg for arg in (
                    *arguments.posonlyargs, *arguments.args,
                    *arguments.kwonlyargs, arguments.vararg,
                    arguments.kwarg) if arg is not None]
                if "host" in names:
                    violations.append(
                        f"{path.relative_to(SRC_ROOT.parent)}:"
                        f"{node.lineno} takes host")
    assert not violations, "\n".join(violations)


def test_one_traversal_engine_and_one_worker_pool():
    """``repro.hnsw.search`` is the only traversal engine and every
    search runs in the serving process: no module brings back a
    compiled-graph generation or a thread pool — the Python beam loops
    cannot run in parallel under the interpreter lock, and
    ``core.build_pool``, the one pool that forks (construction and
    rebuild workers), is safe only from a thread-free parent."""
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                named = [f"{node.module}.{alias.name}"
                         for alias in node.names] + [node.module]
            elif isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                named = [node.attr]
            else:
                continue
            for name in named:
                if (name == "repro.hnsw.csr"
                        or name.endswith("ThreadPoolExecutor")):
                    violations.append(
                        f"{path.relative_to(SRC_ROOT.parent)}:"
                        f"{node.lineno} names {name}")
    assert not violations, "\n".join(violations)


def test_contract_scope_is_nonempty():
    """Guard the walker itself: the contract must actually scan files."""
    scanned = [path for package in CONSTRAINED
               for path in (SRC_ROOT / package).rglob("*.py")]
    assert len(scanned) > 10


#: What runs the library: every module under ``src/repro/`` must be
#: reached from one of these.
RUNNERS = ("benchmarks", "examples", "src/repro/cli.py")


def _module_files() -> dict[str, pathlib.Path]:
    """Dotted name -> source file, for every module and package."""
    files = {}
    for path in SRC_ROOT.rglob("*.py"):
        parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _defining_module(files, module: str, name: str) -> str:
    """The module that defines ``module.name``: a submodule of that
    name, else whatever the package's ``__init__`` re-exports it from,
    else ``module`` itself."""
    if f"{module}.{name}" in files:
        return f"{module}.{name}"
    if files[module].name == "__init__.py":
        for node in ast.parse(files[module].read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module in files:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _defining_module(files, node.module,
                                                alias.name)
    return module


def _named_modules(files, path: pathlib.Path):
    """The ``repro`` modules ``path`` names in its imports, each
    ``from package import name`` resolved to the module defining it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in files:
                    yield alias.name
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module in files):
            for alias in node.names:
                yield _defining_module(files, node.module, alias.name)


def test_every_module_is_run_by_something():
    """ROADMAP item 11(c): keep only what a paper figure, an example,
    the measurement spine, a perf script or the CLI runs.  Every module
    under ``src/repro/`` is reached by name, transitively, from
    ``benchmarks/`` (the spine, the figure harness and the perf
    scripts), ``examples/`` or ``cli.py``.  A name imported from
    a package resolves through the package's ``__init__`` re-exports to
    the module that defines it, so a re-export alone reaches nothing;
    ``__init__`` files themselves are not held to the rule.  Tests do
    not count: a module only its own tests import should go with them."""
    files = _module_files()
    repo = SRC_ROOT.parent.parent
    todo = [path for runner in RUNNERS
            for path in ([repo / runner] if runner.endswith(".py")
                         else sorted((repo / runner).rglob("*.py")))]
    reached = {module for module, path in files.items() if path in todo}
    while todo:
        for module in _named_modules(files, todo.pop()):
            if module not in reached:
                reached.add(module)
                # A package's own imports are its re-exports: not run.
                if files[module].name != "__init__.py":
                    todo.append(files[module])
    orphans = sorted(str(path.relative_to(SRC_ROOT.parent))
                     for module, path in files.items()
                     if module not in reached
                     and path.name != "__init__.py")
    assert not orphans, "run by nothing outside tests:\n  " + "\n  ".join(
        orphans)
