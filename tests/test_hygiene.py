"""Every name a module imports is read somewhere in that module, and every
function, class, method and field defined under src/ is read by a module
there.

No linter is configured for this repository, so these scans stand in for
one.  The first parses each module under src/ and tests/ with the
standard library's ast and lists the names an import binds that no
expression in the module reads; a name listed in the module's __all__
counts as read, and `from __future__` imports are skipped.  The second
lists the module-level functions and classes under src/, and their
methods and fields, that no module under src/ reads, and checks them
against a short list of names kept on purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of a module that nothing in it reads."""
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "js = None\n"
        "print(os.path.sep, gcd(4, 6))\n"
    )
    assert unused_imports(source) == ["js", "lcm"]


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = {}
    for path in MODULES:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused, f"imported but never read: {unused}"


# ---------------------------------------------------------------------------
# module-level functions and classes, and their methods and fields, that no
# module under src/ reads

PACKAGE = ROOT / "src" / "gwtrees"

# Names that stay although no module under src/ reads them, each with its
# reason.  A name leaves this list when it is deleted or gains a reader.
KEPT_UNREAD = {
    "exact.forest_leaf_pmf": "the paper's forest formula, one entry of progeny_pmf on the leaf walk; an oracle for tests",
    "partitions.partitions_of": "enumeration oracle for tests",
    "samplers.sample_conditioned_rejection": "rejection oracle for the conditioned sampler",
    "trees.root_partition": "oracle for the root-split law",
    "trees.leaf_augment": "oracle for the leaf-augmented family",
    "trees.depths": "oracle for the depth of a marked vertex",
    "offspring.from_probs": "public constructor of a finite law",
    "cli._Parser.error": "argparse hook, called by ArgumentParser on a usage error",
    "samplers.SamplerTables.stats": "cache sizes for observability, read by tests (ROADMAP item 7)",
    "offspring.InvalidDistribution.code": "public error code of an invalid law, which tests read",
    "samplers._BlockLaw.theta": "the tilt that sets the block proposal's acceptance rate, which a test checks",
    # bound by benchmarks/ until its refresh (ROADMAP item 1); deleted after
    # it.  The two oracles read streams.draw_weights, which goes with them,
    # and so does the one float stub that stands for both; tau stays, read
    # by marked_vertex_series in both modes
    "samplers.ExactTables.draw_root_degree": "bound by the benchmark",
    "samplers.ExactTables.draw_split_sizes": "bound by the benchmark",
    "samplers.FloatTables.draw_root_degree": "bound by the benchmark; the float stub of both oracles, which raises ValueError",
    "exact.leaf_pmf_fixed_point": "bound by the benchmark",
    "exact.marked_count_pmf_float": "bound by the benchmark; the float table of one law and set, which tests certify",
    "partitions.partitions_into": "bound by the benchmark",
    "partitions.distinct_arrangements": "bound by the benchmark",
    "streams.draw_cdf": "bound by the benchmark",
    "streams.RandomStream.randbelow": "bound by the benchmark",
    "scaling.root_limit_statistic": "bound by the benchmark",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _in_package(stmt: ast.ImportFrom) -> bool:
    """An import from the package itself: `from .x import y`, `from . import
    x` or the same with `gwtrees` spelt out.  Inside a function, too, the
    scan resolves its names module-wide."""
    return stmt.level == 1 or stmt.level == 0 and (stmt.module or "").partition(".")[0] == "gwtrees"


def _local_names(node: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own scope."""
    if isinstance(node, _COMPREHENSIONS):
        return {n.id for gen in node.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    declared: set[str] = set()
    todo = list(node.body) if isinstance(node.body, list) else [node.body]
    while todo:
        sub = todo.pop()
        if isinstance(sub, (*_FUNCTIONS, ast.ClassDef)):
            names.add(sub.name)  # its body is a scope of its own
        elif isinstance(sub, (ast.Lambda, *_COMPREHENSIONS)):
            pass
        else:
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Import) or isinstance(sub, ast.ImportFrom) and not _in_package(sub):
                names.update((a.asname or a.name).partition(".")[0] for a in sub.names)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                names.add(sub.name)
            elif isinstance(sub, (ast.Global, ast.Nonlocal)):
                declared.update(sub.names)
            todo.extend(ast.iter_child_nodes(sub))
    return names - declared


class _Reads(ast.NodeVisitor):
    """The reads of one module: qualified names it resolves through its own
    definitions, its imports and `module.attr` or `Class.attr`, plus the
    attribute names it reads on other objects, which may be any class's
    methods.  A name that a function, lambda or comprehension binds hides
    the module-level name inside it."""

    def __init__(self, module: str, tree: ast.Module, classes: set[str]):
        self.scopes: list[set[str]] = []
        self.qualified: set[str] = set()
        self.attrs: set[str] = set()
        self.classes = classes
        self.binds: dict[str, str] = {}  # module-level name -> qualified name
        self.modules: dict[str, str] = {}  # module-level name -> module it binds
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and _in_package(stmt):
                source = stmt.module.rpartition(".")[2] if stmt.module not in (None, "gwtrees") else None
                for a in stmt.names:
                    if source is None:
                        self.modules[a.asname or a.name] = a.name
                    else:
                        self.binds[a.asname or a.name] = f"{source}.{a.name}"
        for stmt in tree.body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                self.binds[stmt.name] = f"{module}.{stmt.name}"

    def _module_level(self, node: ast.AST) -> str | None:
        """The name of a Name node that no enclosing scope hides, else None."""
        if isinstance(node, ast.Name) and not any(node.id in scope for scope in self.scopes):
            return node.id
        return None

    def _in_scope(self, node: ast.AST, parts: list) -> None:
        self.scopes.append(_local_names(node))
        for part in parts:
            self.visit(part)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        # decorators, defaults and annotations belong to the enclosing scope
        for part in (*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults), node.returns):
            if part is not None:
                self.visit(part)
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
            if a is not None and a.annotation is not None:
                self.visit(a.annotation)
        self._in_scope(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for part in (*node.args.defaults, *filter(None, node.args.kw_defaults)):
            self.visit(part)
        self._in_scope(node, [node.body])

    def _comprehension(self, node):
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self._in_scope(node, [*node.generators, *elts])

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Name(self, node):
        name = self._module_level(node)
        if isinstance(node.ctx, ast.Load) and name in self.binds:
            self.qualified.add(self.binds[name])

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            name = self._module_level(node.value)
            if name in self.modules:
                self.qualified.add(f"{self.modules[name]}.{node.attr}")
            elif self.binds.get(name) in self.classes:
                self.qualified.add(f"{self.binds[name]}.{node.attr}")
            else:
                self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_Call(self, node):
        # getattr with a constant name reads that attribute
        if getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.attrs.add(name.value)
        self.generic_visit(node)

    def visit_Assign(self, node):
        # a name listed in __all__ is exported, not read
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)


def _fields(cls: ast.ClassDef) -> set[str]:
    """The annotated fields of a class and the attributes its __init__ sets
    on self."""
    names = {sub.target.id for sub in cls.body if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)}
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef) and sub.name == "__init__" and sub.args.args:
            this = sub.args.args[0].arg
            for node in ast.walk(sub):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if getattr(node.value, "id", None) == this:
                        names.add(node.attr)
    return names


def unread_names(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes, and their classes' methods
    and fields, that no module of `sources` (module name -> source) reads.
    Dunder methods, which Python calls itself, are left out.  A field is
    read like a method: by an attribute load or a getattr of its name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined: dict[str, str] = {}  # qualified name -> its last part
    classes: set[str] = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                defined[f"{module}.{stmt.name}"] = stmt.name
            if isinstance(stmt, ast.ClassDef):
                classes.add(f"{module}.{stmt.name}")
                for sub in stmt.body:
                    if isinstance(sub, _FUNCTIONS) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defined[f"{module}.{stmt.name}.{sub.name}"] = sub.name
                for name in _fields(stmt):
                    defined[f"{module}.{stmt.name}.{name}"] = name
    qualified: set[str] = set()
    attrs: set[str] = set()
    for module, tree in trees.items():
        reads = _Reads(module, tree, classes)
        reads.visit(tree)
        qualified |= reads.qualified
        attrs |= reads.attrs
    return sorted(
        name
        for name, last in defined.items()
        if name not in qualified and not (name.count(".") == 2 and last in attrs)
    )


def test_scan_resolves_reads_per_module():
    sources = {
        "a": (
            "__all__ = ['unused', 'helper']\n"
            "class Table:\n"
            "    def tau(self):\n"
            "        return 1\n"
            "    def _power(self):\n"
            "        tau = [self]\n"
            "        return tau\n"
            "    def used(self):\n"
            "        return self._power()\n"
            "    def hooked(self):\n"
            "        return 0\n"
            "def depths(t):\n"
            "    return t\n"
            "def helper():\n"
            "    return Table.hooked\n"
            "def unused():\n"
            "    return [depths for depths in ()]\n"
        ),
        "b": (
            "from .a import Table, helper\n"
            "from . import a\n"
            "class Arm:\n"
            "    def depths(self):\n"
            "        return helper()\n"
            "def run(arm, tab):\n"
            "    return arm.depths(), tab.used(), a.unused, Table\n"
        ),
    }
    # the local tau hides nothing from a method read as an attribute, and
    # reading Arm.depths or a comprehension's `depths` is no read of a.depths
    assert unread_names(sources) == ["a.Table.tau", "a.depths", "b.Arm", "b.run"]


def test_scan_lists_unread_fields():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Law:\n"
            "    values: list\n"
            "    theta: float\n"
            "    steps: int = 0\n"
            "class Stream:\n"
            "    def __init__(self, seed):\n"
            "        self.seed = seed\n"
            "        self.calls = 0\n"
            "        self.depth: int = 0\n"
            "    def draw(self):\n"
            "        self.calls += 1\n"
            "        return self.seed\n"
        ),
        "b": (
            "from .a import Law, Stream\n"
            "def run(law: Law, stream: Stream):\n"
            "    stream.calls = 1\n"
            "    return law.values, getattr(law, 'theta'), stream.draw(), run\n"
        ),
    }
    # a store, or an augmented assignment, is no read
    assert unread_names(sources) == ["a.Law.steps", "a.Stream.calls", "a.Stream.depth"]


def test_every_unread_name_is_kept_on_purpose():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = unread_names(sources)
    extra = sorted(set(unread) - set(KEPT_UNREAD))
    stale = sorted(set(KEPT_UNREAD) - set(unread))
    assert not extra, f"defined under src/ but read by no module there: {extra}"
    assert not stale, f"kept as unread, but now read or gone: {stale}"


# ---------------------------------------------------------------------------
# numpy is imported inside the functions that use it, so that importing the
# package, and its exact paths, never load it

def numpy_at_module_level(source: str) -> list[int]:
    """Lines of the imports of numpy that run when the module is imported:
    any outside a function body, class bodies included."""
    lines = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            if any(a.name.partition(".")[0] == "numpy" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


class _UnboundReads(ast.NodeVisitor):
    """Reads of one name in functions where neither the function nor an
    enclosing function binds it.  Annotations are skipped when the module
    has `from __future__ import annotations`, which keeps them unevaluated
    strings."""

    def __init__(self, name: str, lazy_annotations: bool):
        self.name = name
        self.lazy = lazy_annotations
        self.scopes: list[tuple[str, set[str]]] = []
        self.found: list[str] = []

    def _annotation(self, node) -> None:
        if node is not None and not self.lazy:
            self.visit(node)

    def visit_FunctionDef(self, node):
        args = node.args
        for part in (*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults)):
            self.visit(part)
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
            if a is not None:
                self._annotation(a.annotation)
        self._annotation(node.returns)
        self.scopes.append((node.name, _local_names(node)))
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for part in (*node.args.defaults, *filter(None, node.args.kw_defaults)):
            self.visit(part)
        self.scopes.append(("<lambda>", _local_names(node)))
        self.visit(node.body)
        self.scopes.pop()

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        self._annotation(node.annotation)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node):
        if node.id == self.name and isinstance(node.ctx, ast.Load):
            if not any(node.id in names for _, names in self.scopes):
                where = ".".join(name for name, _ in self.scopes) or "<module>"
                self.found.append(f"{where}:{node.lineno}")


def unbound_reads(source: str, name: str) -> list[str]:
    """`function:line` of each read of `name` that no enclosing function
    binds (`<module>:line` outside any function)."""
    tree = ast.parse(source)
    lazy = any(
        isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__" and any(a.name == "annotations" for a in stmt.names)
        for stmt in tree.body
    )
    reads = _UnboundReads(name, lazy)
    reads.visit(tree)
    return reads.found


def test_numpy_scans_flag_module_imports_and_unbound_reads():
    source = (
        "from __future__ import annotations\n"
        "import numpy.fft\n"
        "class Law:\n"
        "    from numpy import ndarray\n"
        "    values: np.ndarray\n"
        "def bound(x: np.ndarray) -> np.ndarray:\n"
        "    import numpy as np\n"
        "    def inner():\n"
        "        return np.zeros(1), [np.ones(k) for k in x], lambda: np.pi\n"
        "    return inner()\n"
        "def unbound(x):\n"
        "    return np.asarray(x)\n"
        "def hidden():\n"
        "    def inner():\n"
        "        import numpy as np\n"
        "        return np\n"
        "    return inner, np\n"
    )
    assert numpy_at_module_level(source) == [2, 4]
    assert unbound_reads(source, "np") == ["unbound:12", "hidden:17"]
    # evaluated annotations read the name
    assert unbound_reads(source.partition("\n")[2], "np") == ["<module>:4", "<module>:5", "<module>:5", "unbound:11", "hidden:16"]


def test_numpy_is_imported_only_where_it_is_used():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        issues = [f"module-level import at line {n}" for n in numpy_at_module_level(source)]
        issues += [f"np read unbound in {where}" for where in unbound_reads(source, "np")]
        if issues:
            found[path.name] = issues
    assert not found, f"numpy must be imported inside the functions that read it: {found}"
