"""Determinism lint for the simulator core (``rolp-lint``).

The bench runner's replayability rests on conventions no tool enforced
until now: simulation code must draw randomness only from seeded
``random.Random`` instances, must read time only through the virtual
:mod:`repro.runtime.clock`, and must not let set iteration order leak
into ordered output.  One stray ``time.time()`` silently breaks
byte-identical replay; this lint makes the conventions machine-checked.

Pure stdlib ``ast`` — no third-party dependency.  Rules:

``unseeded-random``
    module-level ``random.*`` API, ``random.Random()`` constructed
    without a seed, or ``random.SystemRandom`` anywhere.
``wall-clock``
    ``time.time``/``monotonic``/``perf_counter``-family and
    ``datetime.now``-family calls in *sim-core* modules (everything
    except the bench/telemetry/analysis harness); ``runtime/clock.py``
    is the one sanctioned shim.
``mutable-default``
    mutable default argument values (``def f(x=[])`` and friends).
``unordered-iteration``
    iterating directly over a set expression in sim-core modules, where
    iteration order would feed ordered output.
``builtin-shadowing``
    module-level names that shadow builtins, including Java-flavoured
    exception names (``OutOfMemoryError``) whose builtin analogue
    (``MemoryError``) makes ``except`` sites ambiguous.
``backend-hygiene``
    sim-core imports of the fast backend's twin symbols
    (``FastExecutionContext``) outside the sanctioned entry points; the
    switch in :mod:`repro.fastpath` is how backends are selected, and
    direct twin imports silently pin one backend.

Waive a finding on its line with ``# rolp-lint: allow[rule]`` (or
``allow[*]``).  Exit status: 0 clean, 1 findings, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Packages whose modules are simulation core (deterministic-replay
#: critical).  Everything else under ``repro`` is harness code, where
#: wall-clock reads and set iteration are legitimate.
SIM_CORE_PACKAGES = frozenset(
    {"heap", "runtime", "gc", "core", "workloads", "metrics"}
)

#: The one module allowed to touch wall-clock APIs (it defines the
#: virtual clock the rest of the simulator must use).
CLOCK_MODULE = ("runtime", "clock.py")

WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
    }
)
WALL_CLOCK_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

#: Java exception names whose Python builtin analogue makes shadowing
#: especially confusing at ``except`` sites.
JVM_EXCEPTION_ANALOGUES: Dict[str, str] = {
    "OutOfMemoryError": "MemoryError",
    "StackOverflowError": "RecursionError",
    "NullPointerException": "AttributeError",
    "ClassCastException": "TypeError",
    "ArrayIndexOutOfBoundsException": "IndexError",
}

BUILTIN_NAMES = frozenset(
    name for name in dir(builtins) if not name.startswith("_")
)

#: Twin symbols living inside otherwise-generic modules: importing one
#: couples the importer to one backend behind the switch's back.
BACKEND_TWIN_SYMBOLS: Dict[str, frozenset] = {
    "repro.runtime.interpreter": frozenset({"FastExecutionContext"}),
}

#: ``repro``-relative paths sanctioned to name the twins directly: the
#: switch itself, the VM's construction-time backend selection, and the
#: module hosting the twins.  Everything else in sim-core goes through
#: the switch.
BACKEND_SANCTIONED = frozenset(
    {
        ("fastpath.py",),
        ("runtime", "vm.py"),
        ("runtime", "interpreter.py"),
    }
)

RULES: Dict[str, str] = {
    "unseeded-random": "randomness must come from seeded random.Random instances",
    "wall-clock": "sim-core code must read time through repro.runtime.clock",
    "mutable-default": "mutable default argument values are shared between calls",
    "unordered-iteration": "set iteration order must not feed ordered output",
    "builtin-shadowing": "module-level name shadows a Python builtin",
    "backend-hygiene": "backend twins are selected via repro.fastpath, not imported directly",
    "parse-error": "file could not be parsed",
}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.rule, self.message)


def _classify(path: str) -> Tuple[bool, bool]:
    """Return ``(sim_core, clock_exempt)`` for a file path.

    Files outside a recognised ``repro`` package (e.g. test fixtures)
    get the strictest treatment.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" in parts:
        rel = parts[parts.index("repro") + 1 :]
        if tuple(rel) == CLOCK_MODULE:
            return True, True
        if rel and rel[0] in SIM_CORE_PACKAGES:
            return True, False
        if len(rel) == 1:  # repro/__init__.py and friends
            return True, False
        return False, False
    return True, False


def _backend_sanctioned(path: str) -> bool:
    """Whether ``path`` may import the backend twins directly."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" in parts:
        rel = tuple(parts[parts.index("repro") + 1 :])
        return rel in BACKEND_SANCTIONED
    return False


class _FileLinter(ast.NodeVisitor):
    """Single-file rule engine; findings accumulate in ``findings``."""

    def __init__(
        self,
        path: str,
        source: str,
        sim_core: bool,
        clock_exempt: bool,
        backend_scope: bool = False,
    ) -> None:
        self.path = path
        self.sim_core = sim_core
        self.clock_exempt = clock_exempt
        self.backend_scope = backend_scope
        self.findings: List[Finding] = []
        self._lines = source.splitlines()
        #: local names bound to the random / time / datetime modules
        self._random_mods: Set[str] = set()
        self._time_mods: Set[str] = set()
        self._datetime_mods: Set[str] = set()
        #: local names bound to the datetime/date classes
        self._datetime_classes: Set[str] = set()
        #: local names bound directly to wall-clock functions
        self._clock_funcs: Set[str] = set()

    # -- reporting ------------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self._waived(line, rule):
            return
        self.findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0) + 1, rule, message)
        )

    def _waived(self, line: int, rule: str) -> bool:
        if not 1 <= line <= len(self._lines):
            return False
        text = self._lines[line - 1]
        if "rolp-lint:" not in text:
            return False
        waiver = text.split("rolp-lint:", 1)[1]
        return "allow[%s]" % rule in waiver or "allow[*]" in waiver

    # -- imports --------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_mods.add(bound)
            elif alias.name == "time":
                self._time_mods.add(bound)
            elif alias.name == "datetime":
                self._datetime_mods.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.backend_scope and node.module in BACKEND_TWIN_SYMBOLS:
            twins = BACKEND_TWIN_SYMBOLS[node.module]
            for alias in node.names:
                if alias.name in twins:
                    self._report(
                        node,
                        "backend-hygiene",
                        "%s is a backend twin; the VM picks the execution "
                        "context from repro.fastpath's switch" % alias.name,
                    )
        if node.module == "random":
            for alias in node.names:
                if alias.name == "SystemRandom":
                    self._report(
                        node,
                        "unseeded-random",
                        "SystemRandom is never reproducible; use a seeded random.Random",
                    )
                elif alias.name != "Random":
                    self._report(
                        node,
                        "unseeded-random",
                        "from random import %s binds the shared global RNG; "
                        "use a seeded random.Random instance" % alias.name,
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCS:
                    self._clock_funcs.add(alias.asname or alias.name)
                    if self.sim_core and not self.clock_exempt:
                        self._report(
                            node,
                            "wall-clock",
                            "time.%s imported into sim-core code; read time "
                            "through repro.runtime.clock" % alias.name,
                        )
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_classes.add(alias.asname or alias.name)

    # -- calls ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_random_call(node)
        if self.sim_core and not self.clock_exempt:
            self._check_wall_clock_call(node)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_mods
        ):
            return
        if func.attr == "SystemRandom":
            self._report(
                node,
                "unseeded-random",
                "random.SystemRandom() is never reproducible",
            )
        elif func.attr == "Random":
            if not node.args and not node.keywords:
                self._report(
                    node,
                    "unseeded-random",
                    "random.Random() constructed without a seed",
                )
        elif func.attr != "seed":
            self._report(
                node,
                "unseeded-random",
                "random.%s() uses the shared module-level RNG; "
                "use a seeded random.Random instance" % func.attr,
            )

    def _check_wall_clock_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._clock_funcs:
            self._report(
                node,
                "wall-clock",
                "%s() reads the wall clock; use the simulated clock" % func.id,
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        target = func.value
        # time.time(), time.monotonic(), ...
        if (
            isinstance(target, ast.Name)
            and target.id in self._time_mods
            and func.attr in WALL_CLOCK_TIME_FUNCS
        ):
            self._report(
                node,
                "wall-clock",
                "time.%s() reads the wall clock; use the simulated clock" % func.attr,
            )
        # datetime.now(), date.today(), ...
        elif (
            isinstance(target, ast.Name)
            and target.id in self._datetime_classes
            and func.attr in WALL_CLOCK_DATETIME_METHODS
        ):
            self._report(
                node,
                "wall-clock",
                "%s.%s() reads the wall clock; use the simulated clock"
                % (target.id, func.attr),
            )
        # datetime.datetime.now(), datetime.date.today(), ...
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in self._datetime_mods
            and target.attr in ("datetime", "date")
            and func.attr in WALL_CLOCK_DATETIME_METHODS
        ):
            self._report(
                node,
                "wall-clock",
                "datetime.%s.%s() reads the wall clock; use the simulated clock"
                % (target.attr, func.attr),
            )

    # -- mutable defaults -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_literal(default):
                self._report(
                    default,
                    "mutable-default",
                    "mutable default argument is shared between calls; "
                    "default to None and build inside the function",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray", "defaultdict")
        )

    # -- unordered iteration ------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self.sim_core:
            self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        if self.sim_core:
            for generator in node.generators:
                self._check_set_iteration(generator.iter)

    def _check_set_iteration(self, iterable: ast.AST) -> None:
        target = iterable
        # enumerate(set(...)) / sorted is fine — sorted() restores order.
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name)
            and target.func.id in ("enumerate", "reversed", "list", "tuple", "iter")
            and target.args
        ):
            target = target.args[0]
        if self._is_set_expression(target):
            self._report(
                iterable,
                "unordered-iteration",
                "iteration over a set feeds ordered output; sort it or use a "
                "list/dict (insertion-ordered) instead",
            )

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    # -- module-level shadowing (driven from lint_source, not generic_visit) -------

    def check_module_bindings(self, module: ast.Module) -> None:
        for stmt in module.body:
            for name, node in _bound_names(stmt):
                if name in BUILTIN_NAMES:
                    self._report(
                        node,
                        "builtin-shadowing",
                        "module-level name %r shadows the %r builtin" % (name, name),
                    )
                elif name in JVM_EXCEPTION_ANALOGUES:
                    self._report(
                        node,
                        "builtin-shadowing",
                        "module-level name %r shadows the semantics of the %r "
                        "builtin at import sites; prefix it (e.g. Sim%s)"
                        % (name, JVM_EXCEPTION_ANALOGUES[name], name),
                    )


def _bound_names(stmt: ast.stmt) -> Iterable[Tuple[str, ast.AST]]:
    """Names a module-level statement binds (assignments, defs, classes)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name, stmt
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id, target
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id, stmt.target
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name != "*":
                yield (alias.asname or alias.name.split(".")[0]), stmt


# -- public API ------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string (rule scope derived from ``path``)."""
    sim_core, clock_exempt = _classify(path)
    try:
        module = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 1, (exc.offset or 0) + 1, "parse-error", str(exc.msg))
        ]
    backend_scope = sim_core and not _backend_sanctioned(path)
    linter = _FileLinter(path, source, sim_core, clock_exempt, backend_scope)
    linter.visit(module)
    linter.check_module_bindings(module)
    return linter.findings


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint files and directory trees; findings sorted by location."""
    findings: List[Finding] = []
    files = 0
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        findings.extend(lint_file(os.path.join(root, name)))
                        files += 1
        else:
            findings.extend(lint_file(path))
            files += 1
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    lint_paths.files_checked = files  # type: ignore[attr-defined]
    return findings


def default_target() -> str:
    """The installed ``repro`` package tree (what CI lints)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rolp-lint",
        description="Determinism lint for the ROLP simulator core.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="list the rules and exit"
    )
    args = parser.parse_args(argv)
    if args.rules:
        for rule in sorted(RULES):
            print("%-22s %s" % (rule, RULES[rule]))
        return 0
    targets = list(args.paths) or [default_target()]
    for target in targets:
        if not os.path.exists(target):
            print("rolp-lint: no such path: %s" % target, file=sys.stderr)
            return 2
    findings = lint_paths(targets)
    for finding in findings:
        print(finding.format())
    files = getattr(lint_paths, "files_checked", 0)
    if findings:
        if any(f.rule == "parse-error" for f in findings):
            return 2
        print(
            "rolp-lint: %d finding(s) in %d file(s)" % (len(findings), files),
            file=sys.stderr,
        )
        return 1
    print("rolp-lint: clean (%d files)" % files, file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
