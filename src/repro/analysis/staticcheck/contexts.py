"""Ahead-of-time context-conflict analyzer.

ROLP encodes an allocation context as ``(site_id << 16) | stack_state``
(:mod:`repro.core.context`): the 16-bit thread stack state is the sum of
the RNG-assigned call-site increments along the dynamic call path.  Two
facts make collisions statically predictable:

* the increments are opaque at analysis time, but the *number of
  distinct stack states* observable at a method is bounded by the number
  of distinct static call paths that reach it — the reachable context-ID
  space per site is ``min(path_count, 2**16)``;
* a site only corrupts lifetime inference when a single context ID
  observes a **multi-modal** lifetime distribution, which requires the
  allocation's lifetime to vary at all.

So the analyzer builds the static call graph over ``Method`` bodies
(an AST walk of each body's source), counts acyclic call paths per
method (bounded at the 16-bit context width), classifies each
allocation site's lifetime source, and emits one predicted **collision
class** per site:

``structural``
    reached via >= 2 distinct call paths whose callers bind *different*
    constant arguments into a caller-determined lifetime — the paper's
    context-conflict machine (two paths, one profiling ID, two lifetime
    populations).
``value-dependent``
    the lifetime varies for reasons the caller path does not explain
    (opaque helper allocations, oscillating phase logic, externally
    managed queue expiry) — conflicts are possible at any context.
``clean``
    a single constant lifetime: every context observes one mode, the
    profiler cannot see a conflict here.

The superset guarantee the cross-validation test pins: every
runtime-observed conflict site classifies as ``structural`` or
``value-dependent`` (never ``clean``) — the prediction over-approximates
and admits false positives, never false negatives.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.runtime.method import Method

#: path counts saturate at the 16-bit context width: beyond it the
#: encoding space itself is exhausted, finer counting is meaningless
PATH_CAP = 1 << 16

#: ``analyze_genome`` flags a demography as conflict-heavy at this many
#: predicted conflict sites — calibrated so the banked 10.7x-baseline
#: corpus genome (4 collision factories) sits exactly at the bar
CONFLICT_HEAVY_MIN = 4

_UNKNOWN = object()


class _AnyOf:
    """A call target resolved to a pool of Methods (subscript over a
    method list, loop variable over a method sequence, ...)."""

    __slots__ = ("methods",)

    def __init__(self, methods: Sequence[Method]) -> None:
        self.methods = tuple(methods)


class ShapeCall:
    """One static call site."""

    __slots__ = ("bci", "targets", "binding", "guarded")

    def __init__(
        self,
        bci: Optional[int],
        targets: Optional[Tuple[Method, ...]],
        binding: Tuple[Any, ...] = (),
        guarded: bool = False,
    ) -> None:
        self.bci = bci          # None = non-constant bci expression
        self.targets = targets  # None = unresolvable target
        #: resolved constant extra arguments (the lifetime-class style
        #: bindings that make two paths *semantically* distinct)
        self.binding = binding
        self.guarded = guarded


class ShapeAlloc:
    """One static allocation site."""

    __slots__ = ("bci", "lifetime", "caller_dependent")

    def __init__(
        self, bci: Optional[int], lifetime: str, caller_dependent: bool = False
    ) -> None:
        self.bci = bci            # None = non-constant bci (wildcard)
        self.lifetime = lifetime  # "const" | "varying" | "opaque" | "external"
        self.caller_dependent = caller_dependent


class MethodShape:
    """The analyzable skeleton of one method body."""

    __slots__ = ("method", "calls", "allocs", "opaque", "unknown_calls")

    def __init__(self, method: Method) -> None:
        self.method = method
        self.calls: List[ShapeCall] = []
        self.allocs: List[ShapeAlloc] = []
        self.opaque = False          # body unreadable: wildcard alloc assumed
        self.unknown_calls = 0       # call targets the resolver gave up on


# ------------------------------------------------------------ method discovery

def collect_methods(workload) -> List[Method]:
    """Every Method a workload holds — direct attributes plus methods
    inside list/tuple/dict attributes (the generated-pool idiom of the
    adversarial and dacapo workloads)."""
    seen: Set[int] = set()
    out: List[Method] = []

    def add(method: Method) -> None:
        if id(method) not in seen:
            seen.add(id(method))
            out.append(method)

    for value in vars(workload).values():
        if isinstance(value, Method):
            add(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Method):
                    add(item)
        elif isinstance(value, dict):
            for item in value.values():
                if isinstance(item, Method):
                    add(item)
    return out


# ------------------------------------------------------------ shape extraction

def _binding_key(value: Any) -> Any:
    """A deterministic identity for a resolved constant call argument."""
    if isinstance(value, Method):
        return ("method", value.qualified_name)
    try:
        hash(value)
    except TypeError:
        return ("id", type(value).__name__, id(value))
    return ("const", value)


class _BodyResolver:
    """Resolves AST expressions against a body's bindings: defaulted
    parameters, closure cells, globals, simple local assignments, and
    ``for``-loop targets over method sequences."""

    def __init__(self, fn, func: ast.FunctionDef) -> None:
        self.fn = fn
        params = [arg.arg for arg in func.args.args]
        defaults = list(func.args.defaults)
        self.bound: Dict[str, Any] = {}
        if defaults:
            values = list(getattr(fn, "__defaults__", None) or ())
            for name, value in zip(params[-len(defaults):], values):
                self.bound[name] = value
        self.closure: Dict[str, Any] = {}
        if getattr(fn, "__closure__", None):
            for cell_name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
                try:
                    self.closure[cell_name] = cell.cell_contents
                except ValueError:  # pragma: no cover - unfilled cell
                    pass
        self.locals: Dict[str, ast.AST] = {}
        self.loop_vars: Dict[str, ast.AST] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.locals[target.id] = node.value
            elif isinstance(node, ast.For):
                self._record_loop(node)

    def _record_loop(self, node: ast.For) -> None:
        iterable: Optional[ast.AST] = node.iter
        target = node.target
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "enumerate"
            and iterable.args
        ):
            iterable = iterable.args[0]
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                target = target.elts[1]
        if isinstance(target, ast.Name) and iterable is not None:
            self.loop_vars[target.id] = iterable

    def resolve(self, node: ast.AST, depth: int = 0) -> Any:
        if depth > 8:
            return _UNKNOWN
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.bound:
                return self.bound[name]
            if name in self.closure:
                return self.closure[name]
            if name in self.locals:
                return self.resolve(self.locals[name], depth + 1)
            if name in self.loop_vars:
                pool = self.resolve(self.loop_vars[name], depth + 1)
                return self._as_pool(pool)
            if name in self.fn.__globals__:
                return self.fn.__globals__[name]
            return _UNKNOWN
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, depth + 1)
            if base is _UNKNOWN or isinstance(base, _AnyOf):
                return _UNKNOWN
            try:
                return getattr(base, node.attr)
            except AttributeError:
                return _UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value, depth + 1)
            return self._as_pool(base)
        return _UNKNOWN

    @staticmethod
    def _as_pool(value: Any) -> Any:
        if isinstance(value, _AnyOf):
            return value
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(item, Method) for item in value
        ):
            return _AnyOf(value)
        return _UNKNOWN


def method_shape(method: Method) -> MethodShape:
    """The call and allocation skeleton of ``method``'s body, read from
    the body's source AST (nothing is executed)."""
    shape = MethodShape(method)
    fn = method.body
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        shape.opaque = True
        # unreadable body: assume it may allocate anywhere with an
        # unknown lifetime (wildcard keeps the superset guarantee)
        shape.allocs.append(ShapeAlloc(None, "opaque"))
        return shape
    func = next(
        (node for node in tree.body if isinstance(node, ast.FunctionDef)), None
    )
    if func is None or not func.args.args:
        shape.opaque = True
        shape.allocs.append(ShapeAlloc(None, "opaque"))
        return shape

    params = [arg.arg for arg in func.args.args]
    ctx_name = params[0]
    ndefaults = len(func.args.defaults)
    #: parameters the *caller* supplies (non-defaulted, beyond ctx);
    #: defaulted params are per-method constant bindings
    caller_params = set(params[1:len(params) - ndefaults if ndefaults else None])
    resolver = _BodyResolver(fn, func)

    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == ctx_name
        ):
            _shape_ctx_call(shape, node, target.attr, caller_params, resolver)
        elif any(
            isinstance(arg, ast.Name) and arg.id == ctx_name for arg in node.args
        ):
            _shape_helper_call(shape, node, ctx_name, caller_params)
    return shape


def _const_int(node: Optional[ast.AST]) -> Optional[int]:
    if (
        node is not None
        and isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _shape_ctx_call(
    shape: MethodShape,
    node: ast.Call,
    attr: str,
    caller_params: Set[str],
    resolver: _BodyResolver,
) -> None:
    if attr == "call":
        if len(node.args) < 2:
            return
        bci = _const_int(node.args[0])
        resolved = resolver.resolve(node.args[1])
        targets: Optional[Tuple[Method, ...]]
        if isinstance(resolved, Method):
            targets = (resolved,)
        elif isinstance(resolved, _AnyOf):
            targets = resolved.methods
        elif resolved is None:
            return  # guarded `if x is not None` pattern with a None binding
        else:
            targets = None
            shape.unknown_calls += 1
        binding: List[Any] = []
        for arg in node.args[2:]:
            value = resolver.resolve(arg)
            if value is _UNKNOWN or isinstance(value, _AnyOf):
                binding.append(("dyn",))
            elif isinstance(arg, ast.Name) and arg.id in caller_params:
                binding.append(("dyn",))
            else:
                binding.append(_binding_key(value))
        shape.calls.append(ShapeCall(bci, targets, tuple(binding)))
    elif attr == "alloc":
        bci = _const_int(node.args[0]) if node.args else None
        lives_node: Optional[ast.AST] = None
        for keyword in node.keywords:
            if keyword.arg == "lives_ns":
                lives_node = keyword.value
        if lives_node is None and len(node.args) >= 3:
            lives_node = node.args[2]
        if lives_node is None or (
            isinstance(lives_node, ast.Constant) and lives_node.value is None
        ):
            # lifetime managed outside the allocation (kill_at queues)
            lifetime, caller_dep = "external", False
        elif isinstance(lives_node, ast.Constant):
            lifetime, caller_dep = "const", False
        elif isinstance(lives_node, ast.Name) and lives_node.id in caller_params:
            lifetime, caller_dep = "varying", True
        else:
            resolved = resolver.resolve(lives_node)
            if resolved is not _UNKNOWN and isinstance(resolved, (int, float)):
                lifetime, caller_dep = "const", False
            else:
                lifetime, caller_dep = "varying", False
        shape.allocs.append(ShapeAlloc(bci, lifetime, caller_dep))


def _shape_helper_call(
    shape: MethodShape, node: ast.Call, ctx_name: str, caller_params: Set[str]
) -> None:
    """``self._allocate(ctx, bci, cls, ...)``-style opaque helpers: the
    helper allocates in the *current* frame (no simulated call), with a
    lifetime the analyzer cannot see — conservatively varying."""
    bci = None
    caller_dep = False
    for arg in node.args:
        if isinstance(arg, ast.Name) and arg.id == ctx_name:
            continue
        if bci is None:
            bci = _const_int(arg)
        if isinstance(arg, ast.Name) and arg.id in caller_params:
            caller_dep = True
    shape.allocs.append(ShapeAlloc(bci, "opaque", caller_dep))


# ------------------------------------------------------------- path counting

def _call_multiplicity(call: ShapeCall) -> int:
    # a non-constant bci expression stands for several distinct runtime
    # call sites; two is enough to make the path count conservative
    return 1 if call.bci is not None else 2


def path_counts(
    shapes: Dict[int, MethodShape],
) -> Tuple[Dict[int, int], Dict[int, Set[Tuple[Any, ...]]], bool]:
    """``(paths, bindings, bounded)`` per method id.

    ``paths`` counts distinct acyclic call paths from graph roots
    (methods nothing calls), saturating at :data:`PATH_CAP`.
    ``bindings`` collects the distinct constant-argument signatures of
    the direct incoming calls — what distinguishes semantically
    different paths to a conflict factory from repeated calls that bind
    nothing.
    """
    incoming: Dict[int, List[Tuple[int, ShapeCall]]] = {}
    bindings: Dict[int, Set[Tuple[Any, ...]]] = {}
    for key, shape in shapes.items():
        for call in shape.calls:
            targets = call.targets if call.targets is not None else ()
            for target in targets:
                target_key = id(target)
                if target_key not in shapes:
                    continue
                incoming.setdefault(target_key, []).append((key, call))
                bindings.setdefault(target_key, set()).add(call.binding)

    counts: Dict[int, int] = {}
    bounded = False
    ON_STACK = -1

    def count(key: int) -> int:
        nonlocal bounded
        cached = counts.get(key)
        if cached == ON_STACK:
            bounded = True  # recursion: cut the back edge, mark bounded
            return 0
        if cached is not None:
            return cached
        counts[key] = ON_STACK
        edges = incoming.get(key)
        if not edges:
            total = 1  # a root: one path (its own invocation)
        else:
            total = 0
            for caller_key, call in edges:
                total += count(caller_key) * _call_multiplicity(call)
                if total >= PATH_CAP:
                    total = PATH_CAP
                    bounded = True
                    break
        counts[key] = total
        return total

    for key in shapes:
        count(key)
    return counts, bindings, bounded


# -------------------------------------------------------------- site reports

def classify_site(
    alloc: ShapeAlloc, paths: int, distinct_bindings: int
) -> str:
    if alloc.lifetime == "const":
        return "clean"
    if alloc.caller_dependent and paths >= 2 and distinct_bindings >= 2:
        return "structural"
    return "value-dependent"


class WorkloadAnalysis:
    """The full static picture of one built workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.methods = collect_methods(workload)
        self.shapes: Dict[int, MethodShape] = {
            id(method): method_shape(method) for method in self.methods
        }
        self.paths, self.bindings, self.bounded = path_counts(self.shapes)
        self.sites: List[Dict[str, Any]] = []
        for method in self.methods:
            shape = self.shapes[id(method)]
            paths = self.paths.get(id(method), 1)
            distinct = len(self.bindings.get(id(method), set()))
            seen: Set[Tuple[Optional[int], str]] = set()
            for alloc in shape.allocs:
                collision = classify_site(alloc, paths, distinct)
                dedup_key = (alloc.bci, collision)
                if dedup_key in seen:
                    continue
                seen.add(dedup_key)
                self.sites.append(
                    {
                        "method": method.qualified_name,
                        "bci": alloc.bci,
                        "lifetime": alloc.lifetime,
                        "caller_dependent": alloc.caller_dependent,
                        "paths": paths,
                        "context_space": min(paths, PATH_CAP),
                        "collision_class": collision,
                    }
                )
        self.opaque_methods = [
            shape.method.qualified_name
            for shape in self.shapes.values()
            if shape.opaque
        ]
        self.unknown_calls = sum(
            shape.unknown_calls for shape in self.shapes.values()
        )

    # -- summaries ----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {"structural": 0, "value-dependent": 0, "clean": 0}
        for site in self.sites:
            out[site["collision_class"]] += 1
        return out

    def predicted_conflict_sites(self) -> List[Dict[str, Any]]:
        return [
            site for site in self.sites if site["collision_class"] != "clean"
        ]

    def predicted_conflict_index(self) -> Dict[str, Set[Optional[int]]]:
        """method qualified name -> predicted-conflictable bcis (None =
        wildcard, matches any bci in that method)."""
        index: Dict[str, Set[Optional[int]]] = {}
        for site in self.predicted_conflict_sites():
            index.setdefault(site["method"], set()).add(site["bci"])
        return index

    def context_space_total(self) -> int:
        return sum(site["context_space"] for site in self.sites)


def analyze_workload(workload) -> WorkloadAnalysis:
    """Analyze a **built** workload (``workload.build(vm)`` already ran,
    so the method graph exists); nothing is executed."""
    return WorkloadAnalysis(workload)


# ----------------------------------------------------- runtime cross-validation

def observed_conflict_site_ids(profiler) -> Set[int]:
    """Union of every conflicted site id the runtime profiler observed
    across all inference passes."""
    observed: Set[int] = set()
    for passed in getattr(profiler, "_conflict_history", []):
        observed |= set(passed)
    resolver = getattr(profiler, "resolver", None)
    if resolver is not None:
        for attr in ("resolved_sites", "given_up_sites"):
            observed |= set(getattr(resolver, attr, ()) or ())
        observed |= set(getattr(resolver, "active", {}) or {})
    observed.discard(0)  # 0 = unprofiled, never a real site
    return observed


def observed_conflicts(profiler, methods: Iterable[Method]) -> List[Dict[str, Any]]:
    """Observed conflict site ids mapped back to ``(method, bci)``."""
    index: Dict[int, Tuple[str, int]] = {}
    for method in methods:
        for bci, site in method.alloc_sites.items():
            if site.site_id:
                index[site.site_id] = (method.qualified_name, bci)
    out = []
    for site_id in sorted(observed_conflict_site_ids(profiler)):
        method_name, bci = index.get(site_id, ("<unknown>", -1))
        out.append({"site_id": site_id, "method": method_name, "bci": bci})
    return out


def validate_against_runtime(
    analysis: WorkloadAnalysis, profiler
) -> Dict[str, Any]:
    """Cross-validate the static prediction against the runtime
    profiler's conflicts stream: every observed conflict must land on a
    predicted (non-``clean``) site.  Returns the observed set and any
    false negatives (which the tests pin to empty)."""
    predicted = analysis.predicted_conflict_index()
    observed = observed_conflicts(profiler, analysis.methods)
    false_negatives = []
    for entry in observed:
        bcis = predicted.get(entry["method"])
        if bcis is None or (entry["bci"] not in bcis and None not in bcis):
            false_negatives.append(entry)
    return {
        "observed": observed,
        "false_negatives": false_negatives,
        "predicted_conflict_sites": sum(len(b) for b in predicted.values()),
    }


# ------------------------------------------------------------- genome analysis

def analyze_genome(genome, seed: int = 42) -> Dict[str, Any]:
    """Statically analyze an adversarial demography genome **without
    running it**: expand the genome into its method graph (building a
    workload constructs methods, it executes nothing) and combine the
    graph's structural-conflict sites with the genome's declared
    lifetime oscillation (a static input too).
    """
    from repro import build_vm
    from repro.core.profiler import RolpConfig
    from repro.workloads.adversarial import AdversarialWorkload

    workload = AdversarialWorkload(genome, seed=seed)
    vm, _profiler = build_vm(
        "rolp",
        heap_mb=workload.heap_mb,
        young_regions=workload.young_regions,
        rolp_config=RolpConfig(package_filter=workload.package_filter()),
    )
    workload.build(vm)
    analysis = analyze_workload(workload)
    structural = [
        site
        for site in analysis.sites
        if site["collision_class"] == "structural"
    ]
    oscillating = 0
    if genome.oscillation_period_ops:
        oscillating = sum(
            1 for cls in genome.classes if cls.kind == "oscillating"
        )
    pressure = len(structural) + oscillating
    counts = analysis.counts()
    return {
        "genome": genome.as_dict(),
        "methods": len(analysis.methods),
        "sites": len(analysis.sites),
        "structural_sites": len(structural),
        "oscillating_sites": oscillating,
        "value_dependent_sites": counts["value-dependent"],
        "conflict_pressure": pressure,
        "conflict_heavy": pressure >= CONFLICT_HEAVY_MIN,
    }


def static_conflict_pressure(genome, seed: int = 42) -> int:
    """Predicted count of conflict-capable allocation sites for a
    genome — the fuzz harness consults this before paying for a
    simulation: zero pressure means no structural collision paths and
    no active lifetime oscillation, so the candidate cannot clear a
    conflict-rate threshold far above baseline."""
    return int(analyze_genome(genome, seed=seed)["conflict_pressure"])
