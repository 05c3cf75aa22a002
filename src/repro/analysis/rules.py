"""The built-in invariant rules (see the package docstring for codes).

Each rule is a checker over the whole parsed file set
(:class:`~repro.analysis.core.AnalysisContext`), registered through
:func:`~repro.analysis.core.register_rule` at import time.  Rules are
static and conservative: they flag shapes that *cannot* be correct
under the engine's contracts (ambient RNG, wall-clock data, lambdas
crossing pickle boundaries, unfingerprinted config knobs) and leave
gray areas alone — a deliberate exception is annotated in source with
``# repro: noqa[CODE]`` rather than special-cased here.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    AnalysisContext,
    Finding,
    ModuleInfo,
    dotted_name,
    import_aliases,
    register_rule,
)

# --------------------------------------------------------------------------
# RNG001 — RNG discipline: no ambient random state.
# --------------------------------------------------------------------------

#: Module-level RNG namespaces whose *calls* consume or mutate hidden
#: global state.  Seeded constructors are explicitly allowed: they
#: create threadable generator objects instead of ambient state.
_RNG_ALLOWED = {
    "random": {"Random", "SystemRandom"},
    "numpy.random": {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
    },
}


def _resolved_calls(
    info: ModuleInfo,
) -> Iterator[Tuple[ast.Call, str]]:
    """(call, dotted-origin) pairs for calls on imported names only."""
    aliases = import_aliases(info.tree)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        parts: List[str] = []
        current: ast.AST = node.func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name) or current.id not in aliases:
            continue
        parts.append(aliases[current.id])
        yield node, ".".join(reversed(parts))


def check_rng_discipline(context: AnalysisContext) -> Iterator[Finding]:
    for info in context.modules:
        for node, dotted in _resolved_calls(info):
            for namespace, allowed in _RNG_ALLOWED.items():
                prefix = namespace + "."
                if not dotted.startswith(prefix):
                    continue
                attr = dotted[len(prefix):]
                if "." in attr or attr in allowed:
                    continue
                yield info.finding(
                    "RNG001",
                    node.lineno,
                    f"ambient RNG call {dotted}() draws from hidden "
                    "module state, so results depend on call order "
                    "across shards; thread a seeded "
                    "numpy.random.Generator (numpy.random.default_rng)"
                    " through the call chain instead",
                )


# --------------------------------------------------------------------------
# NDT001 — wall-clock and other nondeterminism sources in result paths.
# --------------------------------------------------------------------------

#: Calls whose return value differs between bit-identical runs.
#: ``time.monotonic``/``time.perf_counter`` are deliberately absent:
#: measuring durations is fine, *recording wall-clock values as data*
#: is not.
_NONDETERMINISTIC_CALLS = {
    "time.time",
    "time.time_ns",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def check_nondeterminism(context: AnalysisContext) -> Iterator[Finding]:
    for info in context.modules:
        for node, dotted in _resolved_calls(info):
            if dotted in _NONDETERMINISTIC_CALLS:
                yield info.finding(
                    "NDT001",
                    node.lineno,
                    f"{dotted}() is a nondeterminism source: its value "
                    "differs between runs that must be bit-identical; "
                    "derive the value from inputs (or annotate a "
                    "deliberate timestamp with a noqa)",
                )
        for node in ast.walk(info.tree):
            if isinstance(node, ast.For) and isinstance(
                node.iter, (ast.Set, ast.SetComp)
            ):
                yield info.finding(
                    "NDT001",
                    node.lineno,
                    "iterating a set literal has hash-seed-dependent "
                    "order; iterate a tuple/list or sorted(...) so "
                    "downstream results keep one canonical order",
                )


# --------------------------------------------------------------------------
# PKL001 — backend-boundary picklability.
# --------------------------------------------------------------------------

#: ``fn``-first call sites that hand the callable to an executor
#: backend (the process pool pickles it).
_BOUNDARY_METHODS = {"submit", "map_shards"}
_BOUNDARY_CLASSMETHODS = {"for_cells", "for_batches"}

#: Constructors whose instances never pickle; capturing one in a
#: closure that crosses a boundary is wrong in every dispatch mode.
_UNPICKLABLE_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "open",
    "socket.socket",
    "sqlite3.connect",
}


def _boundary_fn_args(tree: ast.Module) -> Iterator[Tuple[ast.Call, ast.AST]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _BOUNDARY_METHODS | _BOUNDARY_CLASSMETHODS
        ):
            yield node, node.args[0]


def _function_parents(
    tree: ast.Module,
) -> Dict[ast.AST, Optional[ast.AST]]:
    """Function-def node -> innermost enclosing function def (or None)."""
    parents: Dict[ast.AST, Optional[ast.AST]] = {}

    def visit(node: ast.AST, enclosing: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parents[child] = enclosing
                visit(child, child)
            else:
                visit(child, enclosing)

    visit(tree, None)
    return parents


def check_boundary_picklability(context: AnalysisContext) -> Iterator[Finding]:
    for info in context.modules:
        aliases = import_aliases(info.tree)
        parents = _function_parents(info.tree)
        # name -> nested defs carrying it, and per-function suspicious
        # local bindings (name -> factory dotted origin)
        nested_defs: Dict[str, List[ast.AST]] = {}
        for def_node, parent in parents.items():
            if parent is not None:
                nested_defs.setdefault(def_node.name, []).append(def_node)
        suspicious: Dict[str, str] = {}
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                origin = dotted_name(node.value.func, aliases)
                if origin in _UNPICKLABLE_FACTORIES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            suspicious[target.id] = origin

        for call, fn_arg in _boundary_fn_args(info.tree):
            if isinstance(fn_arg, ast.Lambda):
                yield info.finding(
                    "PKL001",
                    call.lineno,
                    "a lambda handed to a backend boundary cannot be "
                    "pickled for process dispatch; pass a "
                    "module-level function (cells are documented as "
                    "module-level callables)",
                )
                continue
            if not isinstance(fn_arg, ast.Name):
                continue
            for def_node in nested_defs.get(fn_arg.id, ()):
                captured = sorted(
                    name
                    for name in suspicious
                    if any(
                        isinstance(ref, ast.Name)
                        and ref.id == name
                        and isinstance(ref.ctx, ast.Load)
                        for ref in ast.walk(def_node)
                    )
                )
                if captured:
                    yield info.finding(
                        "PKL001",
                        call.lineno,
                        f"{fn_arg.id}() closes over unpicklable state "
                        f"({', '.join(captured)} = "
                        f"{', '.join(suspicious[c] for c in captured)}"
                        "()); nothing crossing a backend boundary may "
                        "capture locks, open files, sockets, or "
                        "connections",
                    )


# --------------------------------------------------------------------------
# FPR001 — fingerprint completeness for fingerprinted config dataclasses.
# --------------------------------------------------------------------------

_FINGERPRINTED_RE = re.compile(
    r"#\s*repro:\s*fingerprinted\[([A-Za-z_][A-Za-z_0-9]*)\]"
)
_NON_TRAJECTORY_RE = re.compile(r"#\s*repro:\s*non-trajectory\[([^\]]*)\]")


def _marker_on(info: ModuleInfo, lineno: int) -> Optional[str]:
    if 1 <= lineno <= len(info.lines):
        match = _FINGERPRINTED_RE.search(info.lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _non_trajectory_reason(info: ModuleInfo, lineno: int) -> Optional[str]:
    """The ``non-trajectory`` reason on a field's line or the line above."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(info.lines):
            match = _NON_TRAJECTORY_RE.search(info.lines[candidate - 1])
            if match:
                return match.group(1).strip()
    return None


def _declared_fields(
    info: ModuleInfo, declaration: str
) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """(line, names) of ``DECLARATION = ("field", ...)`` at module level."""
    for node in info.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == declaration
            and isinstance(node.value, (ast.Tuple, ast.List))
        ):
            names = []
            for element in node.value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            return node.lineno, tuple(names)
    return None


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return (
        isinstance(target, ast.Name) and target.id == "ClassVar"
    ) or (
        isinstance(target, ast.Attribute) and target.attr == "ClassVar"
    )


def check_fingerprint_completeness(
    context: AnalysisContext,
) -> Iterator[Finding]:
    for info in context.modules:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            declaration = _marker_on(info, node.lineno)
            if declaration is None:
                continue
            declared = _declared_fields(info, declaration)
            if declared is None:
                yield info.finding(
                    "FPR001",
                    node.lineno,
                    f"fingerprinted config {node.name} names "
                    f"{declaration}, but the module has no "
                    f"{declaration} = (\"field\", ...) tuple of string "
                    "field names at module level",
                )
                continue
            decl_line, declared_names = declared
            fields: List[Tuple[str, int]] = []
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_")
                    and not _is_classvar(stmt.annotation)
                ):
                    fields.append((stmt.target.id, stmt.lineno))
            field_names = {name for name, _line in fields}
            for name, line in fields:
                in_declaration = name in declared_names
                reason = _non_trajectory_reason(info, line)
                if in_declaration and reason is not None:
                    yield info.finding(
                        "FPR001",
                        line,
                        f"field {name} of {node.name} is both in "
                        f"{declaration} and annotated non-trajectory; "
                        "a knob either shapes the search trajectory or "
                        "it does not — pick one",
                    )
                elif not in_declaration and reason is None:
                    yield info.finding(
                        "FPR001",
                        line,
                        f"field {name} of fingerprinted config "
                        f"{node.name} is neither listed in "
                        f"{declaration} (so it never reaches the "
                        "trajectory fingerprint — two runs that differ "
                        "in it would share one) nor annotated "
                        "'# repro: non-trajectory[reason]'",
                    )
                elif not in_declaration and reason == "":
                    yield info.finding(
                        "FPR001",
                        line,
                        f"field {name} of {node.name}: the "
                        "non-trajectory annotation must carry a "
                        "reason, e.g. '# repro: non-trajectory["
                        "execution policy, bit-identical results]'",
                    )
            for name in declared_names:
                if name not in field_names:
                    yield info.finding(
                        "FPR001",
                        decl_line,
                        f"{declaration} lists {name!r}, which is not a "
                        f"field of {node.name} — deleting or renaming "
                        "a fingerprinted knob must update the "
                        "trajectory declaration (the fingerprint then "
                        "changes, as intended)",
                    )


# --------------------------------------------------------------------------
# KRN001 — kernel-tier parity.
# --------------------------------------------------------------------------

#: The full kernel set every non-reference tier must implement, with
#: the positional arity of each kernel callable (see
#: :class:`repro.engine.kernels.KernelImpl`).
_KERNEL_SET = {"simulate_tables": 2, "sweep_ge": 2, "lut_tile": 4}
_KERNEL_META = {"name", "version"}


def check_kernel_parity(context: AnalysisContext) -> Iterator[Finding]:
    for info in context.modules:
        aliases = import_aliases(info.tree)
        defs: Dict[str, ast.AST] = {
            node.name: node
            for node in ast.walk(info.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = dotted_name(node.func, aliases)
            if origin is None or origin.split(".")[-1] != "KernelImpl":
                continue
            if node.args:
                yield info.finding(
                    "KRN001",
                    node.lineno,
                    "KernelImpl fields must be passed by keyword so "
                    "tier parity stays statically checkable",
                )
            provided: Set[str] = set()
            for keyword in node.keywords:
                if keyword.arg is None:
                    yield info.finding(
                        "KRN001",
                        node.lineno,
                        "KernelImpl(**kwargs) hides the kernel set "
                        "from the parity check; pass fields explicitly",
                    )
                    provided = set()
                    break
                if keyword.arg in _KERNEL_SET:
                    provided.add(keyword.arg)
                elif keyword.arg not in _KERNEL_META:
                    yield info.finding(
                        "KRN001",
                        node.lineno,
                        f"KernelImpl has no kernel field "
                        f"{keyword.arg!r}; known kernels: "
                        f"{sorted(_KERNEL_SET)}",
                    )
            if provided and provided != set(_KERNEL_SET):
                missing = sorted(set(_KERNEL_SET) - provided)
                yield info.finding(
                    "KRN001",
                    node.lineno,
                    f"kernel tier implements {sorted(provided)} but "
                    f"not {missing}: every tier must implement the "
                    "full kernel set, or callers silently fall to "
                    "numpy mid-pipeline and benchmark tiers stop "
                    "being comparable",
                )
            for keyword in node.keywords:
                if keyword.arg in _KERNEL_SET and isinstance(
                    keyword.value, ast.Name
                ):
                    target = defs.get(keyword.value.id)
                    if target is None:
                        continue
                    arity = len(target.args.posonlyargs) + len(
                        target.args.args
                    )
                    expected = _KERNEL_SET[keyword.arg]
                    if arity != expected:
                        yield info.finding(
                            "KRN001",
                            target.lineno,
                            f"kernel {keyword.arg} takes {arity} "
                            f"positional argument(s), the reference "
                            f"signature takes {expected}; mismatched "
                            "tiers cannot be swapped bit-identically",
                        )


# --------------------------------------------------------------------------
# SUP001 — suppression hygiene.
# --------------------------------------------------------------------------


def check_suppression_hygiene(context: AnalysisContext) -> Iterator[Finding]:
    for info in context.modules:
        for line, problem in info.bad_suppressions:
            yield info.finding("SUP001", line, problem)


# --------------------------------------------------------------------------
# Registration (import side effect, mirroring the kernel-tier registry).
# --------------------------------------------------------------------------

_BUILTIN_RULES: Sequence[Tuple[str, object, str, str]] = (
    (
        "RNG001",
        check_rng_discipline,
        "error",
        "no ambient random.* / numpy.random.* state; thread seeded "
        "Generator objects",
    ),
    (
        "NDT001",
        check_nondeterminism,
        "error",
        "no wall-clock, urandom, uuid, or set-iteration values in "
        "result paths",
    ),
    (
        "PKL001",
        check_boundary_picklability,
        "error",
        "callables crossing submit/map_shards/ExecutionPlan boundaries "
        "must be picklable (no lambdas, no captured locks/files)",
    ),
    (
        "FPR001",
        check_fingerprint_completeness,
        "error",
        "every field of a fingerprinted config dataclass is declared "
        "trajectory or annotated non-trajectory",
    ),
    (
        "KRN001",
        check_kernel_parity,
        "error",
        "every compiled kernel tier implements the full kernel set "
        "with reference signatures",
    ),
    (
        "SUP001",
        check_suppression_hygiene,
        "error",
        "every '# repro: noqa' suppression names known rule codes",
    ),
)


def register_builtin_rules() -> None:
    """Register the built-in rules (idempotent)."""
    from repro.analysis.core import rule_codes

    registered = set(rule_codes())
    for code, checker, severity, description in _BUILTIN_RULES:
        if code not in registered:
            register_rule(code, checker, severity, description)


register_builtin_rules()
