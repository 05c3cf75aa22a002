"""The AST lint framework behind ``repro lint-invariants``.

This module is deliberately dependency-free (stdlib ``ast`` only), so
the checker runs on a bare interpreter — the CI ``analysis`` job does
not install numpy.  It provides:

* :class:`Finding` — one diagnostic, machine-renderable
  (``--format json``) and human-renderable;
* :func:`register_rule` — the rule registry, mirroring the
  :func:`repro.engine.kernels.register_kernel_tier` idiom: a rule is a
  ``(code, checker, severity)`` triple, duplicate codes raise, unknown
  severities are rejected;
* suppression parsing — ``# repro: noqa[CODE]`` as a trailing comment
  suppresses that rule on that line; on a comment-only line it
  suppresses the rule for the whole file.  A suppression *must* name
  rule codes — a bare ``# repro: noqa`` (or an unknown code) is itself
  a finding (``SUP001``), so the suppression inventory stays auditable;
* :func:`run_analysis` — parse a file set once into
  :class:`ModuleInfo` records, run every registered checker over the
  whole set (rules may be cross-file), apply suppressions, and return
  a deterministic :class:`AnalysisReport`.

The built-in invariant rules live in :mod:`repro.analysis.rules`; the
rule-code inventory and the contracts they enforce are documented in
the package docstring (:mod:`repro.analysis`) and PERF.md.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ReproError


class AnalysisError(ReproError):
    """The invariant checker was configured or invoked inconsistently."""


#: Valid rule severities.  ``error`` findings fail the run (exit 1);
#: ``warning`` findings are reported but gate only under ``--strict``.
SEVERITIES = ("error", "warning")

#: Rule codes match this shape (letters + three digits, e.g. RNG001).
_CODE_RE = re.compile(r"^[A-Z][A-Z0-9]{1,7}\d{3}$")

#: Suppression comments ("repro:" then "noqa[CODE,...]") — bracket
#: part optional so that a bare (invalid) suppression can be
#: diagnosed instead of silently ignored.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from one rule.

    Attributes:
        code: rule code (e.g. ``RNG001``).
        severity: ``error`` or ``warning``.
        path: file the finding is anchored in (as given to the run).
        line: 1-based line number.
        message: human-readable statement of the violated contract.
        suppressed: True when a ``# repro: noqa[code]`` covers it —
            suppressed findings stay in the report (JSON consumers and
            the summary count them) but never affect the exit code.
    """

    code: str
    severity: str
    path: str
    line: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}: {self.code} "
            f"{self.severity}: {self.message}{tag}"
        )


@dataclass(frozen=True)
class Rule:
    """One registered invariant rule."""

    code: str
    severity: str
    description: str
    checker: Callable[["AnalysisContext"], Iterable[Finding]]


@dataclass
class ModuleInfo:
    """One parsed source file plus its suppression tables."""

    path: str
    source: str
    lines: List[str]
    tree: ast.Module
    #: line number -> rule codes suppressed on that line
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule codes suppressed for the whole file
    file_suppressions: Set[str] = field(default_factory=set)
    #: (line, problem) pairs for malformed suppressions (feeds SUP001)
    bad_suppressions: List[Tuple[int, str]] = field(default_factory=list)

    def finding(self, code: str, line: int, message: str) -> Finding:
        """Build a finding anchored in this module (severity filled later)."""
        return Finding(
            code=code, severity="error", path=self.path,
            line=line, message=message,
        )


@dataclass
class AnalysisContext:
    """Everything a checker sees: the whole parsed file set."""

    modules: List[ModuleInfo]

    def module(self, suffix: str) -> Optional[ModuleInfo]:
        """The first module whose path ends with ``suffix`` (or None)."""
        for info in self.modules:
            if info.path.endswith(suffix):
                return info
        return None


@dataclass
class AnalysisReport:
    """Deterministic result of one :func:`run_analysis` call."""

    findings: List[Finding]
    files: int

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def counts(self) -> Dict[str, int]:
        active = self.unsuppressed
        return {
            "errors": sum(1 for f in active if f.severity == "error"),
            "warnings": sum(1 for f in active if f.severity == "warning"),
            "suppressed": len(self.findings) - len(active),
        }

    def exit_code(self, strict: bool = False) -> int:
        counts = self.counts()
        if counts["errors"] or (strict and counts["warnings"]):
            return 1
        return 0

    def to_json(self) -> str:
        counts = self.counts()
        payload = {
            "version": 1,
            "files": self.files,
            "errors": counts["errors"],
            "warnings": counts["warnings"],
            "suppressed": counts["suppressed"],
            "findings": [
                {
                    "code": f.code,
                    "severity": f.severity,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                    "suppressed": f.suppressed,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def render_human(self) -> str:
        out = [f.render() for f in self.findings]
        counts = self.counts()
        out.append(
            f"{len(self.unsuppressed)} finding(s) "
            f"({counts['errors']} error(s), {counts['warnings']} "
            f"warning(s)), {counts['suppressed']} suppressed, "
            f"{self.files} file(s) checked"
        )
        return "\n".join(out)


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

_RULES: Dict[str, Rule] = {}


def register_rule(
    code: str,
    checker: Callable[[AnalysisContext], Iterable[Finding]],
    severity: str = "error",
    description: str = "",
) -> None:
    """Register an invariant rule under a stable code.

    Mirrors ``register_kernel_tier`` — except that
    re-registering an existing code *raises* instead of replacing:
    rule codes appear in ``noqa`` suppressions across the tree, so two
    rules silently sharing a code would make every suppression of one
    also mute the other.

    Raises:
        AnalysisError: duplicate code, malformed code, or unknown
            severity.
    """
    if not _CODE_RE.match(code):
        raise AnalysisError(
            f"malformed rule code {code!r}; expected LETTERS+3 digits "
            "(e.g. RNG001)"
        )
    if severity not in SEVERITIES:
        raise AnalysisError(
            f"unknown severity {severity!r} for rule {code}; expected "
            f"one of {SEVERITIES}"
        )
    if code in _RULES:
        raise AnalysisError(
            f"rule code {code} is already registered "
            f"({_RULES[code].description!r}); codes appear in noqa "
            "suppressions and must stay unique"
        )
    _RULES[code] = Rule(
        code=code, severity=severity, description=description, checker=checker
    )


def unregister_rule(code: str) -> None:
    """Remove a rule (primarily for tests registering throwaways)."""
    _RULES.pop(code, None)


def rule_codes() -> Tuple[str, ...]:
    """Registered rule codes, sorted."""
    return tuple(sorted(_RULES))


def get_rule(code: str) -> Rule:
    """The registered rule for a code (raises on unknown)."""
    try:
        return _RULES[code]
    except KeyError:
        raise AnalysisError(f"unknown rule code {code!r}") from None


# --------------------------------------------------------------------------
# Suppression parsing.
# --------------------------------------------------------------------------


def _parse_suppressions(info: ModuleInfo) -> None:
    """Fill the module's suppression tables from its comments.

    Comments are read with :mod:`tokenize` (not a line regex), so a
    ``# repro: noqa[...]`` inside a string literal is data, not a
    suppression.  A suppression comment on a line of its own applies
    file-wide; trailing a statement it applies to that line only.
    """
    known = set(_RULES)
    try:
        tokens = tokenize.generate_tokens(StringIO(info.source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # tolerate odd but parseable sources
        comments = [
            (number, "#" + line.split("#", 1)[1])
            for number, line in enumerate(info.lines, start=1)
            if "#" in line
        ]
    for line_number, comment in comments:
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        raw = match.group(1)
        if raw is None or not raw.strip():
            info.bad_suppressions.append(
                (line_number,
                 "suppression must name rule codes: use "
                 "'# repro: noqa[CODE]', never a bare noqa")
            )
            continue
        codes = {code.strip() for code in raw.split(",") if code.strip()}
        unknown = sorted(code for code in codes if code not in known)
        if unknown:
            info.bad_suppressions.append(
                (line_number,
                 f"suppression names unknown rule code(s) "
                 f"{', '.join(unknown)}; known codes: "
                 f"{', '.join(rule_codes())}")
            )
            codes -= set(unknown)
        if not codes:
            continue
        stripped = info.lines[line_number - 1].strip()
        if stripped.startswith("#"):
            info.file_suppressions.update(codes)
        else:
            info.line_suppressions.setdefault(line_number, set()).update(codes)


# --------------------------------------------------------------------------
# File walking and the run itself.
# --------------------------------------------------------------------------


def _collect_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            files.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    # deterministic order, stable across duplicate path arguments
    unique: Dict[str, Path] = {}
    for candidate in files:
        unique.setdefault(str(candidate), candidate)
    return list(unique.values())


def _load_module(path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(
            f"{path}:{exc.lineno}: cannot parse: {exc.msg}"
        ) from exc
    return ModuleInfo(
        path=str(path), source=source, lines=source.splitlines(), tree=tree
    )


def run_analysis(
    paths: Iterable[str], codes: Optional[Iterable[str]] = None
) -> AnalysisReport:
    """Run (a subset of) the registered rules over a file set.

    Args:
        paths: files and/or directories (directories walk ``**/*.py``).
        codes: rule codes to run (default: every registered rule).

    Returns a report whose findings are sorted by (path, line, code);
    the analysis itself is deterministic — same tree, same report.
    """
    selected = rule_codes() if codes is None else tuple(codes)
    rules = [get_rule(code) for code in selected]
    modules = [_load_module(path) for path in _collect_files(paths)]
    for info in modules:
        _parse_suppressions(info)
    context = AnalysisContext(modules=modules)

    findings: List[Finding] = []
    for rule in rules:
        for raw in rule.checker(context):
            findings.append(
                Finding(
                    code=rule.code,
                    severity=rule.severity,
                    path=raw.path,
                    line=raw.line,
                    message=raw.message,
                )
            )

    by_path = {info.path: info for info in modules}
    resolved: List[Finding] = []
    for item in findings:
        info = by_path.get(item.path)
        suppressed = bool(
            info is not None
            and (
                item.code in info.file_suppressions
                or item.code in info.line_suppressions.get(item.line, set())
            )
        )
        resolved.append(
            Finding(
                code=item.code,
                severity=item.severity,
                path=item.path,
                line=item.line,
                message=item.message,
                suppressed=suppressed,
            )
        )
    resolved.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return AnalysisReport(findings=resolved, files=len(modules))


# --------------------------------------------------------------------------
# Shared AST helpers used by the rules.
# --------------------------------------------------------------------------


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in a module.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random as npr`` maps ``npr -> numpy.random``.  Rules use this to
    resolve attribute chains to canonical dotted names without
    executing anything.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``Name``/``Attribute`` chains to a dotted origin string.

    ``np.random.seed`` with ``np -> numpy`` resolves to
    ``numpy.random.seed``; unresolvable shapes (calls, subscripts)
    return ``None``.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


def walk_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/async-function definition in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
