"""replint engine: file collection, suppressions, rule dispatch.

The linter proves the repo's cost-model invariants *statically* (see
:mod:`repro.lint.rules` for the rule catalogue).  This module owns the
mechanics shared by every rule:

* **file model** — each ``.py`` file is parsed once into a
  :class:`SourceFile` carrying its dotted module name (``src/repro/x/y.py``
  becomes ``repro.x.y``; ``tests/foo.py`` becomes ``tests.foo``), its AST,
  and its suppression comments;
* **escape hatch** — ``# replint: disable=<rule>[,<rule>...] -- <why>``
  suppresses matching findings on its own line (trailing comment) or the
  line below (standalone comment).  The justification text after ``--`` is
  *required*: a disable without one does not suppress and is itself
  reported as ``bad-suppression``, so the tree can never go green on the
  back of an unexplained opt-out;
* **fixtures** — a leading ``# replint-fixture-module: <dotted>`` comment
  overrides the derived module name so golden-test fixtures can impersonate
  hot-path modules without living in them.  A directory walk skips
  ``lint_fixtures/`` (its bad fixtures are linted by their golden tests);
  a fixture named explicitly is linted like any other file.

Rule scopes and the allowlist are constants in :mod:`repro.lint.rules`, so
a run's verdict depends only on the paths it is given, never on the
working directory.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: rule ids reserved by the engine itself (not in the registry)
ENGINE_RULES = ("parse-error", "bad-suppression")

_DISABLE_RE = re.compile(
    r"#\s*replint:\s*disable=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s+--\s*(?P<why>\S.*))?"
)
_FIXTURE_MODULE_RE = re.compile(r"#\s*replint-fixture-module:\s*(?P<module>[\w.]+)")
#: directory a walk never enters: golden-test fixtures that fail on purpose
FIXTURE_DIR = "lint_fixtures"


@dataclass(slots=True, frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: ``module`` or ``module:qualname`` — what allowlist entries match against
    context: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(slots=True, frozen=True)
class Suppression:
    """A parsed ``# replint: disable=...`` comment."""

    line: int
    rules: tuple[str, ...]
    justified: bool
    #: comment-only line: the suppression covers the *next* line instead
    standalone: bool

    def covers(self, line: int) -> bool:
        return line == (self.line + 1 if self.standalone else self.line)


@dataclass(slots=True)
class SourceFile:
    """A parsed source file plus everything rules need to know about it."""

    path: Path
    module: str
    text: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    def display_path(self) -> str:
        return str(self.path)


@dataclass(slots=True)
class Project:
    """The full set of files a lint run sees (rules may walk across files)."""

    files: list[SourceFile]

    def in_modules(self, prefixes: tuple[str, ...]) -> list[SourceFile]:
        return [f for f in self.files if module_matches(f.module, prefixes)]


def module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def derive_module(path: Path) -> str:
    """``src/repro/dist/routing.py`` -> ``repro.dist.routing`` (and so on
    for ``tests/``/``benchmarks/`` trees, wherever the repo root sits)."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("src", "tests", "benchmarks"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            parts = parts[idx + 1 :] if anchor == "src" else parts[idx:]
            break
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def scan_suppressions(text: str) -> list[Suppression]:
    """Parse disable comments from *real* comment tokens (a disable spelled
    inside a string literal — e.g. a linter test's test data — is not a
    suppression)."""
    out: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _DISABLE_RE.search(tok.string)
        if not m:
            continue
        lineno, col = tok.start
        rules = tuple(r.strip() for r in m.group("rules").split(","))
        why = m.group("why")
        standalone = tok.line[:col].strip() == ""
        out.append(
            Suppression(
                line=lineno,
                rules=rules,
                justified=bool(why and why.strip()),
                standalone=standalone,
            )
        )
    return out


def parse_file(path: Path) -> SourceFile | Finding:
    text = path.read_text(encoding="utf-8")
    module = derive_module(path)
    head = "\n".join(text.splitlines()[:5])
    fixture = _FIXTURE_MODULE_RE.search(head)
    if fixture:
        module = fixture.group("module")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule="parse-error",
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"could not parse: {exc.msg}",
            context=module,
        )
    return SourceFile(
        path=path,
        module=module,
        text=text,
        tree=tree,
        suppressions=scan_suppressions(text),
    )


def collect_paths(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    A directory walk skips everything under a ``lint_fixtures`` directory;
    a file named explicitly is always collected."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = [
                c for c in sorted(p.rglob("*.py")) if FIXTURE_DIR not in c.relative_to(p).parts
            ]
        else:
            candidates = [p]
        for c in candidates:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


# ---------------------------------------------------------------------------
# the run


def lint_paths(paths: list[str]) -> list[Finding]:
    """Lint ``paths`` and return the surviving findings, sorted by location.

    Pipeline: collect -> parse -> run every registered rule -> drop
    allowlisted findings -> apply justified suppressions -> append a
    ``bad-suppression`` finding for every disable comment that names an
    unknown rule or lacks a ``-- <why>`` justification.
    """
    from repro.lint.rules import RULES, allowed

    files: list[SourceFile] = []
    findings: list[Finding] = []
    for path in collect_paths(paths):
        parsed = parse_file(path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            files.append(parsed)

    project = Project(files)
    for rule in RULES.values():
        findings.extend(rule.check(project))

    findings = [f for f in findings if not allowed(f)]

    known = set(RULES) | set(ENGINE_RULES)
    by_path = {f.display_path(): f for f in files}
    kept: list[Finding] = []
    for finding in findings:
        src = by_path.get(finding.path)
        sup = None
        if src is not None:
            for s in src.suppressions:
                if finding.rule in s.rules and s.covers(finding.line):
                    sup = s
                    break
        if sup is not None and sup.justified:
            continue
        kept.append(finding)

    for src in files:
        for s in src.suppressions:
            unknown = sorted(set(s.rules) - known)
            if unknown:
                kept.append(
                    Finding(
                        rule="bad-suppression",
                        path=src.display_path(),
                        line=s.line,
                        col=0,
                        message=f"disable names unknown rule(s): {', '.join(unknown)}",
                        context=src.module,
                    )
                )
            if not s.justified:
                kept.append(
                    Finding(
                        rule="bad-suppression",
                        path=src.display_path(),
                        line=s.line,
                        col=0,
                        message=(
                            "suppression has no justification: write "
                            "'# replint: disable=<rule> -- <why>'"
                        ),
                        context=src.module,
                    )
                )

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def run_lint(paths: list[str], list_rules: bool = False) -> int:
    """CLI entry point: print findings, return a shell exit status."""
    from repro.lint.rules import RULES

    if list_rules:
        width = max(len(r) for r in RULES)
        for rule_id, rule in RULES.items():
            print(f"{rule_id:<{width}}  {rule.summary}")
        return 0
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"replint: {len(findings)} finding(s)")
        return 1
    print("replint: clean")
    return 0
