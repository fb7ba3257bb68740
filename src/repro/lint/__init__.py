"""repro.lint — ``replint``, the repo-aware static-analysis pass.

The cost model's exactness rests on invariants that no general-purpose
linter knows about: every data movement is charged, hot paths never
gather to a global frame, virtual-time layers never read the host clock,
golden streams stay reproducible.  ``python -m repro lint`` proves them
at lint time:

* :mod:`repro.lint.engine` — file collection, module naming, the
  ``# replint: disable=<rule> -- <why>`` escape hatch (justification
  required) and rule dispatch;
* :mod:`repro.lint.rules` — the rule catalogue (no-global-gather,
  charge-soundness, slots-required, rng-discipline, int32-accumulation,
  backend-discipline), each rule's module scope and the allowlist.
"""

from repro.lint.engine import Finding, Project, SourceFile, lint_paths, run_lint
from repro.lint.rules import RULES, Rule

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "RULES",
    "SourceFile",
    "lint_paths",
    "run_lint",
]
