"""The shipped ruleset — importing this package registers every rule.

File rules (run per module, possibly in parallel workers):

* RL001 pool discipline, RL003 span re-arm
  (:mod:`tools.reprolint.checks.concurrency`);
* RL004 hot-path numpy (:mod:`tools.reprolint.checks.hotpath`);
* RL005 exception taxonomy (:mod:`tools.reprolint.checks.taxonomy`);
* RL006 wall-clock discipline (:mod:`tools.reprolint.checks.wallclock`);
* RL007 mutable defaults (:mod:`tools.reprolint.checks.generic`);
* RL009 atomic durable writes
  (:mod:`tools.reprolint.checks.durability`).

Project rules (run once over the merged summaries):

* RL008 dead public symbols (:mod:`tools.reprolint.checks.generic`);
* RL101 docstring coverage, RL102 doc links
  (:mod:`tools.reprolint.checks.docs`);
* RL203 pickle-boundary safety and the worker-global registry — the
  whole-program rule (:mod:`tools.reprolint.checks.program_concurrency`),
  which runs against the call-graph index in
  :mod:`tools.reprolint.program`;
* RL302 commit ordering, RL304 hot-path dtype flow, RL305 static shape
  compatibility — the flow-sensitive dataflow rules
  (:mod:`tools.reprolint.checks.dataflow_rules`), which run over
  per-function CFGs (:mod:`tools.reprolint.dataflow`); RL302 reads its
  call shapes from :mod:`tools.reprolint.protocols`.
"""

from tools.reprolint.checks import (  # noqa: F401  (import = registration)
    concurrency,
    dataflow_rules,
    docs,
    durability,
    generic,
    hotpath,
    program_concurrency,
    taxonomy,
    wallclock,
)
