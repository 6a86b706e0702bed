"""reprolint rule fixtures: every rule fires on the bad shape, stays
quiet on the repaired shape, and respects both suppression layers.

Each test builds a miniature repo under ``tmp_path`` (the rules are
path-sensitive: ``src/`` scoping, the classifier allowlist, hot-path
directories) and runs the real driver with ``--select`` narrowed to
the rule under test so fixtures never trip neighbouring rules.
"""

from __future__ import annotations

import ast
import json
import pathlib
import textwrap

import pytest

from tools import type_coverage
from tools.reprolint.baseline import Baseline, write_baseline
from tools.reprolint.checks._astutil import import_map, resolve_call_name
from tools.reprolint.context import LintConfig
from tools.reprolint.findings import Finding, apply_inline, inline_disables
from tools.reprolint.registry import all_rules
from tools.reprolint.runner import main as reprolint_main
from tools.reprolint.runner import run


def lint(
    root,
    files,
    inputs=("src",),
    *,
    select=None,
    config=None,
    use_baseline=False,
    baseline_path=None,
):
    """Write the fixture tree and run the real driver over it."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    findings, meta = run(
        root,
        list(inputs),
        config=config,
        select=frozenset(select) if select else None,
        use_baseline=use_baseline,
        baseline_path=baseline_path,
        jobs=1,
    )
    return findings, meta


def active(findings):
    return [f for f in findings if f.active]


# ---------------------------------------------------------------- RL001


POOL_FIXTURE = """\
    import multiprocessing

    def build():
        return multiprocessing.Pool(4)
    """


def test_rl001_fires_on_raw_pool_in_src(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/util/pools.py": POOL_FIXTURE},
        select={"RL001"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL001"
    assert finding.path == "src/repro/util/pools.py"
    assert finding.line == 4
    assert "multiprocessing.Pool" in finding.message


def test_rl001_fires_on_executor_and_context_pool(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/exec.py": """\
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            def build():
                ctx = mp.get_context("spawn")
                return ProcessPoolExecutor(2), ctx.Pool(2)
            """,
        },
        select={"RL001"},
    )
    assert len(active(findings)) == 2


def test_rl001_quiet_in_allowlisted_file_and_outside_src(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/classifier.py": POOL_FIXTURE,
            "tools/helper.py": POOL_FIXTURE,
        },
        inputs=("src", "tools"),
        select={"RL001"},
    )
    assert active(findings) == []


def test_rl001_inline_disable_records_suppression(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/pools.py": """\
            import multiprocessing

            def build():
                return multiprocessing.Pool(4)  # reprolint: disable=RL001
            """,
        },
        select={"RL001"},
    )
    (finding,) = findings
    assert finding.suppressed == "inline"
    assert not finding.active


# ---------------------------------------------------------------- RL003


RL003_BAD = """\
    from repro.obs.trace import current_tracer

    def _worker(item):
        tracer = current_tracer()
        return item

    def fan_out(ctx, items):
        with ctx.Pool(2) as pool:
            return pool.map(_worker, items)
    """


def test_rl003_fires_when_tracing_worker_has_no_initializer(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/util/traced.py": RL003_BAD},
        select={"RL003"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL003"
    assert "_worker" in finding.message
    assert "enable_tracing" in finding.message


def test_rl003_quiet_when_initializer_rearms(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/traced.py": """\
            from repro.obs.trace import current_tracer, enable_tracing

            def _init(enabled):
                enable_tracing(enabled)

            def _worker(item):
                tracer = current_tracer()
                return item

            def fan_out(ctx, items):
                with ctx.Pool(2, initializer=_init, initargs=(True,)) as pool:
                    return pool.map(_worker, items)
            """,
        },
        select={"RL003"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL004


RL004_BAD = """\
    import numpy as np

    def build(values):
        widened = np.zeros(4)
        copied = values.astype(copy=False)
        boxed = np.asarray(values, dtype=object)
        out = []
        for item in widened:
            out.append(item)
        return widened, copied, boxed, out
    """


def test_rl004_fires_on_hot_path_dtype_indiscipline(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/core/hot.py": RL004_BAD},
        select={"RL004"},
    )
    messages = [f.message for f in active(findings)]
    assert len(messages) == 4
    assert any("np.zeros()" in m for m in messages)
    assert any(".astype()" in m for m in messages)
    assert any("dtype=object" in m for m in messages)
    assert any("list-append loop" in m for m in messages)


def test_rl004_quiet_outside_hot_path_and_when_repaired(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/io/cold.py": RL004_BAD,
            "src/repro/core/hot.py": """\
            import numpy as np

            def build(values):
                widened = np.zeros(4, dtype=np.float64)
                copied = values.astype(np.int64, copy=False)
                packed = np.asarray(values, dtype=np.uint32)
                return widened, copied, packed, widened.tolist()
            """,
        },
        select={"RL004"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL005


def test_rl005_fires_on_bare_except_raise_exception_and_rogue_class(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/errors.py": """\
            class CustomError(Exception):
                pass

            def f():
                try:
                    return 1
                except:
                    raise Exception("boom")
            """,
        },
        select={"RL005"},
    )
    messages = sorted(f.message for f in active(findings))
    assert len(messages) == 3
    assert any("bare except" in m for m in messages)
    assert any("raise Exception" in m for m in messages)
    assert any("CustomError" in m for m in messages)


def test_rl005_quiet_when_taxonomy_is_used(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/errors.py": """\
            from repro.errors import ReproError

            class CustomError(ReproError):
                pass

            class DerivedError(CustomError):
                pass

            def f():
                try:
                    return 1
                except ValueError:
                    raise DerivedError("boom")
            """,
        },
        select={"RL005"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL006


def test_rl006_fires_on_wallclock_in_core(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/timing.py": """\
            import time

            def stamp():
                return time.time()
            """,
        },
        select={"RL006"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL006"
    assert "time.time() in core/" in finding.message


def test_rl006_fires_only_in_worker_closure_outside_core(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/traffic/gen.py": """\
            import time

            def _worker(item):
                return time.time()

            def supervisor():
                return time.time()

            def fan_out(pool, items):
                return pool.map(_worker, items)
            """,
        },
        select={"RL006"},
    )
    (finding,) = active(findings)
    assert "in a pool worker" in finding.message


def test_rl006_quiet_for_monotonic_timers(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/timing.py": """\
            import time

            def stamp():
                return time.perf_counter()
            """,
        },
        select={"RL006"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL007


def test_rl007_fires_on_mutable_defaults(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/defaults.py": """\
            def f(items=[], *, lookup=dict()):
                return items, lookup
            """,
        },
        select={"RL007"},
    )
    assert len(active(findings)) == 2


def test_rl007_quiet_with_none_sentinel(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/defaults.py": """\
            def f(items=None, *, lookup=None):
                return items or [], lookup or {}
            """,
        },
        select={"RL007"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL008


def test_rl008_fires_on_unreferenced_public_symbol(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/analysis/extra.py": """\
            def orphan_helper():
                return 1
            """,
        },
        select={"RL008"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL008"
    assert "orphan_helper" in finding.message


def test_rl008_quiet_when_imported_elsewhere(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/analysis/extra.py": """\
            def orphan_helper():
                return 1
            """,
            "src/repro/analysis/user.py": """\
            from repro.analysis.extra import orphan_helper

            def _use():
                return orphan_helper()
            """,
        },
        select={"RL008"},
    )
    assert active(findings) == []


def test_rl008_quiet_when_markdown_corpus_mentions_symbol(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/analysis/extra.py": """\
            def orphan_helper():
                return 1
            """,
            "docs/API.md": "Call `orphan_helper` to do the thing.\n",
        },
        select={"RL008"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL009


def test_rl009_fires_on_truncating_writes_in_durable_dir(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/bad.py": """\
            import json
            import pathlib

            def save_cursor(path, cursor):
                with open(path, "w") as handle:
                    json.dump(cursor, handle)

            def save_blob(path, blob):
                pathlib.Path(path).write_bytes(blob)
            """,
        },
        select={"RL009"},
    )
    fired = active(findings)
    assert [f.rule for f in fired] == ["RL009", "RL009"]
    assert "open(..., 'w')" in fired[0].message
    assert "atomic_write_bytes" in fired[0].message
    assert ".write_bytes()" in fired[1].message


def test_rl009_quiet_for_appends_and_inline_dance(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/good.py": """\
            import os

            from repro.util.atomicio import atomic_write_bytes

            def append_record(path, record):
                with open(path, "ab") as handle:
                    handle.write(record)
                    os.fsync(handle.fileno())

            def save_checkpoint(path, blob):
                atomic_write_bytes(path, blob)

            def low_level_dance(path, blob):
                tmp = str(path) + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """,
        },
        select={"RL009"},
    )
    assert active(findings) == []


def test_rl009_quiet_outside_durable_dirs(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/io/export.py": """\
            def export(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
        },
        select={"RL009"},
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL101


def test_rl101_fires_below_docstring_threshold(tmp_path):
    config = LintConfig(docstring_packages=("src/repro/bare",))
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/bare/__init__.py": """\
            def alpha():
                return 1

            def beta():
                return 2
            """,
        },
        select={"RL101"},
        config=config,
    )
    (finding,) = active(findings)
    assert finding.rule == "RL101"
    assert finding.path == "src/repro/bare/__init__.py"
    assert "docstring coverage" in finding.message
    assert "src/repro/bare/__init__.py::alpha" in finding.message
    assert "src/repro/bare/__init__.py::beta" in finding.message


def test_rl101_quiet_when_documented(tmp_path):
    config = LintConfig(docstring_packages=("src/repro/bare",))
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/bare/__init__.py": '''\
            """Package docstring."""

            def alpha():
                """Documented."""
                return 1
            ''',
        },
        select={"RL101"},
        config=config,
    )
    assert active(findings) == []


# ---------------------------------------------------------------- RL102


def test_rl102_fires_on_broken_markdown_reference(tmp_path):
    (tmp_path / "README.md").write_text("# Title\n")
    findings, _ = lint(
        tmp_path,
        {
            "docs/GUIDE.md": textwrap.dedent(
                """\
                # Guide

                See [the readme](../README.md) and [nothing](missing.md).
                """
            ),
        },
        inputs=("docs",),
        select={"RL102"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL102"
    assert finding.path == "docs/GUIDE.md"
    assert finding.line == 3
    assert "missing.md" in finding.message
    assert "[link]" in finding.message


def test_rl102_quiet_when_references_resolve(tmp_path):
    (tmp_path / "README.md").write_text("# Title\n")
    findings, _ = lint(
        tmp_path,
        {
            "docs/GUIDE.md": "# Guide\n\nSee [the readme](../README.md).\n",
        },
        inputs=("docs",),
        select={"RL102"},
    )
    assert active(findings) == []


def test_rl102_tags_each_broken_reference_category(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "docs/GUIDE.md": textwrap.dedent(
                """\
                # Guide

                [gone](missing.md), [nowhere](#no-such-heading) and
                `src/repro/no_such_module.py`.
                """
            ),
        },
        inputs=("docs",),
        select={"RL102"},
    )
    tags = sorted(f.message.rsplit(" ", 1)[1] for f in active(findings))
    assert tags == ["[anchor]", "[code-ref]", "[link]"]


def test_rl102_checks_only_markdown_among_the_inputs(tmp_path):
    """A root ``.md`` that is not a lint input (a scratch note) may
    name files that no longer exist."""
    (tmp_path / "NOTES.md").write_text(
        "# Notes\n\nDelete `tools/gone_gate.py`.\n"
    )
    findings, meta = lint(
        tmp_path,
        {"docs/GUIDE.md": "# Guide\n"},
        inputs=("docs",),
        select={"RL102"},
    )
    assert active(findings) == []
    assert meta["markdown_scanned"] == 1

    findings, _ = lint(
        tmp_path, {}, inputs=("docs", "NOTES.md"), select={"RL102"}
    )
    (finding,) = active(findings)
    assert finding.path == "NOTES.md"
    assert "tools/gone_gate.py" in finding.message


# ------------------------------------------------------- parse failures


def test_rl000_reports_syntax_errors(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/util/broken.py": "def f(:\n    pass\n"},
    )
    assert [f.rule for f in active(findings)] == ["RL000"]


# ------------------------------------------------------------- baseline


def test_baseline_suppresses_by_code_even_after_line_drift(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "RL007",
                        "path": "src/repro/util/defaults.py",
                        "line": 999,
                        "code": "def f(items=[]):",
                        "justification": "fixture keeps the defect",
                    }
                ],
            }
        )
    )
    findings, meta = lint(
        tmp_path,
        {
            "src/repro/util/defaults.py": """\
            # a comment that shifts every line number


            def f(items=[]):
                return items
            """,
        },
        select={"RL007"},
        use_baseline=True,
        baseline_path=baseline_path,
    )
    (finding,) = findings
    assert finding.suppressed == "baseline"
    assert finding.justification == "fixture keeps the defect"
    assert meta["stale_baseline"] == []


def test_stale_baseline_entries_are_reported(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "RL007",
                        "path": "src/repro/util/gone.py",
                        "code": "def f(items=[]):",
                        "justification": "file was deleted",
                    }
                ],
            }
        )
    )
    findings, meta = lint(
        tmp_path,
        {"src/repro/util/clean.py": "def f(items=None):\n    return items\n"},
        select={"RL007"},
        use_baseline=True,
        baseline_path=baseline_path,
    )
    assert active(findings) == []
    assert len(meta["stale_baseline"]) == 1
    assert meta["stale_baseline"][0]["path"] == "src/repro/util/gone.py"


def test_write_baseline_round_trip_silences_the_run(tmp_path):
    files = {
        "src/repro/util/defaults.py": "def f(items=[]):\n    return items\n"
    }
    findings, meta = lint(tmp_path, files, select={"RL007"})
    assert len(active(findings)) == 1

    baseline_path = tmp_path / "baseline.json"
    count = write_baseline(baseline_path, findings, meta["lines_of"])
    assert count == 1
    entry = json.loads(baseline_path.read_text())["entries"][0]
    assert entry["code"] == "def f(items=[]):"
    assert entry["justification"] == "TODO: justify or fix"

    findings, _ = lint(
        tmp_path,
        files,
        select={"RL007"},
        use_baseline=True,
        baseline_path=baseline_path,
    )
    assert active(findings) == []


def test_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError, match="unsupported baseline version"):
        Baseline.load(bad)


# ------------------------------------------------- inline-disable parsing


def test_inline_disable_parses_lists_and_all():
    lines = [
        "x = 1  # reprolint: disable=RL001,RL004",
        "y = 2",
        "z = 3  # reprolint: disable=all",
    ]
    disabled = inline_disables(lines)
    assert disabled == {1: {"RL001", "RL004"}, 3: {"all"}}

    findings = [
        Finding("m.py", 1, 1, "RL004", "a"),
        Finding("m.py", 2, 1, "RL004", "b"),
        Finding("m.py", 3, 1, "RL008", "c"),
    ]
    marked = apply_inline(findings, disabled)
    assert [f.suppressed for f in marked] == ["inline", None, "inline"]


# --------------------------------------------------------------- driver


def test_main_exit_codes_and_json_artifact(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "util"
    src.mkdir(parents=True)
    (src / "defaults.py").write_text("def f(items=[]):\n    return items\n")
    report_path = tmp_path / "report.json"

    rc = reprolint_main(
        [
            "src",
            "--root",
            str(tmp_path),
            "--select",
            "RL007",
            "--jobs",
            "1",
            "--json-out",
            str(report_path),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "src/repro/util/defaults.py:1:" in out
    report = json.loads(report_path.read_text())
    assert report["active"] == 1
    assert report["findings"][0]["rule"] == "RL007"

    (src / "defaults.py").write_text("def f(items=None):\n    return items\n")
    rc = reprolint_main(
        ["src", "--root", str(tmp_path), "--select", "RL007", "--jobs", "1"]
    )
    assert rc == 0

    rc = reprolint_main(["no/such/dir", "--root", str(tmp_path)])
    assert rc == 2


def test_rule_inventory_is_complete():
    rules = {rule for rule, _ in all_rules()}
    assert rules == {
        "RL001",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
        "RL009",
        "RL101",
        "RL102",
        "RL203",
        "RL302",
        "RL304",
        "RL305",
    }


def test_resolve_call_name_traces_context_pools():
    tree = ast.parse(
        "import multiprocessing as mp\n"
        'pool = mp.get_context("fork").Pool(2)\n'
    )
    imports = import_map(tree)
    call = tree.body[1].value
    assert (
        resolve_call_name(call.func, imports)
        == "multiprocessing.get_context().Pool"
    )


# ------------------------------------------------ annotation floor


def test_type_coverage_counts_and_gates(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        textwrap.dedent(
            """\
            def typed(x: int) -> int:
                return x

            def untyped(x):
                return x
            """
        )
    )
    tally = type_coverage.audit_module(module)
    assert (tally.annotated, tally.total) == (2, 4)
    assert any("untyped(x)" in slot for slot in tally.missing)

    assert type_coverage.main([str(module), "--require", "100"]) == 3
    assert type_coverage.main([str(module), "--require", "50"]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert type_coverage.main([str(empty)]) == 2


# --------------------------------------------- RL203: program rule


def test_rl203_fires_on_lambda_and_local_def_submits(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/app.py": """\
            import multiprocessing

            def run():
                def helper(row):
                    return row

                with multiprocessing.get_context("spawn").Pool(2) as pool:
                    pool.apply_async(lambda row: row, args=(1,))
                    pool.apply_async(helper, args=(2,))
            """
        },
        select=["RL203"],
    )
    messages = sorted(f.message for f in active(findings))
    assert len(messages) == 2
    assert "helper is defined inside run()" in messages[0]
    assert "lambda" in messages[1]


def test_rl203_fires_on_unregistered_cross_module_global(tmp_path):
    files = {
        "src/app.py": """\
        import multiprocessing

        from work import worker

        def run():
            with multiprocessing.get_context("spawn").Pool(2) as pool:
                pool.apply_async(worker, args=(1,))
        """,
        "src/work.py": """\
        CACHE = {}

        def _rearm(snapshot):
            global CACHE
            CACHE = snapshot

        def worker(row):
            return CACHE.get(row)
        """,
    }
    findings, _ = lint(tmp_path, files, select=["RL203"])
    assert [f.rule for f in active(findings)] == ["RL203"]
    finding = active(findings)[0]
    assert finding.path == "src/app.py"
    assert "CACHE" in finding.message

    files["src/work.py"] = textwrap.dedent(files["src/work.py"]).replace(
        "CACHE = {}", 'CACHE = {}\n\n_STREAM_GLOBALS = ("CACHE",)'
    )
    findings, _ = lint(tmp_path, files, select=["RL203"])
    assert active(findings) == []


#: A worker reading a ``global``-rebound module global of its own
#: module, submitted from that module.
SAME_MODULE_WORKER = """\
    _CACHE = None

    def _worker(item):
        return (_CACHE, item)

    def fan_out(pool, items):
        global _CACHE
        _CACHE = {}
        return pool.imap(_worker, items)
    """


def test_rl203_fires_on_same_module_worker_without_registry(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/util/stream.py": SAME_MODULE_WORKER},
        select={"RL203"},
    )
    (finding,) = active(findings)
    assert finding.rule == "RL203"
    assert "_CACHE" in finding.message
    assert "defines no _STREAM_GLOBALS" in finding.message
    assert "pool initializer must set" in finding.message


def test_rl203_quiet_when_same_module_global_registered(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/stream.py": '_STREAM_GLOBALS = ("_CACHE",)\n'
            + textwrap.dedent(SAME_MODULE_WORKER),
        },
        select={"RL203"},
    )
    assert active(findings) == []


def test_rl203_fires_when_same_module_registry_incomplete(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/util/stream.py": '_STREAM_GLOBALS = ("_OTHER",)\n'
            + textwrap.dedent(SAME_MODULE_WORKER),
        },
        select={"RL203"},
    )
    (finding,) = active(findings)
    assert "not listed in repro.util.stream's _STREAM_GLOBALS" in (
        finding.message
    )


def test_rl203_fires_on_same_module_worker_reaching_foreign_global(
    tmp_path,
):
    """The worker lives beside the submit, but its call tree reads an
    unregistered global of another module."""
    files = {
        "src/app.py": """\
        import multiprocessing

        from state import lookup

        def _worker(row):
            return lookup(row)

        def run():
            with multiprocessing.get_context("spawn").Pool(2) as pool:
                pool.apply_async(_worker, args=(1,))
        """,
        "src/state.py": """\
        TABLE = {}

        def load(snapshot):
            global TABLE
            TABLE = snapshot

        def lookup(row):
            return TABLE.get(row)
        """,
    }
    findings, _ = lint(tmp_path, files, select=["RL203"])
    (finding,) = active(findings)
    assert finding.path == "src/app.py"
    assert "_worker reaches lookup() in state" in finding.message
    assert "TABLE" in finding.message


# --------------------------------------------- RL3xx: dataflow rules


COMMIT_NO_FSYNC = """\
    import os

    def commit(tmp, path):
        os.replace(tmp, path)
    """

DTYPE_ROUNDTRIP = """\
    import numpy as np

    def totals(labels, counts):
        acc = np.bincount(labels, weights=counts)
        return acc.astype(np.int64)
    """

SHAPE_MISMATCH = """\
    import numpy as np

    def stitch():
        a = np.zeros((4, 3))
        b = np.zeros((5, 2))
        return np.concatenate([a, b], axis=0)
    """

#: rule → (fixture files, the line that hosts the finding) — shared by
#: the fires, pragma and baseline round-trip tests below.
RL3XX_FIRES = {
    "RL302": (
        {"src/repro/stream/durable/writer.py": COMMIT_NO_FSYNC},
        "os.replace(tmp, path)",
    ),
    "RL304": (
        {"src/repro/core/kernel.py": DTYPE_ROUNDTRIP},
        "return acc.astype(np.int64)",
    ),
    "RL305": (
        {"src/repro/core/kernel.py": SHAPE_MISMATCH},
        "return np.concatenate([a, b], axis=0)",
    ),
}


def test_rl302_fires_on_rename_without_fsync_in_durable_scope(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/stream/durable/writer.py": COMMIT_NO_FSYNC},
        select=["RL302"],
    )
    assert [f.rule for f in active(findings)] == ["RL302"]
    assert "os.replace" in active(findings)[0].message


def test_rl302_quiet_with_fsync_direct_or_via_callee(tmp_path):
    """A helper whose call tree fsyncs grants the fsync effect at its
    call site."""
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/writer.py": """\
            import os

            def _sync(fd):
                os.fsync(fd)

            def commit_direct(tmp, path, fd):
                os.fsync(fd)
                os.replace(tmp, path)

            def commit_via_helper(tmp, path, fd):
                _sync(fd)
                os.replace(tmp, path)
            """
        },
        select=["RL302"],
    )
    assert active(findings) == []


def test_rl302_quiet_outside_durable_scope(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/app.py": """\
            import os

            def shuffle(tmp, path):
                os.replace(tmp, path)
            """
        },
        select=["RL302"],
    )
    assert active(findings) == []


def test_rl302_fires_on_partially_synced_branch(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/writer.py": """\
            import os

            def commit(tmp, path, fd, fast):
                if fast:
                    pass
                else:
                    os.fsync(fd)
                os.replace(tmp, path)
            """
        },
        select=["RL302"],
    )
    assert [f.rule for f in active(findings)] == ["RL302"]
    assert "rename reachable without" in active(findings)[0].message


def test_rl302_fires_on_checkpoint_outrunning_log(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/writer.py": """\
            def persist(wal, store, event):
                wal.append(event)
                store.save(event)
            """
        },
        select=["RL302"],
    )
    assert [f.rule for f in active(findings)] == ["RL302"]
    assert "checkpoint" in active(findings)[0].message


def test_rl302_quiet_when_all_paths_sync_or_are_exempt(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/stream/durable/writer.py": """\
            import os

            def commit(tmp, path, fd, durable):
                if durable:
                    os.fsync(fd)
                    os.replace(tmp, path)
                    return
                os.replace(tmp, path)

            def persist(wal, store, event):
                wal.append(event)
                wal.sync()
                store.save(event)
            """
        },
        select=["RL302"],
    )
    assert active(findings) == []


def test_rl304_fires_on_float64_roundtrip_of_integer_data(tmp_path):
    findings, _ = lint(
        tmp_path,
        {"src/repro/core/kernel.py": DTYPE_ROUNDTRIP},
        select=["RL304"],
    )
    assert [f.rule for f in active(findings)] == ["RL304"]
    assert "float64 temporary" in active(findings)[0].message


def test_rl304_fires_on_float32_mix_and_chained_mask_gather(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/kernel.py": """\
            import numpy as np

            def mix(n):
                small = np.zeros(4, dtype=np.float32)
                big = np.zeros(4)
                return small * big

            def gather(ends, idx):
                valid = idx >= 0
                return ends[idx][valid]
            """
        },
        select=["RL304"],
    )
    messages = sorted(f.message for f in active(findings))
    assert len(messages) == 2
    assert "chained fancy indexing" in messages[0]
    assert "float32 operand silently upcast" in messages[1]


def test_rl304_quiet_when_repaired_and_outside_scope(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/kernel.py": """\
            import numpy as np

            def totals(labels, counts):
                acc = np.zeros(8, dtype=np.int64)
                np.add.at(acc, labels, counts)
                return acc

            def gather(ends, idx):
                valid = idx >= 0
                return ends[idx[valid]]
            """,
            # Same defect outside the dtype scope: not policed.
            "src/app.py": DTYPE_ROUNDTRIP,
        },
        select=["RL304"],
    )
    assert active(findings) == []


def test_rl305_fires_on_concat_and_matmul_mismatch(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/kernel.py": """\
            import numpy as np

            def stitch():
                a = np.zeros((4, 3))
                b = np.zeros((5, 2))
                return np.concatenate([a, b], axis=0)

            def project():
                m = np.zeros((4, 3))
                v = np.zeros((5, 2))
                return m @ v
            """
        },
        select=["RL305"],
    )
    messages = sorted(f.message for f in active(findings))
    assert len(messages) == 2
    assert "matmul inner dimensions disagree: 3 vs 5" in messages[0]
    assert "operands disagree on dimension 1: 3 vs 2" in messages[1]


def test_rl305_quiet_on_compatible_and_symbolic_shapes(tmp_path):
    findings, _ = lint(
        tmp_path,
        {
            "src/repro/core/kernel.py": """\
            import numpy as np

            def stitch(n):
                a = np.zeros((n, 3))
                b = np.zeros((n, 3))
                return np.concatenate([a, b], axis=0)

            def project():
                m = np.zeros((4, 3))
                v = np.zeros((3, 2))
                return m @ v
            """
        },
        select=["RL305"],
    )
    assert active(findings) == []


@pytest.mark.parametrize("rule", sorted(RL3XX_FIRES))
def test_rl3xx_inline_disable_records_suppression(tmp_path, rule):
    files, bad_line = RL3XX_FIRES[rule]
    patched = {
        rel: text.replace(
            bad_line, f"{bad_line}  # reprolint: disable={rule}"
        )
        for rel, text in files.items()
    }
    findings, _ = lint(tmp_path, patched, select=[rule])
    assert active(findings) == []
    assert [f.rule for f in findings if f.suppressed] == [rule]


@pytest.mark.parametrize("rule", sorted(RL3XX_FIRES))
def test_rl3xx_baseline_round_trip(tmp_path, rule):
    files, _bad_line = RL3XX_FIRES[rule]
    findings, meta = lint(tmp_path, files, select=[rule])
    assert len(active(findings)) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings, meta["lines_of"])
    findings, meta = lint(
        tmp_path,
        files,
        select=[rule],
        use_baseline=True,
        baseline_path=baseline_path,
    )
    assert active(findings) == []
    assert [f.rule for f in findings if f.suppressed == "baseline"] == [rule]
    assert meta["stale_baseline"] == []


def test_protocol_digest_changes_the_cache_key(tmp_path, monkeypatch):
    """Editing a protocol machine must invalidate cached findings the
    same way editing LintConfig does."""
    from tools.reprolint import cache as cache_mod

    cache_path = tmp_path / "cache.json"
    source = tmp_path / "src" / "repro" / "stream" / "durable" / "writer.py"
    source.parent.mkdir(parents=True)
    source.write_text(textwrap.dedent(COMMIT_NO_FSYNC))

    run(
        tmp_path, ["src"], select=frozenset({"RL302"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    _, meta = run(
        tmp_path, ["src"], select=frozenset({"RL302"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert meta["cache"]["hits"] >= 1

    monkeypatch.setattr(
        cache_mod, "protocols_digest", lambda: "edited-protocol-table"
    )
    _, meta = run(
        tmp_path, ["src"], select=frozenset({"RL302"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert meta["cache"]["hits"] == 0


def test_stale_baseline_fails_run_and_prune_recovers(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "util"
    src.mkdir(parents=True)
    (src / "defaults.py").write_text("def f(items=[]):\n    return items\n")
    baseline = tmp_path / "baseline.json"
    args = [
        "src", "--root", str(tmp_path), "--select", "RL007",
        "--jobs", "1", "--baseline", str(baseline),
    ]
    assert reprolint_main([*args, "--write-baseline"]) == 0
    assert reprolint_main(args) == 0

    # Fixing the defect leaves the entry stale: the run must fail
    # until the baseline is pruned back to reality.
    (src / "defaults.py").write_text("def f(items=None):\n    return items\n")
    assert reprolint_main(args) == 1
    out = capsys.readouterr().out
    assert "stale baseline entry" in out
    assert "--prune-baseline" in out

    assert reprolint_main([*args, "--prune-baseline"]) == 0
    assert json.loads(baseline.read_text())["entries"] == []
    assert reprolint_main(args) == 0


def test_prune_baseline_rejects_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit):
        reprolint_main(
            [
                "src", "--root", str(tmp_path),
                "--prune-baseline", "--no-baseline",
            ]
        )


# --------------------------------------------- incremental mode


def test_cache_warm_run_reuses_results(tmp_path):
    files = {"src/repro/util/stream.py": SAME_MODULE_WORKER}
    cache_path = tmp_path / "cache.json"
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    findings, meta = run(
        tmp_path, ["src"], config=None, select=frozenset({"RL203"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert [f.rule for f in active(findings)] == ["RL203"]
    assert meta["cache"]["hits"] == 0

    findings, meta = run(
        tmp_path, ["src"], config=None, select=frozenset({"RL203"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert [f.rule for f in active(findings)] == ["RL203"]
    assert meta["cache"]["misses"] == 0
    assert meta["cache"]["hits"] >= 1
    assert meta["cache"]["program_hit"] is True
    assert meta["timing"]["files_analyzed"] == 0


def test_cache_invalidates_on_edit_and_select_change(tmp_path):
    cache_path = tmp_path / "cache.json"
    source = tmp_path / "src" / "repro" / "util" / "stream.py"
    source.parent.mkdir(parents=True)
    source.write_text(textwrap.dedent(SAME_MODULE_WORKER))

    run(
        tmp_path, ["src"], config=None, select=frozenset({"RL203"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    source.write_text(textwrap.dedent(SAME_MODULE_WORKER) + "\n# trailing\n")
    _, meta = run(
        tmp_path, ["src"], config=None, select=frozenset({"RL203"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert meta["cache"]["misses"] == 1
    # A different --select is a different config digest: cold again.
    _, meta = run(
        tmp_path, ["src"], config=None, select=frozenset({"RL302"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=cache_path,
    )
    assert meta["cache"]["hits"] == 0


def _git(root, *argv):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=root, check=True, capture_output=True,
    )


def test_changed_only_scans_the_dependency_cone(tmp_path):
    files = {
        "src/base.py": "VALUE = 1\n",
        "src/mid.py": "from base import VALUE\n\nDOUBLE = VALUE * 2\n",
        "src/leaf.py": "ANSWER = 42\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")

    (tmp_path / "src/base.py").write_text("VALUE = 2\n")
    _, meta = run(
        tmp_path, ["src"], config=None, select=frozenset({"RL203"}),
        use_baseline=False, baseline_path=None, jobs=1,
        cache_path=tmp_path / "cache.json", changed_only=True,
    )
    # base.py changed; mid.py imports it (reverse cone); leaf.py is
    # untouched and must not be scanned.
    assert meta["timing"]["changed_only"] is True
    assert meta["timing"]["files_analyzed"] == 2


# --------------------------------------------- composite gate driver


def test_all_gates_composite_exit_and_json(tmp_path, capsys):
    source = tmp_path / "src" / "app.py"
    source.parent.mkdir(parents=True)
    source.write_text('"""Documented module."""\n\nVALUE = 1\n')
    out = tmp_path / "report.json"
    code = reprolint_main(
        [
            "--root", str(tmp_path), "--all-gates",
            "--json-out", str(out), "src",
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    names = [gate["name"] for gate in report["gates"]]
    assert names == ["reprolint", "mypy", "type-coverage"]
    assert all(
        gate["status"] in ("ok", "skipped") for gate in report["gates"]
    )
    assert report["timing"]["files_analyzed"] == 1


def test_all_gates_fails_when_lint_fails(tmp_path, capsys):
    source = tmp_path / "src" / "repro" / "util" / "stream.py"
    source.parent.mkdir(parents=True)
    source.write_text(textwrap.dedent(SAME_MODULE_WORKER))
    code = reprolint_main(
        ["--root", str(tmp_path), "--all-gates", "--select", "RL203", "src"]
    )
    capsys.readouterr()
    assert code == 1
