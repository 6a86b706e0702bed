"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``study``   — build a world and print the full measurement study
  (every table/figure as text), like the paper's evaluation sections.
* ``table1``  — build a world and print just Table 1.
* ``survey``  — tabulate the Section 2.2 operator survey.
* ``cones``   — print the Figure 2 valid-space percentiles.
* ``acl``     — emit a per-peer ingress filter list for one member.
* ``classify`` — classify a flow-table file (``.npz`` or CSV) through
  the resilient streaming pipeline: ``--policy`` picks the failure
  policy (fail_fast/retry/degrade), ``--on-error quarantine`` loads
  dirty CSVs leniently and reports the quarantined records. Exits 3
  when ``--policy degrade`` had to drop rows (partial result).
* ``watch``   — daemon mode: replay the world's BGP updates and
  sampled flows as one interleaved, timestamp-ordered event stream and
  classify each tumbling window online. Route deltas patch the RIB and
  the packed validity matrices in place (no per-event rebuild);
  ``--window-manifests DIR`` writes one run manifest per window.
  With ``--checkpoint-dir DIR`` the watch runs *durably*: every event
  is written ahead to a checksummed WAL and the online state is
  checkpointed atomically every ``--checkpoint-every`` windows, so a
  killed daemon restarted with ``--resume`` replays only the WAL
  suffix and re-emits each window exactly once. SIGTERM (and ctrl-C)
  drain cleanly: in-flight manifests are flushed whole, never
  truncated. Exits 4 when ``--resume`` finds checkpoints but none
  survives verification (unrecoverable corruption).
* ``trace show <manifest>`` — render a recorded run manifest back as
  a span/metrics report.

Every world-building command also takes the observability flags:
``--stats`` (print the run's span table), ``--trace`` (write a run
manifest with the spans), ``--metrics-out FILE`` (export the metrics
registry as JSON lines) and ``--manifest-out FILE`` (write the run
manifest; implied by ``--trace`` and ``--metrics-out``). Spans are the only timing
ledger, so any of them turns tracing on. See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import pathlib
import signal
import sys

import numpy as np

from repro.analysis.fig2_cone_sizes import compute_cone_size_curves
from repro.analysis.report import build_study_report
from repro.analysis.table1 import compute_table1
from repro.bgp.rib import GlobalRIB
from repro.core import TrafficClass, build_ingress_acl, evaluate_acl
from repro.core.classifier import DEFAULT_CHUNK_ROWS
from repro.errors import (
    CheckpointCorruptionError,
    IngestError,
    Quarantine,
    WalCorruptionError,
)
from repro.experiments import WorldConfig, build_world
from repro.experiments.runner import build_valid_space_maps
from repro.io import load_flows_csv, load_flows_npz
from repro.obs import (
    RunManifest,
    current_metrics,
    current_tracer,
    enable_tracing,
    manifest_path_for,
    peak_rss_bytes,
    render_spans,
)
from repro.stream import (
    DurableWatch,
    OnlineClassifier,
    OnlineValidState,
    flow_events,
    merge_event_streams,
    recover,
    route_events,
    update_stream,
)
from repro.survey import generate_survey_responses, tabulate

_PRESETS = ("tiny", "small", "default", "paper_scale")


def _add_preset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=_PRESETS,
        default="small",
        help="world size preset (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="world seed (default: 42)"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="also print the run's span timings (rows/sec per span)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record tracing spans and write a run manifest",
    )
    parser.add_argument(
        "--metrics-out",
        dest="metrics_out",
        default=None,
        metavar="FILE",
        help="export the metrics registry as JSON lines to FILE",
    )
    parser.add_argument(
        "--manifest-out",
        dest="manifest_out",
        default=None,
        metavar="FILE",
        help="write the run manifest to FILE (default: next to the "
        "input for `classify`, repro_<command>.manifest.json otherwise)",
    )


def _positive_int(text: str) -> int:
    """argparse type: an integer greater than zero."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _obs_wanted(args: argparse.Namespace) -> bool:
    """Whether any observability output was requested for this run."""
    return bool(
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "manifest_out", None)
    )


def _timed(args: argparse.Namespace) -> bool:
    """Whether this run records spans: for ``--stats`` or any manifest."""
    return bool(
        getattr(args, "stats", False)
        or getattr(args, "window_manifests", None)
        or _obs_wanted(args)
    )


def _obs_begin(args: argparse.Namespace, command: str) -> RunManifest | None:
    """Arm tracing/metrics; open a manifest when one is requested."""
    if not _timed(args):
        return None
    current_metrics().clear()
    current_tracer().drain()
    enable_tracing()
    if not _obs_wanted(args):
        return None
    preset = getattr(args, "preset", None)
    config = None
    if preset is not None:
        config = dataclasses.asdict(
            getattr(WorldConfig, preset)(seed=args.seed)
        )
    return RunManifest.create(
        command,
        argv=getattr(args, "_argv", None),
        seed=getattr(args, "seed", None),
        preset=preset,
        config=config,
    )


def _obs_finish(
    args: argparse.Namespace,
    manifest: RunManifest | None,
    *,
    result=None,
    extra_spans=(),
    exit_code: int = 0,
    complete: bool = True,
    default_path: str | pathlib.Path | None = None,
) -> None:
    """Print ``--stats``; seal and write the manifest + metrics.

    ``result`` is the run's classification result (its ``counters()``
    land in the manifest); ``extra_spans`` are span records a streamed
    run carried out of the ambient tracer.
    """
    if not _timed(args):
        return
    spans = current_tracer().drain() + list(extra_spans)
    if args.stats:
        print()
        print(render_spans(spans))
    if manifest is None:
        return
    registry = current_metrics()
    registry.gauge("peak_rss_bytes").set(peak_rss_bytes())
    if args.metrics_out:
        registry.export_jsonl(args.metrics_out)
    manifest.finish(
        spans=spans,
        metrics=registry,
        exit_code=exit_code,
        complete=complete,
        extra=result.counters() if result is not None else None,
    )
    path = args.manifest_out or default_path
    if path is None:
        path = f"repro_{manifest.data['command']}.manifest.json"
    manifest.write(path)
    print(f"run manifest: {path}", file=sys.stderr)


def _build(args: argparse.Namespace, with_traffic: bool = True):
    config = getattr(WorldConfig, args.preset)(seed=args.seed)
    return build_world(config, with_traffic=with_traffic)


def _cmd_study(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "study")
    world = _build(args)
    report = build_study_report(world)
    print(report.render())
    _obs_finish(args, manifest, result=world.result)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "table1")
    world = _build(args)
    print(compute_table1(world.result, world.ixp.sampling_rate).render())
    _obs_finish(args, manifest, result=world.result)
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    results = tabulate(generate_survey_responses(rng, n=args.responses))
    print(results.render())
    return 0


def _cmd_cones(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "cones")
    world = _build(args, with_traffic=False)
    names = ("naive", "cc", "cc+orgs", "full", "full+orgs")
    asns = world.rib.indexer.asns()
    if len(asns) > args.sample:
        rng = np.random.default_rng(args.seed)
        picked = sorted(rng.choice(len(asns), args.sample, replace=False))
        asns = [asns[i] for i in picked]
    curves = compute_cone_size_curves(
        {name: world.approaches[name] for name in names}, asns
    )
    print(curves.render())
    _obs_finish(args, manifest)
    return 0


def _cmd_acl(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "acl")
    world = _build(args)
    peer = args.peer
    if peer is None:
        peer = int(world.ixp.member_asns[0])
    if peer not in world.ixp.members:
        print(f"AS{peer} is not an IXP member in this world", file=sys.stderr)
        _obs_finish(args, manifest, exit_code=2, complete=False)
        return 2
    acl = build_ingress_acl(world.approaches[args.approach], peer)
    report = evaluate_acl(acl, peer, world.scenario.flows)
    print(f"# ingress whitelist for AS{peer} ({args.approach})")
    for prefix in acl.prefixes():
        print(prefix)
    print(f"# {report.render()}", file=sys.stderr)
    _obs_finish(args, manifest, result=world.result)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "classify")
    path = pathlib.Path(args.flows)
    default_path = manifest_path_for(path)
    quarantine = None
    try:
        if path.suffix == ".npz":
            flows = load_flows_npz(path)
        else:
            if args.on_error == "quarantine":
                quarantine = Quarantine(source=str(path))
            flows = load_flows_csv(
                path, on_error=args.on_error, quarantine=quarantine
            )
    except (OSError, IngestError) as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        # Next to the input only if there is a directory to write into.
        _obs_finish(
            args,
            manifest,
            exit_code=2,
            complete=False,
            default_path=default_path if path.parent.is_dir() else None,
        )
        return 2
    if quarantine:
        print(quarantine.render(), file=sys.stderr)
    if manifest is not None:
        manifest.add_input("flows", path)

    world = _build(args, with_traffic=False)
    stream = world.classifier.classify_stream(
        flows,
        n_workers=args.workers,
        chunk_rows=args.chunk_rows,
        policy=args.policy,
    )
    print(
        f"classified {stream.n_flows} flows in {stream.n_chunks} chunk(s)"
    )
    header = f"{'approach':<14}" + "".join(
        f"{cls.name.lower():>10}" for cls in TrafficClass
    )
    print(header)
    for name in stream.approaches:
        counts = stream.class_counts(name)
        print(
            f"{name:<14}"
            + "".join(f"{counts[cls]:>10}" for cls in TrafficClass)
        )
    if stream.failures:
        print(stream.failures.render(), file=sys.stderr)
    exit_code = 0
    if not stream.complete:
        print(
            f"WARNING: partial result — {stream.failures.rows_dropped} "
            "rows dropped",
            file=sys.stderr,
        )
        exit_code = 3
    _obs_finish(
        args,
        manifest,
        result=stream,
        extra_spans=stream.spans,
        exit_code=exit_code,
        complete=stream.complete,
        default_path=default_path,
    )
    return exit_code


def _cmd_watch(args: argparse.Namespace) -> int:
    manifest = _obs_begin(args, "watch")
    config = getattr(WorldConfig, args.preset)(seed=args.seed)
    world = build_world(
        config, with_traffic=True, classify=False, keep_observations=True
    )
    observations = world.extras["observations"]
    dumps = [obs for obs in observations if not obs.from_update]
    updates = update_stream(observations)

    durable = args.checkpoint_dir is not None
    resume_point = None
    if args.resume:
        if not durable:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        try:
            resume_point = recover(args.checkpoint_dir)
        except CheckpointCorruptionError as exc:
            print(f"unrecoverable checkpoint state: {exc}", file=sys.stderr)
            return 4
        except WalCorruptionError as exc:
            print(f"unrecoverable WAL state: {exc}", file=sys.stderr)
            return 4

    if resume_point is not None and resume_point.checkpoint is not None:
        # Resume from the verified checkpoint; the WAL suffix replays
        # through the daemon before any live event is consumed.
        state = resume_point.checkpoint.state
        print(
            f"resuming from {resume_point.checkpoint.path.name}: "
            f"window cursor {resume_point.emitted_through}, "
            f"{resume_point.replay_events} WAL events to replay"
        )
    else:
        # Warm-start a fresh RIB from the table dumps only; the
        # updates replay live through the delta path below.
        rib = GlobalRIB()
        rib.add_all(dumps)
        approaches = build_valid_space_maps(rib, world.as2org)
        state = OnlineValidState(rib, approaches)

    events = merge_event_streams(
        route_events(updates),
        flow_events(
            world.scenario.flows,
            chunk_rows=args.chunk_rows,
            window_seconds=args.window_seconds,
        ),
    )
    watch: DurableWatch | None = None
    if durable:
        watch = DurableWatch(
            state,
            args.window_seconds,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            n_workers=args.workers,
            policy=args.policy,
            manifest_dir=args.window_manifests,
            resume=resume_point,
        )
        window_source = watch.run(events)
    else:
        online = OnlineClassifier(
            state,
            args.window_seconds,
            n_workers=args.workers,
            policy=args.policy,
            manifest_dir=args.window_manifests,
        )
        window_source = online.run(events)
    print(
        f"watching: {len(dumps)} dump routes warm, {len(updates)} update "
        f"events + {len(world.scenario.flows)} flows live, "
        f"{args.window_seconds}s windows"
        + (f", durable in {args.checkpoint_dir}" if durable else "")
    )
    header = (
        f"{'window':>8} {'routes':>7} {'applied':>8} {'patched':>8} "
        f"{'rebuilt':>8} {'chunks':>7} {'flows':>9}"
    )
    print(header)
    windows = window_source
    if args.windows is not None:
        windows = itertools.islice(windows, args.windows)
    n_windows = 0
    n_flows = 0
    window_spans = []
    incomplete = False
    interrupted = False

    def _drain(_signum: int, _frame: object) -> None:
        # SIGTERM/ctrl-C = stop cleanly: no async exception (which
        # could land between the daemon's cursor write and our print,
        # silently eating one emitted window) — just flag the drain
        # and let the loop finish at the current window boundary.
        nonlocal interrupted
        interrupted = True
        if watch is not None:
            watch.request_drain()

    previous_term = signal.signal(signal.SIGTERM, _drain)
    previous_int = signal.signal(signal.SIGINT, _drain)
    try:
        for window in windows:
            n_windows += 1
            n_flows += window.n_flows
            window_spans.extend(window.result.spans)
            incomplete = incomplete or not window.result.complete
            print(
                f"{window.index:>8} {window.n_route_events:>7} "
                f"{window.n_deltas_applied:>8} {window.n_patched:>8} "
                f"{window.n_rebuilds:>8} {window.n_chunks:>7} "
                f"{window.n_flows:>9}"
            )
            if interrupted and watch is None:
                break  # in-memory mode: stop at the window boundary
        if interrupted:
            # Per-window manifests were written atomically before
            # each yield, so everything emitted so far is intact on
            # disk; a durable watch checkpointed its last boundary.
            print("interrupted: drained cleanly at a window boundary")
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        window_source.close()
    print(
        f"watched {n_windows} window(s): {n_flows} flows, "
        f"{state.n_applied} route deltas applied "
        f"({state.n_patched} patched, {state.n_rebuilds} rebuilds), "
        f"{state.n_ignored} ignored"
    )
    exit_code = 3 if (incomplete or interrupted) else 0
    if incomplete:
        print("WARNING: at least one window is partial", file=sys.stderr)
    _obs_finish(
        args,
        manifest,
        extra_spans=window_spans,
        exit_code=exit_code,
        complete=not incomplete,
    )
    return exit_code


def _cmd_trace_show(args: argparse.Namespace) -> int:
    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    print(manifest.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Passive spoofed-traffic detection (IMC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="print the full measurement study")
    _add_preset(study)
    study.set_defaults(func=_cmd_study)

    table1 = sub.add_parser("table1", help="print Table 1")
    _add_preset(table1)
    table1.set_defaults(func=_cmd_table1)

    survey = sub.add_parser("survey", help="tabulate the operator survey")
    survey.add_argument("--responses", type=int, default=84)
    survey.add_argument("--seed", type=int, default=7)
    survey.set_defaults(func=_cmd_survey)

    cones = sub.add_parser("cones", help="print Figure 2 percentiles")
    _add_preset(cones)
    cones.add_argument("--sample", type=int, default=800)
    cones.set_defaults(func=_cmd_cones)

    acl = sub.add_parser("acl", help="emit a per-peer ingress whitelist")
    _add_preset(acl)
    acl.add_argument("--peer", type=int, default=None, help="member ASN")
    acl.add_argument(
        "--approach",
        default="full+orgs",
        choices=("naive", "cc", "full", "naive+orgs", "cc+orgs", "full+orgs"),
    )
    acl.set_defaults(func=_cmd_acl)

    classify = sub.add_parser(
        "classify",
        help="classify a flow-table file through the resilient "
        "streaming pipeline",
    )
    _add_preset(classify)
    classify.add_argument("flows", help="flow table (.npz or .csv)")
    classify.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: in-process streaming)",
    )
    classify.add_argument(
        "--policy",
        choices=("fail_fast", "retry", "degrade"),
        default=None,
        help="how the worker supervisor treats a failed chunk "
        "(default: fail_fast)",
    )
    classify.add_argument(
        "--on-error",
        dest="on_error",
        choices=("raise", "quarantine"),
        default="raise",
        help="CSV ingest mode: abort on the first bad row, or "
        "quarantine bad rows and keep loading",
    )
    classify.add_argument(
        "--chunk-rows",
        dest="chunk_rows",
        type=_positive_int,
        default=None,
        help=f"rows per streaming chunk (default: {DEFAULT_CHUNK_ROWS})",
    )
    classify.set_defaults(func=_cmd_classify)

    watch = sub.add_parser(
        "watch",
        help="daemon mode: classify interleaved route/flow events "
        "per tumbling window with incremental state patching",
    )
    _add_preset(watch)
    watch.add_argument(
        "--window-seconds",
        dest="window_seconds",
        type=int,
        default=86_400,
        help="tumbling window length in seconds (default: 1 day)",
    )
    watch.add_argument(
        "--windows",
        type=int,
        default=None,
        help="stop after this many windows (default: drain the stream)",
    )
    watch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size per window (default: in-process)",
    )
    watch.add_argument(
        "--policy",
        choices=("fail_fast", "retry", "degrade"),
        default=None,
        help="failure policy for the supervised parallel path "
        "(default: retry when --workers > 1)",
    )
    watch.add_argument(
        "--chunk-rows",
        dest="chunk_rows",
        type=_positive_int,
        default=DEFAULT_CHUNK_ROWS,
        help="max flow rows per chunk event",
    )
    watch.add_argument(
        "--window-manifests",
        dest="window_manifests",
        default=None,
        metavar="DIR",
        help="write one run manifest per window into DIR",
    )
    watch.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        default=None,
        metavar="DIR",
        help="durable mode: write-ahead log events and checkpoint the "
        "online state into DIR",
    )
    watch.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint the state every N emitted windows (default: 1)",
    )
    watch.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest verifiable checkpoint in "
        "--checkpoint-dir, replaying only the WAL suffix; exits 4 "
        "when checkpoints exist but none survives verification",
    )
    watch.set_defaults(func=_cmd_watch)

    trace_parser = sub.add_parser(
        "trace", help="inspect recorded run manifests"
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_show = trace_sub.add_parser(
        "show", help="render a run manifest as a stage/span/metrics report"
    )
    trace_show.add_argument("manifest", help="path to a *.manifest.json")
    trace_show.set_defaults(func=_cmd_trace_show)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `python -m repro study | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if _timed(args):
            enable_tracing(False)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
