"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — corpus programs and their stats;
* ``run PROGRAM``               — execute a corpus program;
* ``protect PROGRAM``           — protect and re-run it, print report;
* ``profile PROGRAM``           — per-function cycle attribution table;
* ``analyze PROGRAM``           — Fig. 6 protectability for one program;
* ``fig6``                      — the full Fig. 6 table;
* ``attack PROGRAM``            — static + Wurster tamper demo;
* ``coverage PROGRAM``          — protection-coverage map: annotated
  disassembly (or ``--json`` artifact) of which protected bytes each
  verification chain guards, single-point-of-failure bytes, and
  uncovered regions;
* ``protect-all``               — protect the whole corpus, optionally
  in parallel (``--jobs``) and cached on disk (``--cache-dir``);
* ``serve``                     — protection-as-a-service daemon:
  protect / verify / attack-matrix over HTTP with single-flight
  deduplication, a content-addressed response cache, a bounded job
  queue, one worker-pool submit per job, and ``/healthz`` (status,
  in-flight, queued and single-flight counts), ``/metrics`` (request
  counters and latency histograms) and ``/journal`` introspection;
* ``stats ARTIFACT...``         — human dashboard over any exported
  telemetry artifact (metrics JSON, Chrome trace, journal JSONL).

Observability: the heavier commands take four telemetry flags:
``--metrics FILE`` (metrics JSON), ``--trace FILE`` (spans as Chrome
trace-event JSON, loadable in Perfetto), ``--journal FILE``
(flight-recorder event JSONL) and ``--label KEY=VALUE`` (repeatable),
which runs the command under a labeled telemetry context.  ``-``
writes an export to stdout.  Exports run even when the command faults
— and from SIGTERM/SIGINT handlers when it is killed — so a dying run
still leaves its artifacts behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import telemetry
from .core import Parallax, ProtectConfig, STRATEGIES, protect_request
from .corpus import PROGRAM_NAMES, build_program
from .rewrite import RewriteEngine, format_fig6_table


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    from .emu import DEFAULT_ENGINE, ENGINE_DESCRIPTIONS, ENGINES

    parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE,
        help="execution engine: " + "; ".join(
            f"'{name}': {ENGINE_DESCRIPTIONS[name]}" for name in ENGINES
        ),
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="export a metrics JSON on exit ('-' for stdout)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="export spans as Chrome trace-event JSON on exit "
        "(loadable in Perfetto / chrome://tracing; '-' for stdout)",
    )
    parser.add_argument(
        "--journal", metavar="FILE", default=None,
        help="enable the flight recorder and export its event journal "
        "as JSONL on exit (written even if the command faults)",
    )
    parser.add_argument(
        "--label", action="append", default=None, metavar="KEY=VALUE",
        help="run under a labeled telemetry context; repeatable "
        "(e.g. --label request=r1 --label tenant=acme) — exported "
        "metrics and journal events carry the labels",
    )


def _export_telemetry(args, metrics, tracer) -> None:
    trace_path = getattr(args, "trace", None)
    if trace_path == "-":
        print(json.dumps(telemetry.chrome_trace(tracer.to_events())))
    elif trace_path is not None:
        telemetry.write_chrome_trace(tracer, trace_path)

    journal_path = getattr(args, "journal", None)
    if journal_path == "-":
        telemetry.get_recorder().dump(sys.stdout)
    elif journal_path is not None:
        telemetry.get_recorder().write_jsonl(journal_path)

    metrics_path = getattr(args, "metrics", None)
    if metrics_path == "-":
        print(metrics.to_json())
    elif metrics_path is not None:
        metrics.write_json(metrics_path)


def _parse_labels(pairs):
    labels = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--label expects KEY=VALUE, got {pair!r}")
        labels[key] = value
    return labels


def _install_signal_dumps(args, metrics, tracer):
    """Dump telemetry artifacts on SIGTERM/SIGINT, then die normally.

    A ``finally`` covers exceptions but not signals — SIGTERM kills the
    interpreter without unwinding, losing the journal exactly when it
    is most wanted.  The handler exports everything the flags asked
    for, restores the previous disposition and re-raises the signal so
    exit codes stay honest.  Returns a restore callback.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    previous = {}

    def handler(signum, _frame):
        try:
            _export_telemetry(args, metrics, tracer)
        finally:
            signal.signal(signum, previous.get(signum, signal.SIG_DFL))
            signal.raise_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):
            pass

    def restore():
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    return restore


@contextlib.contextmanager
def _telemetry_from_args(args):
    """Enable telemetry per the export flags and export on exit.

    Exports happen in a ``finally`` so a faulting command still leaves
    its artifacts behind, and additionally from SIGTERM/SIGINT handlers
    so a killed run does too.  ``--label KEY=VALUE`` wraps the command
    in a :class:`~repro.telemetry.TelemetryContext`, labeling every
    metric sample and journal event it produces.
    """
    want_metrics = getattr(args, "metrics", None) is not None
    want_tracing = getattr(args, "trace", None) is not None
    want_recorder = getattr(args, "journal", None) is not None
    labels = _parse_labels(getattr(args, "label", None))
    if not (want_metrics or want_tracing or want_recorder):
        yield
        return
    with telemetry.telemetry_session(
        metrics=want_metrics,
        tracing=want_tracing,
        recorder=want_recorder,
    ) as (metrics, tracer):
        restore_signals = _install_signal_dumps(args, metrics, tracer)
        try:
            if labels:
                with telemetry.TelemetryContext(labels):
                    yield
            else:
                yield
        finally:
            restore_signals()
            _export_telemetry(args, metrics, tracer)


def _cmd_list(_args) -> int:
    print(f"{'program':<8} {'functions':>10} {'code bytes':>11}")
    for name in PROGRAM_NAMES:
        program = build_program(name)
        print(f"{name:<8} {len(program.functions):>10} {program.code_size():>11}")
    return 0


def _cmd_run(args) -> int:
    program = build_program(args.program)
    result = program.run(debugger_attached=args.debugger, engine=args.engine)
    print(f"stdout : {result.stdout.decode(errors='replace')}")
    print(f"exit   : {result.exit_status}")
    print(f"steps  : {result.steps:,}   cycles: {result.cycles:,}")
    if result.crashed:
        print(f"FAULT  : {result.fault}")
        return 1
    return 0


def _cmd_protect(args) -> int:
    program = build_program(args.program)
    config = ProtectConfig(strategy=args.strategy, guard_chains=args.guard_chains)
    request = protect_request(program, config, engine=args.engine)
    report = request.protected.report
    divergence = request.divergence
    overhead = request.overhead_percent
    if args.json:
        payload = report.to_dict()
        payload["behaviour_preserved"] = divergence is None
        payload["divergence"] = divergence
        payload["overhead_percent"] = round(overhead, 4)
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary())
    if divergence is not None:
        if not args.json:
            print(f"ERROR: protected program diverged from baseline: {divergence}")
        return 1
    if not args.json:
        print(f"\nbehaviour preserved; whole-program overhead {overhead:.2f}%")
    return 0


def _cmd_profile(args) -> int:
    from .emu import profile_run

    program = build_program(args.program)
    result, profiler = profile_run(program.image, debugger_attached=args.debugger)
    print(profiler.report())
    print()
    print(profiler.hotspot_report())
    print(f"\ntotal: {result.steps:,} instructions, {result.cycles:,} cycles")
    if result.crashed:
        print(f"FAULT  : {result.fault}")
        return 1
    return 0


def _cmd_stats(args) -> int:
    status = 0
    for index, path in enumerate(args.artifacts):
        if index:
            print()
        try:
            kind, data = telemetry.load_artifact(path)
        except (OSError, ValueError, json.JSONDecodeError):
            kinds = ", ".join(telemetry.ARTIFACT_KINDS)
            print(
                f"{path}: not a recognized telemetry artifact "
                f"(expected one of: {kinds})",
                file=sys.stderr,
            )
            status = 2
            continue
        print(f"{path} [{kind}]")
        print(telemetry.render_stats(kind, data))
    return status


def _cmd_coverage(args) -> int:
    from .coverage import build_coverage, render_coverage
    from .telemetry.metrics import _ensure_parent_dir

    program = build_program(args.program)
    config = ProtectConfig(strategy=args.strategy, guard_chains=args.guard_chains)
    protected = Parallax(config).protect(program)
    coverage = build_coverage(protected.image, protected.report)
    payload = None
    if args.json or args.out:
        payload = json.dumps(coverage.to_dict(), indent=2, sort_keys=True)
    if args.out:
        _ensure_parent_dir(args.out)
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
    if args.json:
        print(payload)
    else:
        print(render_coverage(coverage))
    if coverage.protected_bytes and not coverage.covered_bytes:
        # Chains were emitted but none of them overlap the protected
        # bytes — the implicit-verification premise failed for this
        # protection; surface it as a failure for scripting.
        print("ERROR: no protected byte is covered by any chain",
              file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    program = build_program(args.program)
    report = RewriteEngine().analyze(program.image).report
    print(format_fig6_table([report]))
    return 0


def _cmd_fig6(_args) -> int:
    engine = RewriteEngine()
    reports = [
        engine.analyze(build_program(name).image).report for name in PROGRAM_NAMES
    ]
    print(format_fig6_table(reports))
    return 0


def _cmd_protect_all(args) -> int:
    from .pipeline import protect_all

    config = ProtectConfig(strategy=args.strategy, guard_chains=args.guard_chains)
    results = protect_all(
        config=config,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        verify=args.verify,
    )
    failed = [
        r for r in results
        if r.behaviour_preserved is not None and not r.behaviour_preserved
    ]
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
        return 1 if failed else 0
    total = sum(r.elapsed for r in results)
    hits = sum(1 for r in results if r.cache_hit)
    print(f"{'program':<8} {'chains':>6} {'time':>8}  {'cache':<5} {'pid':>7}")
    for r in results:
        verified = ""
        if r.behaviour_preserved is not None:
            verified = "  ok" if r.behaviour_preserved else "  DIVERGED"
        print(
            f"{r.name:<8} {len(r.report.chains):>6} {r.elapsed:>7.3f}s  "
            f"{'hit' if r.cache_hit else 'miss':<5} {r.worker_pid:>7}{verified}"
        )
    print(
        f"\n{len(results)} programs in {total:.3f}s worker time "
        f"({hits} cache hit{'s' if hits != 1 else ''}, jobs={args.jobs})"
    )
    if failed:
        print(f"ERROR: {len(failed)} program(s) diverged from baseline")
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        queue_depth=args.queue_depth,
    )

    def announce(server) -> None:
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(jobs={config.jobs}, queue_depth={config.queue_depth})",
            flush=True,
        )

    return serve(config, announce=announce)


def _cmd_attack(args) -> int:
    from .attacks import tamper_chain_gadget

    program = build_program(args.program)
    goal = program.run(engine=args.engine)
    config = ProtectConfig(strategy=args.strategy)
    protected = Parallax(config).protect(program)
    target, static, wurster = tamper_chain_gadget(
        protected, goal, engine=args.engine
    )
    print(f"tampering one byte of a chain gadget at {target:#x}")
    print(f"static  patch: {'DETECTED' if static.detected else 'undetected'} "
          f"({static.reason})")
    print(f"wurster patch: {'DETECTED' if wurster.detected else 'undetected'} "
          f"({wurster.reason})")
    return 0 if static.detected and wurster.detected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallax (DSN 2015) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the corpus programs").set_defaults(
        func=_cmd_list
    )

    p_run = sub.add_parser("run", help="run a corpus program")
    p_run.add_argument("program", choices=PROGRAM_NAMES)
    _add_engine_arg(p_run)
    p_run.add_argument("--debugger", action="store_true",
                       help="attach the (simulated) debugger")
    _add_telemetry_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_protect = sub.add_parser("protect", help="protect a program and re-run it")
    p_protect.add_argument("program", choices=PROGRAM_NAMES)
    p_protect.add_argument("--strategy", choices=STRATEGIES, default="cleartext")
    _add_engine_arg(p_protect)
    p_protect.add_argument("--guard-chains", action="store_true",
                           help="enable the §VI-C chain-guard network")
    p_protect.add_argument("--json", action="store_true",
                           help="print the protection report as JSON")
    _add_telemetry_args(p_protect)
    p_protect.set_defaults(func=_cmd_protect)

    p_profile = sub.add_parser(
        "profile", help="per-function cycle attribution for one run"
    )
    p_profile.add_argument("program", choices=PROGRAM_NAMES)
    p_profile.add_argument("--debugger", action="store_true",
                           help="attach the (simulated) debugger")
    _add_telemetry_args(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_cov = sub.add_parser(
        "coverage",
        help="protection-coverage map: which bytes do the chains guard?",
    )
    p_cov.add_argument("program", choices=PROGRAM_NAMES)
    p_cov.add_argument("--strategy", choices=STRATEGIES, default="cleartext")
    p_cov.add_argument("--guard-chains", action="store_true",
                       help="enable the §VI-C chain-guard network")
    p_cov.add_argument("--json", action="store_true",
                       help="print the coverage artifact as JSON")
    p_cov.add_argument("--out", metavar="FILE", default=None,
                       help="also write the JSON artifact to FILE "
                            "(parent directories are created)")
    _add_telemetry_args(p_cov)
    p_cov.set_defaults(func=_cmd_coverage)

    p_analyze = sub.add_parser("analyze", help="Fig. 6 protectability for one program")
    p_analyze.add_argument("program", choices=PROGRAM_NAMES)
    p_analyze.set_defaults(func=_cmd_analyze)

    sub.add_parser("fig6", help="the full Fig. 6 table").set_defaults(func=_cmd_fig6)

    p_all = sub.add_parser(
        "protect-all", help="protect the whole corpus (parallel, cached)"
    )
    p_all.add_argument("--strategy", choices=STRATEGIES, default="cleartext")
    p_all.add_argument("--guard-chains", action="store_true",
                       help="enable the §VI-C chain-guard network")
    p_all.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1, inline)")
    p_all.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="enable the on-disk cache tier at DIR")
    p_all.add_argument("--verify", action="store_true",
                       help="also run each protected program and compare "
                            "behaviour against its baseline (slow)")
    p_all.add_argument("--json", action="store_true",
                       help="print per-program results as JSON")
    _add_telemetry_args(p_all)
    p_all.set_defaults(func=_cmd_protect_all)

    p_serve = sub.add_parser(
        "serve", help="protection-as-a-service HTTP daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8437,
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8437)")
    p_serve.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="worker processes, all started before the "
                              "daemon listens (default: 2)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="on-disk response/protect cache at DIR "
                              "(default: $REPRO_CACHE_DIR, else memory-only)")
    p_serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                         help="max pending jobs before 429 backpressure "
                              "(default: 64)")
    _add_telemetry_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="dashboard over exported telemetry artifacts"
    )
    p_stats.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="metrics JSON, Chrome trace, or journal JSONL files",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_attack = sub.add_parser("attack", help="tamper demo on a protected program")
    p_attack.add_argument("program", choices=PROGRAM_NAMES)
    p_attack.add_argument("--strategy", choices=STRATEGIES, default="cleartext")
    _add_engine_arg(p_attack)
    _add_telemetry_args(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _telemetry_from_args(args):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
