"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``somier``   — run one Somier experiment and print the result
                 (implementation, device count, optional extensions, trace);
* ``stats``    — run a Somier experiment with the metrics tool attached and
                 print the per-directive / per-device profiling report;
* ``analyze``  — run a Somier experiment with the causal recorder attached
                 and print the critical-path / bottleneck-attribution /
                 what-if report (``--json`` for the machine-readable
                 ``repro-critpath-1`` payload);
* ``table1``   — regenerate the paper's Table I;
* ``table2``   — regenerate the paper's Table II;
* ``listing3`` — print the chunk distribution of the paper's worked example
                 for a given range/chunk/device list;
* ``check``    — parse + semantically check a pragma string (a tiny
                 "compiler driver" exposing the frontend diagnostics);
* ``lint``     — run the spreadlint static analyzer over ``.omp`` program
                 listings; ``--machine`` pins the shape, ``--sarif``
                 writes a code-scanning report, and ``machine *``
                 programs get a machine-parametric (∀N) verdict
                 (see docs/static-analysis.md);
* ``lint-fuzz`` — differential verification: seeded random programs,
                 static linter vs the runtime race sanitizer across
                 machine shapes; exits nonzero on any unsound
                 disagreement.

Exit codes follow compiler-driver convention: 0 on success (or
warnings-only lint), 1 when any error diagnostic is emitted, 2 on usage
errors.

Examples::

    python -m repro somier --impl one_buffer --gpus 4 --steps 8 --trace
    python -m repro somier --steps 2 --profile --trace-json /tmp/t.json
    python -m repro somier --steps 2 --sanitize
    python -m repro stats --impl one_buffer --gpus 4
    python -m repro analyze --gpus 4 --json
    python -m repro analyze --gpus 4 --trace-json /tmp/flow.json
    python -m repro table1 --n-functional 64
    python -m repro listing3 --lo 1 --hi 13 --chunk 4 --devices 2,0,1
    python -m repro check "omp target spread devices(0,1) nowait"
    python -m repro lint examples/omp tests/fixtures/lint/good
    python -m repro lint --expect tests/fixtures/lint/bad
    python -m repro lint --machine cluster:2x2 --json examples/omp
    python -m repro lint --sarif lint.sarif examples/omp
    python -m repro lint-fuzz --seed 0 --count 200
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench import harness, machines
from repro.sim.topology import MACHINE_ENV
from repro.somier import SomierState, run_reference, run_somier
from repro.spread.schedule import StaticSchedule
from repro.util import envknobs
from repro.util.errors import OmpError, OmpRuntimeError
from repro.util.format import format_hms, format_table


def _devices_arg(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"devices must be a comma-separated id list, got {text!r}")


def _resolve_machine(args):
    """(topology, cost model, devices) for a run.

    ``--machine`` wins, then an explicit ``--gpus``, then
    ``$REPRO_MACHINE``, then the 4-GPU paper node.  With a machine spec
    the devices clause defaults to every device in id order
    (``--devices`` still overrides).
    """
    spec = getattr(args, "machine", None)
    if spec is None and args.gpus is None:
        spec = envknobs.env_raw(MACHINE_ENV)
    if spec is not None:
        try:
            topo, cm = machines.machine_for_spec(
                spec, n_functional=args.n_functional)
        except ValueError as err:
            raise OmpRuntimeError(str(err)) from err
        devices = args.devices if args.devices else list(
            range(topo.num_devices))
    else:
        gpus = args.gpus if args.gpus is not None else 4
        topo, cm = machines.paper_machine(gpus,
                                          n_functional=args.n_functional)
        devices = (args.devices if args.devices
                   else machines.paper_devices(gpus))
    return topo, cm, devices


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated multi-device OpenMP: the target spread "
                    "directive set (Torres et al., IPDPS-W 2022)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("somier", help="run one Somier experiment")
    p.add_argument("--impl", default="one_buffer",
                   choices=["target", "one_buffer", "two_buffers",
                            "double_buffering"])
    p.add_argument("--gpus", type=int, default=None, choices=[1, 2, 3, 4],
                   help="paper-node GPU count (default 4); giving it "
                        "explicitly overrides $REPRO_MACHINE")
    p.add_argument("--machine", metavar="SPEC", default=None,
                   help="simulated machine: 'cte-power[:N]' or "
                        "'cluster:NxM' (N nodes x M GPUs; overrides "
                        "--gpus; default: $REPRO_MACHINE or the "
                        "CTE-POWER node) — see docs/cluster.md")
    p.add_argument("--devices", type=_devices_arg, default=None,
                   help="explicit device order, e.g. 1,0,3,2")
    p.add_argument("--n-functional", type=int, default=48,
                   help="functional grid edge standing in for 1200")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--data-depend", action="store_true",
                   help="enable the §IX depend-on-data-directives extension")
    p.add_argument("--fuse-transfers", action="store_true",
                   help="coalesce each chunk's memcpys into one call")
    p.add_argument("--no-plan-cache", action="store_true",
                   help="disable spread launch-plan caching (replay); "
                        "every directive takes the full lowering path")
    p.add_argument("--no-macro-ops", action="store_true",
                   help="keep the plan cache but disable macro-op replay "
                        "(compiled flat replay programs for cache hits; "
                        "default: $REPRO_MACRO_OPS or on)")
    p.add_argument("--no-fused-timeline", action="store_true",
                   help="keep macro replay but run chunks as generator "
                        "processes instead of fused timeline walkers "
                        "(default: $REPRO_FUSED_TIMELINE or on)")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="inject seeded faults, e.g. 'transfer:0.01' or "
                        "'device@1:#3' (default: $REPRO_FAULTS or off); "
                        "see docs/robustness.md")
    p.add_argument("--fault-seed", type=int, default=None, metavar="N",
                   help="fault-injection RNG seed (default: "
                        "$REPRO_FAULT_SEED or 0)")
    p.add_argument("--sanitize", nargs="?", const="on", default=None,
                   choices=["on", "strict"], metavar="MODE",
                   help="enable the interval race sanitizer (MODE 'strict' "
                        "also fails the run on races; default: "
                        "$REPRO_SANITIZE or off)")
    p.add_argument("--analyze", action="store_true",
                   help="attach the causal recorder and print the "
                        "parallelism-slackness line (implies tracing; see "
                        "'repro analyze' for the full report)")
    p.add_argument("--trace", action="store_true",
                   help="print an ASCII timeline of the run")
    p.add_argument("--verify", action="store_true",
                   help="check the result against the sequential reference")
    p.add_argument("--profile", action="store_true",
                   help="attach the metrics tool and print the "
                        "per-directive/per-device profiling report")
    p.add_argument("--trace-json", metavar="PATH", default=None,
                   help="write the Chrome-trace JSON (with nested "
                        "directive spans when profiling) to PATH")
    p.add_argument("--metrics-json", metavar="PATH", default=None,
                   help="write the profile report JSON to PATH")

    p = sub.add_parser("stats",
                       help="run Somier with the metrics tool and print "
                            "the profiling report")
    p.add_argument("--impl", default="one_buffer",
                   choices=["target", "one_buffer", "two_buffers",
                            "double_buffering"])
    p.add_argument("--gpus", type=int, default=None, choices=[1, 2, 3, 4],
                   help="paper-node GPU count (default 4); giving it "
                        "explicitly overrides $REPRO_MACHINE")
    p.add_argument("--machine", metavar="SPEC", default=None,
                   help="simulated machine: 'cte-power[:N]' or "
                        "'cluster:NxM' (N nodes x M GPUs; overrides "
                        "--gpus; default: $REPRO_MACHINE or the "
                        "CTE-POWER node) — see docs/cluster.md")
    p.add_argument("--devices", type=_devices_arg, default=None)
    p.add_argument("--n-functional", type=int, default=48)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--data-depend", action="store_true")
    p.add_argument("--fuse-transfers", action="store_true")
    p.add_argument("--no-plan-cache", action="store_true")
    p.add_argument("--no-macro-ops", action="store_true",
                   help="disable macro-op replay of plan-cache hits "
                        "(default: $REPRO_MACRO_OPS or on)")
    p.add_argument("--no-fused-timeline", action="store_true",
                   help="disable fused-timeline walkers "
                        "(default: $REPRO_FUSED_TIMELINE or on)")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="inject seeded faults (default: $REPRO_FAULTS "
                        "or off)")
    p.add_argument("--fault-seed", type=int, default=None, metavar="N",
                   help="fault-injection RNG seed (default: "
                        "$REPRO_FAULT_SEED or 0)")
    p.add_argument("--sanitize", nargs="?", const="on", default=None,
                   choices=["on", "strict"], metavar="MODE",
                   help="enable the interval race sanitizer (default: "
                        "$REPRO_SANITIZE or off)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text tables")
    p.add_argument("--full", action="store_true",
                   help="also print the raw metrics catalogue")

    p = sub.add_parser("analyze",
                       help="run Somier with the causal recorder and print "
                            "the critical-path / bottleneck report")
    p.add_argument("--impl", default="one_buffer",
                   choices=["target", "one_buffer", "two_buffers",
                            "double_buffering"])
    p.add_argument("--gpus", type=int, default=None, choices=[1, 2, 3, 4],
                   help="paper-node GPU count (default 4); giving it "
                        "explicitly overrides $REPRO_MACHINE")
    p.add_argument("--machine", metavar="SPEC", default=None,
                   help="simulated machine: 'cte-power[:N]' or "
                        "'cluster:NxM' (N nodes x M GPUs; overrides "
                        "--gpus; default: $REPRO_MACHINE or the "
                        "CTE-POWER node) — see docs/cluster.md")
    p.add_argument("--devices", type=_devices_arg, default=None)
    p.add_argument("--n-functional", type=int, default=48)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--data-depend", action="store_true")
    p.add_argument("--fuse-transfers", action="store_true")
    p.add_argument("--no-plan-cache", action="store_true")
    p.add_argument("--no-macro-ops", action="store_true",
                   help="disable macro-op replay of plan-cache hits "
                        "(default: $REPRO_MACRO_OPS or on)")
    p.add_argument("--no-fused-timeline", action="store_true",
                   help="disable fused-timeline walkers "
                        "(default: $REPRO_FUSED_TIMELINE or on)")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="inject seeded faults (default: $REPRO_FAULTS "
                        "or off)")
    p.add_argument("--fault-seed", type=int, default=None, metavar="N",
                   help="fault-injection RNG seed (default: "
                        "$REPRO_FAULT_SEED or 0)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro-critpath-1 JSON payload instead of "
                        "the text report")
    p.add_argument("--top", type=int, default=8, metavar="N",
                   help="path segments / stragglers listed in the text "
                        "report (default: 8)")
    p.add_argument("--trace-json", metavar="PATH", default=None,
                   help="write the Chrome-trace JSON with causal flow "
                        "arrows (Perfetto renders them as s/f arrows) "
                        "to PATH")

    for name, help_text in (("table1", "regenerate the paper's Table I"),
                            ("table2", "regenerate the paper's Table II")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n-functional", type=int, default=96)
        p.add_argument("--steps", type=int, default=machines.PAPER_STEPS)

    p = sub.add_parser("listing3",
                       help="print a static spread distribution")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=13)
    p.add_argument("--chunk", type=int, default=4)
    p.add_argument("--devices", type=_devices_arg, default=[2, 0, 1])

    p = sub.add_parser("check", help="parse + check a pragma string")
    p.add_argument("pragma", help="the directive text (quote it)")
    p.add_argument("--extensions", type=str, default="",
                   help="comma-separated extension flags to enable "
                        "(data_depend,schedules,reduction)")

    p = sub.add_parser("lint",
                       help="run the spreadlint static analyzer over "
                            ".omp program listings")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help=".omp files, or directories scanned recursively")
    p.add_argument("--json", action="store_true",
                   help="emit diagnostics as JSON")
    p.add_argument("--expect", action="store_true",
                   help="fixture mode: every file must emit (at least) the "
                        "codes its '// expect: SL...' comments announce; "
                        "files without annotations must lint clean")
    p.add_argument("--machine", metavar="SPEC", default=None,
                   help="lint for this machine: 'cluster:NxM', "
                        "'cte-power[:N]' or 'gpus:N' (overrides any "
                        "'machine' statement in the file; default: "
                        "$REPRO_MACHINE, else the file's own statement, "
                        "else the 4-GPU CTE-POWER node)")
    p.add_argument("--sarif", metavar="FILE", default=None,
                   help="also write the diagnostics as a SARIF 2.1.0 "
                        "report to FILE ('-' for stdout) for "
                        "code-scanning upload")

    p = sub.add_parser("lint-fuzz",
                       help="differential verification: seeded random .omp "
                            "programs, static linter vs runtime race "
                            "sanitizer across machine shapes")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (program i uses seed+i; default 0)")
    p.add_argument("--count", type=int, default=50,
                   help="number of random programs to check (default 50)")
    p.add_argument("--json", action="store_true",
                   help="emit the per-program comparison as JSON")

    p = sub.add_parser("machine",
                       help="describe the calibrated simulated node")
    p.add_argument("--gpus", type=int, default=None, choices=[1, 2, 3, 4],
                   help="paper-node GPU count (default 4); giving it "
                        "explicitly overrides $REPRO_MACHINE")
    p.add_argument("--machine", metavar="SPEC", default=None,
                   help="simulated machine: 'cte-power[:N]' or "
                        "'cluster:NxM' (N nodes x M GPUs; overrides "
                        "--gpus; default: $REPRO_MACHINE or the "
                        "CTE-POWER node) — see docs/cluster.md")

    return parser


def cmd_somier(args) -> int:
    from repro.obs import Profiler

    topo, cm, devices = _resolve_machine(args)
    cfg = machines.paper_somier_config(n_functional=args.n_functional,
                                       steps=args.steps)
    profiling = args.profile or args.trace_json or args.metrics_json
    prof = Profiler() if profiling else None
    res = run_somier(args.impl, cfg, devices=devices, topology=topo,
                     cost_model=cm, data_depend=args.data_depend,
                     fuse_transfers=args.fuse_transfers,
                     trace=args.trace or bool(args.trace_json),
                     plan_cache=not args.no_plan_cache,
                     macro_ops=False if args.no_macro_ops else None,
                     fused_timeline=(False if args.no_fused_timeline
                                     else None),
                     faults=args.faults, fault_seed=args.fault_seed,
                     sanitize=args.sanitize,
                     analyze=args.analyze or None,
                     tools=prof.tools if prof else ())
    print(f"{args.impl} on {len(devices)} device(s) {devices}: "
          f"{format_hms(res.elapsed)} virtual")
    print(f"plan: {res.plan.num_buffers} buffer(s) x "
          f"{res.plan.rows_per_buffer} rows (chunk {res.plan.chunk_rows})")
    print(f"traffic: {res.stats['h2d_bytes'] / 1e9:.1f} GB H2D, "
          f"{res.stats['d2h_bytes'] / 1e9:.1f} GB D2H in "
          f"{res.stats['memcpy_calls']} memcpys; "
          f"{res.stats['kernels_launched']} kernels")
    centers = res.centers[-1]
    print(f"final centers: ({centers[0]:.6f}, {centers[1]:.6f}, "
          f"{centers[2]:.6f})")
    if res.runtime.sanitizer is not None:
        print(res.runtime.sanitizer.summary())
    if res.runtime.causal is not None:
        print(res.runtime.analysis().summary_line())
    if args.verify:
        import numpy as np

        buffers = (res.plan.buffers if args.impl in ("target", "one_buffer")
                   else res.plan.halves())
        ref = SomierState(cfg)
        run_reference(ref, buffers)
        exact = all(np.array_equal(res.state.grids[k], ref.grids[k])
                    for k in ref.grids)
        worst = max(abs(res.state.grids[k] - ref.grids[k]).max()
                    for k in ref.grids)
        print(f"verification vs sequential reference: "
              f"{'bitwise identical' if exact else f'max deviation {worst:.3e}'}")
    if args.trace:
        print()
        print(res.runtime.trace.to_ascii(width=100))
    if prof is not None:
        report = prof.report(makespan=res.elapsed)
        if args.profile:
            print()
            print(report.render_text())
        if args.trace_json:
            flows = (res.runtime.analysis().flow_records()
                     if res.runtime.causal is not None else ())
            with open(args.trace_json, "w") as f:
                f.write(prof.chrome_trace(res.runtime.trace,
                                          extra_records=flows))
            print(f"chrome trace written to {args.trace_json}")
        if args.metrics_json:
            with open(args.metrics_json, "w") as f:
                f.write(report.to_json(indent=2))
            print(f"profile JSON written to {args.metrics_json}")
    return 0


def cmd_stats(args) -> int:
    from repro.obs import Profiler

    topo, cm, devices = _resolve_machine(args)
    cfg = machines.paper_somier_config(n_functional=args.n_functional,
                                       steps=args.steps)
    prof = Profiler()
    res = run_somier(args.impl, cfg, devices=devices, topology=topo,
                     cost_model=cm, data_depend=args.data_depend,
                     fuse_transfers=args.fuse_transfers,
                     plan_cache=not args.no_plan_cache,
                     macro_ops=False if args.no_macro_ops else None,
                     fused_timeline=(False if args.no_fused_timeline
                                     else None),
                     faults=args.faults, fault_seed=args.fault_seed,
                     sanitize=args.sanitize, analyze=True,
                     tools=prof.tools)
    analysis = res.runtime.analysis()
    report = prof.report(makespan=res.elapsed,
                         critpath=analysis.headline())
    if args.json:
        print(report.to_json(indent=2))
        return 0
    print(f"{args.impl} on {len(devices)} device(s) {devices}: "
          f"{format_hms(res.elapsed)} virtual")
    print()
    print(report.render_text())
    print(analysis.summary_line())
    if args.full:
        print()
        print(prof.registry.render_text())
    return 0


def cmd_analyze(args) -> int:
    from repro.obs import Profiler

    topo, cm, devices = _resolve_machine(args)
    cfg = machines.paper_somier_config(n_functional=args.n_functional,
                                       steps=args.steps)
    prof = Profiler() if args.trace_json else None
    res = run_somier(args.impl, cfg, devices=devices, topology=topo,
                     cost_model=cm, data_depend=args.data_depend,
                     fuse_transfers=args.fuse_transfers,
                     plan_cache=not args.no_plan_cache,
                     macro_ops=False if args.no_macro_ops else None,
                     fused_timeline=(False if args.no_fused_timeline
                                     else None),
                     faults=args.faults, fault_seed=args.fault_seed,
                     analyze=True,
                     tools=prof.tools if prof else ())
    analysis = res.runtime.analysis()
    if args.trace_json:
        # span forest (pid 1) + causal flow arrows, like somier --trace-json
        with open(args.trace_json, "w") as f:
            f.write(prof.chrome_trace(res.runtime.trace,
                                      extra_records=analysis.flow_records()))
    if args.json:
        print(analysis.to_json(indent=2))
        return 0
    print(f"{args.impl} on {len(devices)} device(s) {devices}: "
          f"{format_hms(res.elapsed)} virtual")
    print()
    print(analysis.render_text(top=args.top))
    if args.trace_json:
        print(f"chrome trace written to {args.trace_json}")
    return 0


def cmd_table(args, table: int) -> int:
    run = harness.run_table1 if table == 1 else harness.run_table2
    exps = run(n_functional=args.n_functional, steps=args.steps)
    print(harness.format_experiments(
        exps, f"TABLE {'I' if table == 1 else 'II'} "
              f"(functional {args.n_functional}^3, {args.steps} steps)"))
    return 0


def cmd_listing3(args) -> int:
    chunks = StaticSchedule(args.chunk).chunks(args.lo, args.hi,
                                               args.devices)
    rows = [(f"{c.interval.start}..{c.interval.stop - 1}", c.device)
            for c in chunks]
    print(format_table(["iterations", "device"], rows))
    return 0


def cmd_check(args) -> int:
    from repro.pragma import check_directive, parse_pragma, unparse_directive
    from repro.spread.extensions import Extensions

    flags = {f: True for f in args.extensions.split(",") if f}
    try:
        ext = Extensions(**flags)
    except TypeError:
        print(f"unknown extension in {args.extensions!r}", file=sys.stderr)
        return 2
    try:
        directive = parse_pragma(args.pragma)
        check_directive(directive, extensions=ext)
    except OmpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"OK: {directive.kind.value}")
    print(f"normalized: {unparse_directive(directive)}")
    return 0


def _sarif_report(entries) -> dict:
    """Render ``(path, diagnostics)`` pairs as a SARIF 2.1.0 report."""
    from repro.analysis.diagnostics import CATALOG, Severity

    levels = {Severity.ERROR: "error", Severity.WARNING: "warning"}
    rules = [{"id": code,
              "shortDescription": {"text": summary},
              "defaultConfiguration": {"level": levels.get(sev, "note")}}
             for code, (sev, summary) in sorted(CATALOG.items())]
    results = []
    for fpath, diags in entries:
        for d in diags:
            region = {"startLine": max(d.line, 1)}
            if d.offset is not None:
                region["startColumn"] = d.offset + 1
                if d.length:
                    region["endColumn"] = d.offset + 1 + d.length
            results.append({
                "ruleId": d.code,
                "level": levels.get(d.severity, "note"),
                "message": {"text": d.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": fpath.replace("\\", "/")},
                    "region": region}}]})
    return {"$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{"tool": {"driver": {"name": "spreadlint",
                                          "rules": rules}},
                      "results": results}]}


def cmd_lint(args) -> int:
    import json as json_mod
    import os

    from repro.analysis.diagnostics import Severity
    from repro.analysis.linter import lint_machine_for
    from repro.analysis.program import parse_program
    from repro.analysis.symbolic import lint_source_verdict

    machine = args.machine or envknobs.env_raw(MACHINE_ENV)
    if machine is not None:
        try:
            lint_machine_for(machine)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    files: List[str] = []
    for path in args.paths:
        if os.path.isdir(path):
            found = sorted(
                os.path.join(root, fn)
                for root, _dirs, fns in os.walk(path)
                for fn in fns if fn.endswith(".omp"))
            if not found:
                print(f"error: no .omp files under {path!r}", file=sys.stderr)
                return 2
            files.extend(found)
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"error: no such file or directory: {path!r}",
                  file=sys.stderr)
            return 2

    exit_code = 0
    payload = []
    sarif_entries = []
    errors = warnings = 0
    for fpath in files:
        with open(fpath) as f:
            source = f.read()
        verdict = lint_source_verdict(source, path=fpath, machine=machine)
        diags = verdict.diagnostics
        emitted = {d.code for d in diags}
        errors += sum(1 for d in diags if d.severity is Severity.ERROR)
        warnings += sum(1 for d in diags if d.severity is Severity.WARNING)
        entry = {"path": fpath,
                 "verdict": verdict.to_dict(),
                 "diagnostics": [d.to_dict() for d in diags]}
        sarif_entries.append((fpath, diags))
        if args.expect:
            program, _ = parse_program(source, path=fpath)
            expected = set(program.expected_codes)
            missing = sorted(expected - emitted)
            # A file with annotations must emit every announced code; a
            # file without them must lint completely clean.
            ok = not missing if expected else not diags
            entry["expected"] = sorted(expected)
            entry["ok"] = ok
            if not ok:
                exit_code = 1
            if not args.json:
                if ok:
                    detail = (f"emits {', '.join(sorted(expected))}"
                              if expected else "clean")
                    print(f"PASS {fpath}: {detail}")
                elif missing:
                    print(f"FAIL {fpath}: missing expected "
                          f"{', '.join(missing)} (emitted: "
                          f"{', '.join(sorted(emitted)) or 'none'})")
                else:
                    print(f"FAIL {fpath}: expected a clean program, got "
                          f"{', '.join(sorted(emitted))}")
                    for diag in diags:
                        print(diag.render())
        else:
            if not verdict.clean:
                exit_code = 1
            if not args.json:
                for diag in diags:
                    print(diag.render())
                if verdict.forall:
                    state = "race-free" if verdict.clean else "findings hold"
                    print(f"{fpath}: verified ∀N: {state} for "
                          f"{verdict.universe} [{verdict.proof}]")
                for note in verdict.notes:
                    print(f"{fpath}: note: {note}")
        payload.append(entry)
    if args.sarif:
        sarif = json_mod.dumps(_sarif_report(sarif_entries), indent=2)
        if args.sarif == "-":
            print(sarif)
        else:
            with open(args.sarif, "w") as f:
                f.write(sarif + "\n")
    if args.json:
        print(json_mod.dumps({"files": payload, "errors": errors,
                              "warnings": warnings}, indent=2))
    elif not args.expect:
        print(f"{len(files)} file(s): {errors} error(s), "
              f"{warnings} warning(s)")
    return exit_code


def cmd_lint_fuzz(args) -> int:
    import json as json_mod

    from repro.analysis.diffcheck import run_diffcheck

    summary = run_diffcheck(seed=args.seed, count=args.count)
    if args.json:
        print(json_mod.dumps({
            "seed": args.seed,
            "count": summary.count,
            "shapes": summary.shapes,
            "unsound": [{"seed": r.seed, "source": r.source,
                         "outcomes": [o.to_dict() for o in r.outcomes]}
                        for r in summary.unsound],
            "imprecise_seeds": [r.seed for r in summary.imprecise],
            "ok": summary.ok,
        }, indent=2))
    else:
        print(summary.render())
    return 0 if summary.ok else 1


def cmd_machine(args) -> int:
    from repro.util.format import format_bytes

    spec = args.machine
    if spec is None and args.gpus is None:
        spec = envknobs.env_raw(MACHINE_ENV)
    if spec is not None:
        try:
            topo, cm = machines.machine_for_spec(spec)
        except ValueError as err:
            raise OmpRuntimeError(str(err)) from err
    else:
        topo, cm = machines.paper_machine(
            args.gpus if args.gpus is not None else 4)
    if getattr(topo, "num_nodes", 1) > 1:
        net = topo.network_spec
        print(f"cluster of {topo.num_nodes} node(s), "
              f"{topo.num_devices} device(s) total")
        print(f"  network (per non-root node): "
              f"{net.bandwidth_bytes_per_s / 1e9:.1f} GB/s, "
              f"per-message latency {net.per_message_latency * 1e6:.1f} us")
        for n in range(topo.num_nodes):
            print(f"  node {n}: devices {topo.node_devices(n)}"
                  f"{' (root: hosts the arrays)' if n == 0 else ''}")
        sockets = [(s, devs) for s, devs in enumerate(topo.sockets)
                   if topo.node_of(devs[0]) == 0]
    else:
        print(f"CTE-POWER-like node, {topo.num_devices} device(s), "
              f"{len(topo.sockets)} socket(s)")
        sockets = list(enumerate(topo.sockets))
    for s, devs in sockets:
        link = topo.link_specs[s]
        print(f"  socket {s}: devices {devs}, link "
              f"{link.bandwidth_bytes_per_s / 1e9:.1f} GB/s, "
              f"per-call latency {link.per_call_latency * 1e6:.0f} us")
    host = topo.host_spec
    print(f"  host staging (shared): "
          f"{host.staging_bandwidth_bytes_per_s / 1e9:.1f} GB/s")
    spec = topo.device_specs[0]
    print(f"  device: {spec.name}, {format_bytes(spec.memory_bytes)} "
          f"memory, {spec.num_sms} SMs x {spec.max_threads_per_sm} "
          f"threads, SIMD {spec.simd_width}")
    print(f"  kernel throughput {spec.iters_per_second:.2e} work-units/s, "
          f"dispatch latency {spec.kernel_issue_latency * 1e6:.0f} us")
    print(f"  cudaMalloc/cudaFree: device-sync + "
          f"{spec.alloc_latency * 1e6:.0f}/{spec.free_latency * 1e6:.0f} us")
    print(f"  cost-model scale: {cm.scale:.1f} "
          f"(functional 96^3 stands in for 1200^3)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "somier":
            return cmd_somier(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "table1":
            return cmd_table(args, 1)
        if args.command == "table2":
            return cmd_table(args, 2)
        if args.command == "listing3":
            return cmd_listing3(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "lint-fuzz":
            return cmd_lint_fuzz(args)
        if args.command == "machine":
            return cmd_machine(args)
    except OmpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        # e.g. an unwritable --trace-json/--metrics-json destination
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
