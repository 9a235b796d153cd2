"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure3`` — selection-algorithm overhead (Figure 3);
* ``figure4`` — adaptivity sweep, both panels (Figure 4);
* ``ablations`` — the A1–A9 parameter/baseline/failure/extension studies;
* ``validation`` — staleness-model calibration + hot-spot avoidance;
* ``chaos`` — seeded fault campaigns audited by consistency invariants;
* ``overload`` — load-storm campaigns: shedding vs. unbounded queues;
* ``adaptive`` — closed-loop SLA guardian vs. a static consistency grid;
* ``gray`` — gray-failure campaigns: φ-accrual detection vs. fixed timeouts;
* ``metrics`` — one instrumented cell: telemetry + calibration report;
* ``dash`` — sparkline/SLO dashboard over a timeline artifact (``--watch``
  for a live view, ``--html`` for a self-contained report);
* ``bench-diff`` — gate BENCH_*.json results against committed baselines;
* ``speedup`` — warm-worker runner throughput at several ``--jobs`` levels;
* ``scale`` — million-user cells via the aggregated (fluid) client tier,
  with ``--validate`` checking it against the discrete simulator;
* ``info`` — reproduction summary and module inventory.

``--quick`` runs reduced sweeps everywhere it is meaningful.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional

#: Subcommand -> (module under ``repro.experiments``, one-line summary).
#: Each module declares its flags once in ``add_arguments(parser)`` and
#: runs a parsed namespace with ``run(args)``; ``info`` is the exception.
COMMANDS = {
    "figure3": ("figure3", "selection overhead (Figure 3)"),
    "figure4": ("figure4", "adaptivity sweep (Figure 4)"),
    "ablations": ("ablations", "A1-A9 parameter studies"),
    "validation": ("validation", "model calibration + hot spots"),
    "chaos": ("chaos", "seeded fault campaigns + consistency invariants"),
    "overload": (
        "overload", "load storms: shedding ladder vs. unbounded queues"
    ),
    "adaptive": ("adaptive", "closed-loop SLA guardian vs. static knob grid"),
    "gray": ("gray", "gray failures: φ-accrual detector vs. fixed timeouts"),
    "metrics": (
        "telemetry", "instrumented cell: telemetry + calibration report"
    ),
    "dash": ("dashboard", "sparkline/SLO dashboard over a timeline artifact"),
    "bench-diff": (
        "benchdiff", "compare BENCH_*.json results against baselines"
    ),
    "speedup": ("speedup", "warm-worker runner throughput per --jobs level"),
    "scale": ("scale", "million-user cells via the aggregated client tier"),
}


def _cmd_info(args: argparse.Namespace) -> None:
    import repro

    print(f"repro {repro.__version__} — reproduction of:")
    print("  Krishnamurthy, Sanders, Cukier: 'An Adaptive Framework for")
    print("  Tunable Consistency and Timeliness Using Replication' (DSN 2002)")
    print()
    print("subsystems:")
    for module, summary in [
        ("repro.sim", "deterministic discrete-event simulation kernel"),
        ("repro.net", "simulated LAN: latency models, crashes, partitions"),
        ("repro.groups", "group communication (views, leader, reliable FIFO)"),
        ("repro.stats", "pmfs/convolution, Poisson CDF, binomial CIs"),
        ("repro.core", "the paper's middleware: QoS model, sequential/FIFO/"
                       "causal handlers, probabilistic selection (Algorithm 1)"),
        ("repro.baselines", "naive selection strategies for comparison"),
        ("repro.apps", "KV store, shared document, stock ticker"),
        ("repro.workloads", "closed-loop §6 clients, open-loop generators, "
                            "aggregated fluid client tier"),
        ("repro.obs", "telemetry: metrics registry, span trees, calibration"),
        ("repro.experiments", "figure/ablation/validation harnesses"),
    ]:
        print(f"  {module:20s} {summary}")
    print()
    print("see DESIGN.md for the experiment index and EXPERIMENTS.md for")
    print("paper-vs-measured results.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (name, summary) in COMMANDS.items():
        module = importlib.import_module(f"repro.experiments.{name}")
        command_parser = sub.add_parser(
            command, help=summary, description=module.__doc__.split("\n\n")[0]
        )
        module.add_arguments(command_parser)
        command_parser.set_defaults(func=module.run)
    sub.add_parser("info", help="reproduction summary").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args) or 0


def run_command(command: str, argv: Optional[list[str]] = None) -> int:
    """``repro <command> <argv>``: the entry point behind every
    ``python -m repro.experiments.<module>``."""
    return main([command, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
