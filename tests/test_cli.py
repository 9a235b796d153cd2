"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "DSN 2002" in out
    assert "repro.core" in out
    assert "EXPERIMENTS.md" in out


def test_figure3_command_runs(capsys, tmp_path):
    save_path = str(tmp_path / "fig3.json")
    assert main(["figure3", "--save", save_path]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "total_us" in out
    from repro.experiments.report import load_results

    document = load_results(save_path)
    assert document["meta"]["experiment"] == "figure3"
    assert len(document["results"]) == 18  # 9 replica counts x 2 windows


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_all_commands_registered():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "figure3", "figure4", "ablations", "validation", "chaos", "overload",
        "adaptive", "gray", "metrics", "speedup", "scale", "dash",
        "bench-diff", "info",
    }


def test_module_entrypoint_help():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "figure4" in result.stdout


# ---------------------------------------------------------------------------
# One parser per command: every flag is an argparse flag
# ---------------------------------------------------------------------------
def _subparsers():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    return sub.choices


def _value_flags():
    cases = []
    for command, subparser in _subparsers().items():
        for action in subparser._actions:
            if action.option_strings and action.nargs != 0:
                cases.append((command, action.option_strings[-1]))
    return cases


@pytest.mark.parametrize("command,flag", _value_flags())
def test_flag_without_value_is_a_usage_error(command, flag, capsys):
    argv = [command, flag]
    if command == "dash":
        argv = [command, "artifact.jsonl", flag]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scale", "figure4", "chaos", "speedup"])
def test_unknown_flag_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--sed", "3"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --sed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["repro.experiments.scale", "--seed"],
        ["repro.experiments.figure4", "--quick", "--metrics-out"],
        ["repro.experiments.scale", "--sed", "3"],
    ],
)
def test_module_entrypoints_reject_bad_flags(argv):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "usage: repro" in result.stderr
    assert "Traceback" not in result.stderr


def test_module_main_parses_like_the_cli():
    from repro.experiments import scale

    with pytest.raises(SystemExit) as excinfo:
        scale.main(["--users", "10,x"])
    assert excinfo.value.code == 2


JOBS_COMMANDS = [
    "figure4", "ablations", "validation", "scale",
    "chaos", "overload", "gray", "adaptive",
]


def _jobs(command, *flags):
    return build_parser().parse_args([command, *flags]).jobs


def test_jobs_flag_forms():
    from repro.experiments.runner import available_cpus, resolve_jobs

    for command in JOBS_COMMANDS:
        assert _jobs(command) == 1
        assert _jobs(command, "--quick") == 1
        assert _jobs(command, "--jobs", "4") == 4
        assert _jobs(command, "--jobs=8", "--quick") == 8
        assert _jobs(command, "--quick", "--jobs", "0") == 0
        assert _jobs(command, "--jobs=0") == 0
    # 0 means every usable core.
    assert resolve_jobs(0) == available_cpus()


def test_jobs_flag_missing_value():
    for command in JOBS_COMMANDS:
        with pytest.raises(SystemExit):
            _jobs(command, "--jobs")
        with pytest.raises(SystemExit):
            _jobs(command, "--quick", "--jobs")


def test_jobs_flag_rejects_garbage(capsys):
    for command in JOBS_COMMANDS:
        for flags in (
            ["--jobs", "-1"], ["--jobs=-4"], ["--jobs", "two"], ["--jobs="]
        ):
            with pytest.raises(SystemExit) as excinfo:
                _jobs(command, *flags)
            assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_flag_duplicate_flags_last_wins():
    for command in JOBS_COMMANDS:
        assert _jobs(command, "--jobs", "2", "--jobs", "6") == 6
        assert _jobs(command, "--jobs=2", "--quick", "--jobs", "3") == 3
        assert _jobs(command, "--jobs", "4", "--jobs=0") == 0


def test_campaign_flags_share_one_definition():
    """The four campaigns take the same shared flags, with their own
    defaults; chaos also takes --jobs and --check."""
    defaults = {
        "chaos": (10, 20.0), "overload": (5, 12.0),
        "gray": (5, 14.0), "adaptive": (3, 12.0),
    }
    for command, (seeds, duration) in defaults.items():
        args = build_parser().parse_args([command])
        assert (args.seeds, args.duration) == (seeds, duration)
        assert (args.seed, args.jobs, args.check, args.quick) == (
            0, 1, False, False
        )
        assert args.save is None and args.metrics_out is None
        assert args.trace_dir is None
