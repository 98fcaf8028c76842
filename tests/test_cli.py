"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "tea-making"])
        assert args.episodes == 120
        assert args.seed == 0
        assert args.routine is None

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.fast is False
        assert args.no_ablations is False
        assert args.jobs == 1
        assert args.cache is None
        assert args.timing is False

    def test_report_accepts_runner_flags(self):
        args = build_parser().parse_args(
            ["report", "--fast", "--no-ablations", "--jobs", "4",
             "--cache", "/tmp/cache", "--timing"]
        )
        assert args.fast is True
        assert args.no_ablations is True
        assert args.jobs == 4
        assert args.cache == "/tmp/cache"
        assert args.timing is True


class TestListAdls:
    def test_lists_all_five(self, capsys):
        assert main(["list-adls"]) == 0
        out = capsys.readouterr().out
        for name in ("tea-making", "tooth-brushing", "hand-washing",
                     "dressing", "coffee-making"):
            assert name in out


class TestTrain:
    def test_train_prints_convergence(self, capsys):
        assert main(["train", "tea-making"]) == 0
        out = capsys.readouterr().out
        assert "95% criterion: iteration" in out
        assert "final greedy accuracy: 100%" in out

    def test_train_custom_routine(self, capsys):
        assert main(["train", "tea-making", "--routine", "1,3,2,4"]) == 0
        assert "[1, 3, 2, 4]" in capsys.readouterr().out

    def test_train_saves_policy(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        assert main(["train", "tea-making", "--save", str(path)]) == 0
        assert path.exists()
        from repro.adls.tea_making import make_tea_making
        from repro.planning.store import load_predictor

        predictor = load_predictor(path, make_tea_making())
        assert predictor.predict_next_tool(0, 1) == 2

    def test_train_plot(self, capsys):
        assert main(["train", "tea-making", "--plot"]) == 0
        assert "*" in capsys.readouterr().out

    def test_unknown_adl_raises(self, capsys):
        # Reported as a usage error, not raised as a traceback.
        assert main(["train", "cooking"]) == 2
        assert "unknown ADL 'cooking'" in capsys.readouterr().err

    def test_routine_with_non_integer_exits_cleanly(self, capsys):
        assert main(["train", "tea-making", "--routine", "1,x,3"]) == 2
        err = capsys.readouterr().err
        assert "'x' is not a StepID" in err
        assert "Traceback" not in err

    def test_routine_with_unknown_step_exits_cleanly(self, capsys):
        assert main(["train", "tea-making", "--routine", "1,99,3"]) == 2
        err = capsys.readouterr().err
        assert "no step 99 in tea-making" in err
        assert "StepIDs: 1, 2, 3, 4" in err


class TestSimulate:
    def test_simulate_prints_report(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "2", "--severity", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "ran 2 episodes" in out
        assert "Caregiver report — tea-making" in out

    def test_simulate_with_adaptation(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "1", "--adapt"]
        ) == 0


class TestReport:
    def test_no_ablations_skips_sweeps_and_writes_utf8(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(
            ["report", "--fast", "--no-ablations", "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "sweep" not in out
        assert "ablation" not in out
        assert path.read_bytes().decode("utf-8") == out


class TestScenario:
    def test_scenario_passes(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "structure check: PASS" in out


class TestConfigFile:
    def test_train_with_config_file(self, tmp_path, capsys):
        from repro.core.config import CoReDAConfig
        from repro.core.config_io import save_config

        path = tmp_path / "coreda.json"
        save_config(CoReDAConfig(), path)
        assert main(["train", "tea-making", "--config", str(path)]) == 0
        assert "final greedy accuracy" in capsys.readouterr().out

    def test_seed_flag_overrides_config_seed(self, tmp_path, capsys):
        import json

        path = tmp_path / "coreda.json"
        path.write_text(json.dumps({"seed": 5}))
        assert main(
            ["train", "tea-making", "--config", str(path), "--seed", "9"]
        ) == 0

    def test_simulate_timeline_flag(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "1", "--timeline",
             "--severity", "0.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Event timeline" in out
        assert "Put tea-leaf into kettle" in out


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


#: Each bad input, as (argv builder, text the one error line must
#: contain).  Builders take a tmp dir for the --config cases; the
#: parent-era configs carry settings that no longer exist.
BAD_INPUTS = {
    "fleet-unknown-adl": (lambda tmp: ["fleet", "--adl", "nope"],
                          "unknown ADL 'nope'"),
    "train-unknown-adl": (lambda tmp: ["train", "nope"],
                          "unknown ADL 'nope'"),
    "simulate-unknown-adl": (lambda tmp: ["simulate", "nope"],
                             "unknown ADL 'nope'"),
    "fleet-jobs-0": (lambda tmp: ["fleet", "--jobs", "0"],
                     "--jobs must be at least 1"),
    "report-jobs-0": (lambda tmp: ["report", "--fast", "--jobs", "0"],
                      "--jobs must be at least 1"),
    "config-missing": (
        lambda tmp: ["train", "tea-making", "--config",
                     str(tmp / "absent.json")],
        "cannot read configuration",
    ),
    "config-malformed": (
        lambda tmp: ["train", "tea-making", "--config",
                     _write(tmp / "bad.json", "{not json")],
        "is not valid JSON",
    ),
    "config-unknown-key": (
        lambda tmp: ["train", "tea-making", "--config",
                     _write(tmp / "typo.json", '{"planing": {}}')],
        "'planing'",
    ),
    "config-retired-sim-section": (
        lambda tmp: ["train", "tea-making", "--config", _write(
            tmp / "sim.json",
            '{"sim": {"kernel_backend": "calendar", "bucket_width": 0.5}}',
        )],
        "'sim'",
    ),
    "config-retired-planning-keys": (
        lambda tmp: ["train", "tea-making", "--config", _write(
            tmp / "planning.json",
            '{"planning": {"q_backend": "dense", '
            '"infer_backend": "batched"}}',
        )],
        "'q_backend'",
    ),
    "config-retired-sensing-key": (
        lambda tmp: ["train", "tea-making", "--config", _write(
            tmp / "sensing.json", '{"sensing": {"batch_samples": 10}}',
        )],
        "'batch_samples'",
    ),
    "report-cache-uncreatable": (
        lambda tmp: ["report", "--fast", "--cache",
                     _write(tmp / "file", "") + "/cache"],
        "--cache: cannot create directory",
    ),
    "fleet-cache-is-a-file": (
        lambda tmp: ["fleet", "--cache", _write(tmp / "file", "")],
        "--cache: cannot create directory",
    ),
    "train-episodes-0": (lambda tmp: ["train", "tea-making", "--episodes", "0"],
                         "--episodes must be at least 1"),
    "simulate-episodes-negative": (
        lambda tmp: ["simulate", "tea-making", "--episodes", "-1"],
        "--episodes must be at least 1",
    ),
    "simulate-severity-above-1": (
        lambda tmp: ["simulate", "tea-making", "--severity", "1.5"],
        "--severity must be in [0, 1]",
    ),
    "simulate-severity-negative": (
        lambda tmp: ["simulate", "tea-making", "--severity", "-0.1"],
        "--severity must be in [0, 1]",
    ),
    "train-save-unconverged": (
        lambda tmp: ["train", "tea-making", "--episodes", "5",
                     "--save", str(tmp / "policy.json")],
        "--save: training never reached the 95% criterion",
    ),
    "simulate-never-converges": (
        lambda tmp: ["simulate", "tea-making", "--config", _write(
            tmp / "always-explore.json",
            '{"planning": {"epsilon_decay": 1.0, "epsilon": 0.4}}',
        )],
        "simulate: training never reached the 95% criterion",
    ),
    "fleet-homes-0": (lambda tmp: ["fleet", "--homes", "0"],
                      "homes must be positive"),
    "train-routine-unknown-step": (
        lambda tmp: ["train", "tea-making", "--routine", "1,9"],
        "--routine: no step 9 in tea-making",
    ),
    "train-routine-repeated-step": (
        lambda tmp: ["train", "tea-making", "--routine", "1,1,2"],
        "--routine: routine for 'tea-making' repeats StepID 1",
    ),
    "lint-rules-empty": (lambda tmp: ["lint", "--rules", ",", str(tmp)],
                         "--rules: expected comma-separated rule IDs"),
    "lint-unknown-rule": (lambda tmp: ["lint", "--rules", "DET999", str(tmp)],
                          "DET999"),
    "lint-missing-path": (lambda tmp: ["lint", str(tmp / "absent")],
                          "absent"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    build, expected = BAD_INPUTS[case]
    assert main(build(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro: error: ")
    assert expected in lines[0]
