"""Command surface: values, exit codes, layering, determinism, schemas."""

import hashlib
import json
from importlib import resources

import jsonschema
import pytest

import qlabelsec.cli as cli_module
from qlabelsec.cli import main
from qlabelsec.errors import MIN_TRIALS
from qlabelsec.info_theory import eve_noise_from_disturbance
from qlabelsec.learn_harness import (
    LearnerConfig, estimate_learning_probability, generate_task, run_trials
)
from qlabelsec.pac_bounds import sample_bound_noiseless, sample_bound_noisy
from qlabelsec.protocol import run_session


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def schema():
    ref = resources.files("qlabelsec.schemas") / "summary.schema.json"
    return json.loads(ref.read_text())


def read_summary(out_dir, command):
    return json.loads((out_dir / f"{command}-summary.json").read_text())


class TestBounds:
    def test_reports_bound_values(self, capsys):
        assert run_cli(
            "bounds", "--epsilon", "0.1", "--delta", "0.05",
            "--log-h", "13.862943611198906", "--eta", "0.1",
        ) == 0
        out = capsys.readouterr().out
        assert f"sample_bound_noiseless  {sample_bound_noiseless(0.1, 0.05, 13.862943611198906)}" in out
        assert f"sample_bound_noisy      {sample_bound_noisy(0.1, 0.05, 13.862943611198906, 0.1)}" in out
        assert "169" in out and "5485" in out

    def test_delta_star_rows_only_when_n_given(self, capsys):
        run_cli("bounds", "--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0")
        assert "delta_star" not in capsys.readouterr().out
        run_cli(
            "bounds", "--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0",
            "--n", "10,20",
        )
        out = capsys.readouterr().out
        assert "delta_star[n=10]" in out and "delta_star[n=20]" in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_integer_list_keeps_every_digit(self, tmp_path, capsys, source):
        # 2**53 + 1 once lost its last bit through a float cast
        argv = ["bounds", "--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0"]
        if source == "flag":
            argv += ["--n", "9007199254740993"]
        else:
            config = tmp_path / "config.json"
            config.write_text('{"n": [9007199254740993]}')
            argv += ["--config", str(config)]
        assert run_cli(*argv) == 0
        assert "delta_star[n=9007199254740993]" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["1e3", "25.0"])
    def test_integer_list_items_follow_the_scalar_rule(self, capsys, value):
        # as --trials 30.0 does, a list item written as a float exits 2
        argv = ("bounds", "--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0")
        assert run_cli(*argv, "--n", f"10,{value}") == 2
        assert "bad value for 'n'" in capsys.readouterr().err

    def test_unlearnable_noise_exits_2(self, capsys):
        code = run_cli(
            "bounds", "--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0",
            "--eta", "0.5",
        )
        assert code == 2
        assert "one-half" in capsys.readouterr().err

    def test_missing_required_option_exits_2(self, capsys):
        assert run_cli("bounds", "--epsilon", "0.1", "--delta", "0.05") == 2
        assert "log-h" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--log-h", "inf"), "log hypothesis count must be positive and finite"),
            (("--log-h", "1e308"), "not a finite number"),
            (("--epsilon", "1e-320"), "not a finite number"),
        ],
    )
    def test_non_finite_bound_exits_2(self, capsys, flags, message):
        # these once died with an OverflowError traceback
        argv = {"--epsilon": "0.03", "--delta": "0.2", "--log-h": "10", **dict([flags])}
        assert run_cli("bounds", *(part for item in argv.items() for part in item)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestThresholds:
    def test_reports_the_three_rates(self, capsys):
        assert run_cli("thresholds") == 0
        out = capsys.readouterr().out
        assert "0.110" in out
        assert "0.1464" in out
        assert "0.154" in out
        assert "solved" in out
        assert "closed-form" in out
        assert "constant (no curve)" in out

    def test_solver_residual_is_tiny(self, tmp_path, capsys):
        run_cli("thresholds", "--out", str(tmp_path))
        capsys.readouterr()
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()
        header = rows[0].split(",")
        collective = dict(zip(header, rows[1].split(",")))
        assert collective["method"] == "solved"
        assert float(collective["residual"]) < 1e-9


class TestProtocolRun:
    def test_no_attack_reports_zero_disturbance(self, tmp_path, capsys):
        assert run_cli(
            "protocol-run", "--target-data", "300", "--out", str(tmp_path),
            "--seed", "3",
        ) == 0
        capsys.readouterr()
        summary = read_summary(tmp_path, "protocol-run")
        assert summary["results"]["eta_a_estimate"] == 0.0
        assert summary["results"]["authorized_dataset_size"] == 300
        assert summary["results"]["aborted"] is False

    def test_full_interception_reads_labels_exactly(self, tmp_path, capsys):
        run_cli(
            "protocol-run", "--attack", "intercept-resend", "--fraction", "1.0",
            "--policy", "alwaysZ", "--target-data", "400",
            "--out", str(tmp_path), "--seed", "4",
        )
        capsys.readouterr()
        results = read_summary(tmp_path, "protocol-run")["results"]
        assert results["eve_label_error_rate"] == 0.0
        assert abs(results["eta_a_estimate"] - 0.5) < 0.1

    def test_transcripts_are_reproducible(self, tmp_path, capsys):
        for sub in ("a", "b"):
            run_cli(
                "protocol-run", "--target-data", "200", "--seed", "9",
                "--out", str(tmp_path / sub),
            )
        capsys.readouterr()
        first = (tmp_path / "a" / "protocol-transcript.jsonl").read_bytes()
        second = (tmp_path / "b" / "protocol-transcript.jsonl").read_bytes()
        assert first == second
        assert (tmp_path / "a" / "protocol-run.csv").read_bytes() == (
            tmp_path / "b" / "protocol-run.csv"
        ).read_bytes()

    def test_no_transcript_flag(self, tmp_path, capsys):
        run_cli(
            "protocol-run", "--target-data", "100", "--no-transcript",
            "--out", str(tmp_path),
        )
        capsys.readouterr()
        assert not (tmp_path / "protocol-transcript.jsonl").exists()

    def test_a_seed_beyond_64_bits_runs(self, tmp_path, capsys):
        assert run_cli(
            "protocol-run", "--target-data", "100", "--no-transcript",
            "--seed", str(2**64 + 5), "--out", str(tmp_path),
        ) == 0
        capsys.readouterr()
        assert read_summary(tmp_path, "protocol-run")["results"]["authorized_dataset_size"] == 100

    @pytest.mark.parametrize(
        "out, flags, keep_rounds",
        [(False, (), False), (True, (), True), (True, ("--no-transcript",), False)],
        ids=["no-out", "out", "out-no-transcript"],
    )
    def test_rounds_kept_only_for_a_written_transcript(
        self, tmp_path, capsys, monkeypatch, out, flags, keep_rounds
    ):
        monkeypatch.delenv("QLABELSEC_OUTDIR", raising=False)
        seen = []

        def recording_run_session(*args, **kwargs):
            seen.append(kwargs["keep_rounds"])
            return run_session(*args, **kwargs)

        monkeypatch.setattr(cli_module, "run_session", recording_run_session)
        out_flags = ("--out", str(tmp_path)) if out else ()
        assert run_cli("protocol-run", "--target-data", "20", *out_flags, *flags) == 0
        capsys.readouterr()
        assert seen == [keep_rounds]

    def test_analytic_attack_runs(self, tmp_path, capsys):
        run_cli(
            "protocol-run", "--attack", "collective", "--disturbance", "0.08",
            "--target-data", "500", "--out", str(tmp_path), "--seed", "6",
        )
        capsys.readouterr()
        results = read_summary(tmp_path, "protocol-run")["results"]
        assert abs(results["eta_a_estimate"] - 0.08) < 0.05

    def test_unreadable_config_file_exits_2(self, capsys):
        assert run_cli(
            "protocol-run", "--target-data", "10", "--config", "/dev/null",
        ) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("attack", ["none", "intercept-resend", "collective", "individual"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--fraction", "2"), "attack probability must lie in [0, 1]"),
            (("--fraction", "-0.1"), "attack probability must lie in [0, 1]"),
            (("--disturbance", "7"), "disturbance must lie in [0, 1/2]"),
        ],
        ids=["fraction-high", "fraction-low", "disturbance-high"],
    )
    def test_out_of_range_attack_option_exits_2(self, capsys, tmp_path, attack, flags, message):
        # checked whether or not the chosen attack reads the option
        code = run_cli(
            "protocol-run", "--target-data", "10", "--attack", attack, *flags,
            "--out", str(tmp_path),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_choice_exits_2(self, capsys):
        # argparse rejects bad choices itself, with the same exit contract
        with pytest.raises(SystemExit) as exc:
            run_cli("protocol-run", "--legs", "3")
        assert exc.value.code == 2
        capsys.readouterr()


def _no_trials(*args, **kwargs):
    raise AssertionError("no trial may run")


class TestLearnCommand:
    def test_curve_is_nondecreasing_and_files_written(self, tmp_path, capsys):
        assert run_cli(
            "learn", "--eta", "0.11", "--trials", "40", "--out", str(tmp_path),
            "--svg", "--seed", "2",
        ) == 0
        capsys.readouterr()
        rows = (tmp_path / "learn-curve.csv").read_text().splitlines()
        assert rows[0] == "n,p_hat,wilson_low,wilson_high,trials"
        p_hats = [float(r.split(",")[1]) for r in rows[1:]]
        assert p_hats == sorted(p_hats)
        trials = [
            json.loads(line)
            for line in (tmp_path / "learn-trials.jsonl").read_text().splitlines()
        ]
        assert len(trials) == 40
        assert (tmp_path / "learn-curve.svg").read_text().startswith("<svg ")

    def test_random_search_learner_mode(self, tmp_path, capsys):
        assert run_cli(
            "learn", "--learner", "random-search", "--epsilon-target", "0.3",
            "--trials", "30", "--budget", "500", "--grid", "1,10,100",
            "--out", str(tmp_path), "--seed", "3",
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "learn-curve.csv").exists()

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path, capsys):
        for sub, workers in (("w1", "1"), ("w2", "2")):
            run_cli(
                "learn", "--eta", "0.2465", "--trials", "32", "--seed", "11",
                "--workers", workers, "--out", str(tmp_path / sub),
            )
        capsys.readouterr()
        for name in ("learn-curve.csv", "learn-trials.jsonl"):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name
            ).read_bytes()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_step_size_exits_2(self, capsys, tmp_path, value):
        # an infinite step once trained NaN weights and exited 0 with p_hat = 0
        out = tmp_path / "out"
        assert run_cli("learn", "--step-size", value, "--trials", "30", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "step size must be positive and finite" in err
        assert not out.exists() or not any(out.iterdir())

    def test_too_few_trials_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        assert run_cli("learn", "--trials", "10") == 2
        assert "at least 30" in capsys.readouterr().err

    def test_unlearnable_noise_exits_2_without_samples(self, capsys):
        assert run_cli(
            "learn", "--eta", "0.7", "--budget", "0", "--trials", "30", "--grid", "1"
        ) == 2
        assert "unlearnable" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_grid_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        if source == "flag":
            argv = ("--grid", "")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grid": []}))
            argv = ("--config", str(config))
        assert run_cli("learn", "--trials", "30", *argv) == 2
        assert "sample grid is empty" in capsys.readouterr().err

    def test_a_decreasing_grid_exits_2_before_any_trial(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        argv = ("--grid", "50,25", "--trials", "100", "--eta", "0.4", "--budget", "2000")
        assert run_cli("learn", *argv) == 2
        err = capsys.readouterr().err
        assert "sample grid must be strictly increasing positive integers" in err


class TestSweepEta:
    def test_single_point_sweep(self, tmp_path, capsys):
        assert run_cli(
            "sweep-eta", "--eta-grid", "0.03", "--trials", "30",
            "--out", str(tmp_path), "--seed", "5",
        ) == 0
        out = capsys.readouterr().out
        assert "crossing" in out
        rows = (tmp_path / "sweep-eta.csv").read_text().splitlines()
        assert len(rows) == 2
        header = rows[0].split(",")
        row = dict(zip(header, rows[1].split(",")))
        assert float(row["eta_a"]) == 0.03
        assert float(row["eta_e"]) == pytest.approx(
            eve_noise_from_disturbance("collective", 0.03), rel=1e-12
        )
        assert row["bands_overlap"] in ("true", "false")

    @pytest.mark.parametrize(
        "grid, message",
        [("0.0,0.03", "signal-free"), ("", "eta grid is empty")],
        ids=["zero-point", "empty-grid"],
    )
    def test_zero_disturbance_grid_point_exits_2(self, capsys, grid, message):
        assert run_cli("sweep-eta", "--eta-grid", grid, "--trials", "30") == 2
        assert message in capsys.readouterr().err

    def test_a_late_bad_grid_point_exits_2_before_any_trial(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        assert run_cli("sweep-eta", "--eta-grid", "0.01,0.7", "--trials", "30") == 2
        assert "eta grid values must lie in (0, 1/2); got 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--trials", "10"), "need at least 30 trials for interval estimates, got 10"),
            (("--n-op", "0"), "sample grid point must be >= 1, got 0"),
        ],
        ids=["trials", "n-op"],
    )
    def test_bad_trial_option_exits_2_before_any_trial(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        assert run_cli("sweep-eta", *flags) == 2
        assert message in capsys.readouterr().err

    def test_each_party_batch_replays_from_its_point_seed(self, tmp_path, capsys):
        assert run_cli(
            "sweep-eta", "--eta-grid", "0.05,0.03", "--trials", "30",
            "--out", str(tmp_path), "--seed", "5",
        ) == 0
        capsys.readouterr()
        rows = (tmp_path / "sweep-eta.csv").read_text().splitlines()
        row = dict(zip(rows[0].split(","), rows[2].split(",")))
        task = generate_task(8, 6.0, 42, epsilon_target=0.03)
        # grid index 1; party 0 is the authorized learner, party 1 the eavesdropper
        for party, (suffix, eta) in enumerate((("a", 0.03), ("e", float(row["eta_e"])))):
            base_seed = cli_module._point_seed(5, 1, party)
            trials = run_trials(task, eta, 0.03, LearnerConfig(), 25, 30, base_seed=base_seed)
            point = estimate_learning_probability(trials, [25]).points[0]
            assert repr(point.p_hat) == row[f"p_hat_{suffix}"]


class TestHistograms:
    @pytest.mark.parametrize("value", ["0", "0.7"])
    def test_out_of_range_disturbance_exits_2_before_any_trial(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        assert run_cli("histograms", "--eta-a", value) == 2
        err = capsys.readouterr().err
        assert f"eta_a must lie in (0, 1/2); got {float(value)}" in err and "signal-free" in err

    def test_partition_and_conservation(self, tmp_path, capsys):
        assert run_cli(
            "histograms", "--trials", "30", "--out", str(tmp_path), "--seed", "8",
        ) == 0
        capsys.readouterr()
        rows = (tmp_path / "histograms.csv").read_text().splitlines()
        assert rows[0] == "bin_low,bin_high,count_authorized,count_eavesdropper"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 100
        assert body[0][0] == "0.0" and body[-1][1] == "1.0"
        widths = {round(float(hi) - float(lo), 10) for lo, hi, _, _ in body}
        assert widths == {0.01}
        assert sum(int(r[2]) for r in body) == 30
        assert sum(int(r[3]) for r in body) == 30

    def test_authorized_mass_sits_at_the_target(self, tmp_path, capsys):
        run_cli(
            "histograms", "--trials", "30", "--eta-a", "0.01",
            "--out", str(tmp_path), "--seed", "9",
        )
        capsys.readouterr()
        rows = [r.split(",") for r in (tmp_path / "histograms.csv").read_text().splitlines()[1:]]
        below_target = sum(int(r[2]) for r in rows if float(r[0]) < 0.04)
        assert below_target == 30


class TestConfigLayering:
    def test_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eta": 0.3, "trials": 30}))
        run_cli(
            "learn", "--config", str(config), "--eta", "0.05",
            "--out", str(tmp_path / "out"),
        )
        capsys.readouterr()
        summary = read_summary(tmp_path / "out", "learn")
        assert summary["config"]["eta"] == 0.05
        assert summary["config"]["trials"] == 30

    @pytest.mark.parametrize(
        "out", ["file/sub", "link", "link/sub"],
        ids=["under-file", "dangling-link", "under-dangling-link"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("thresholds",), ("learn", "--trials", "30", "--budget", "25", "--grid", "25")],
        ids=["no-trials", "trials"],
    )
    def test_uncreatable_outdir_exits_2(self, tmp_path, capsys, monkeypatch, argv, out):
        monkeypatch.setattr(cli_module, "run_trials", _no_trials)
        blocker, link = tmp_path / "file", tmp_path / "link"
        blocker.write_text("")
        link.symlink_to(tmp_path / "missing")
        assert run_cli(*argv, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        # refused at the blocking file or link, before any work
        assert err.rstrip().endswith(f"{tmp_path / out.split('/')[0]} is not a directory")
        assert blocker.read_text() == "" and sorted(tmp_path.iterdir()) == [blocker, link]

    def test_env_supplies_default_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QLABELSEC_OUTDIR", str(tmp_path / "envout"))
        run_cli("thresholds")
        capsys.readouterr()
        assert (tmp_path / "envout" / "thresholds.csv").exists()

    def test_config_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QLABELSEC_OUTDIR", str(tmp_path / "envout"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "cfgout")}))
        run_cli("thresholds", "--config", str(config))
        capsys.readouterr()
        assert (tmp_path / "cfgout" / "thresholds.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_env_worker_count_is_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QLABELSEC_WORKERS", "2")
        run_cli(
            "learn", "--trials", "32", "--eta", "0.11", "--seed", "11",
            "--out", str(tmp_path),
        )
        capsys.readouterr()
        assert read_summary(tmp_path, "learn")["config"]["workers"] == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1.0}))
        assert run_cli("learn", "--config", str(config)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, values, message",
        [
            (("protocol-run", "--target-data", "10"), {"policy": "bogus"},
             "policy must be one of alwaysZ, randomPerLeg"),
            (("sweep-eta",), {"attack_kind": "memoryless"}, "attack_kind must be one of"),
            (("learn",), {"trials": 30.9}, "bad value for 'trials'"),
            (("learn",), {"trials": 30, "seed": 1.5}, "bad value for 'seed'"),
            (("histograms",), {"budget": True}, "bad value for 'budget'"),
        ],
        ids=["choice", "choice-shared", "fraction", "fraction-seed", "bool"],
    )
    def test_config_value_is_checked_like_a_flag(self, tmp_path, capsys, argv, values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert run_cli(*argv, "--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("thresholds",), 0),
            (("protocol-run", "--target-data", "10"), 0),
            (("learn", "--trials", "30"), 2),
        ],
        ids=["thresholds", "protocol-run", "learn"],
    )
    def test_worker_env_only_read_by_trial_commands(
        self, tmp_path, capsys, monkeypatch, argv, code
    ):
        monkeypatch.setenv("QLABELSEC_WORKERS", "abc")
        assert run_cli(*argv, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "bad value for 'workers'" in err


_TASK_ECHO = {"dimension": 8, "separation": 6.0, "task_seed": 42}
_TRIAL_ECHO = _TASK_ECHO | {
    "seed": 0,
    "svg": False,
    "workers": 1,
    "epsilon_target": 0.03,
    "model": "linear-threshold",
    "hidden_width": 8,
    "step_size": 0.3,
    "batch_size": 5,
    "cadence": 25,
}


class TestHelp:
    @pytest.mark.parametrize("command", ["learn", "sweep-eta"])
    def test_trials_help_states_the_minimum(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            run_cli(command, "--help")
        assert stop.value.code == 0
        entry = capsys.readouterr().out.split("--trials TRIALS", 2)[2].split("\n  --")[0]
        assert f"at least {MIN_TRIALS} " in " ".join(entry.split())

    def test_strict_abort_help_names_the_authorized_dataset(self, capsys):
        # a strict abort empties only the authorized dataset; Eve keeps hers
        with pytest.raises(SystemExit):
            run_cli("protocol-run", "--help")
        entry = capsys.readouterr().out.split("\n  --strict-abort", 1)[1].split("\n  --")[0]
        assert " ".join(entry.split()) == "empty the authorized dataset on abort"


class TestResolvedDefaults:
    """The summary echoes every option a command reads, at its default."""

    @pytest.mark.parametrize(
        "command, flags, echo",
        [
            ("bounds", ("--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0"),
             {"epsilon": 0.1, "delta": 0.05, "log_h": 1.0, "eta": 0.0, "n": [], "seed": 0}),
            ("thresholds", (), {"seed": 0}),
            ("protocol-run", ("--target-data", "100"), _TASK_ECHO | {
                "seed": 0, "target_data": 100, "attack": "none", "fraction": 1.0,
                "policy": "alwaysZ", "legs": "both", "disturbance": 0.05,
                "abort_threshold": None, "strict_abort": False, "no_transcript": False,
            }),
            ("learn", ("--trials", "30"), _TRIAL_ECHO | {
                "eta": 0.0, "trials": 30, "budget": None, "grid": None,
                "learner": "gradient",
            }),
            ("sweep-eta", ("--trials", "30"), _TRIAL_ECHO | {
                "eta_grid": [0.01, 0.03, 0.05, 0.08, 0.11], "n_op": 25, "trials": 30,
                "attack_kind": "collective",
            }),
            ("histograms", ("--trials", "30"), _TRIAL_ECHO | {
                "eta_a": 0.03, "trials": 30, "budget": 2000, "attack_kind": "collective",
            }),
        ],
        ids=["bounds", "thresholds", "protocol-run", "learn", "sweep-eta", "histograms"],
    )
    def test_summary_echoes_the_defaults(
        self, tmp_path, capsys, monkeypatch, command, flags, echo
    ):
        monkeypatch.delenv("QLABELSEC_WORKERS", raising=False)
        assert run_cli(command, *flags, "--out", str(tmp_path)) == 0
        capsys.readouterr()
        assert read_summary(tmp_path, command)["config"] == echo


class TestSummarySchema:
    def test_summaries_validate(self, tmp_path, capsys, schema):
        flags = {
            "bounds": ("--epsilon", "0.1", "--delta", "0.05", "--log-h", "1.0", "--n", "100"),
            "thresholds": (),
            "protocol-run": ("--target-data", "100"),
            "learn": ("--trials", "30"),
            "sweep-eta": ("--trials", "30"),
            "histograms": ("--trials", "30"),
            "selfcheck": (),
        }
        assert list(flags) == list(cli_module._COMMANDS)
        assert list(flags) == schema["properties"]["command"]["enum"]
        for command, argv in flags.items():
            assert run_cli(command, *argv, "--out", str(tmp_path)) == 0, command
        capsys.readouterr()
        for command in flags:
            jsonschema.validate(read_summary(tmp_path, command), schema)


class TestSelfcheck:
    def test_passes_at_default_tolerance(self, tmp_path, capsys):
        assert run_cli("selfcheck", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        results = read_summary(tmp_path, "selfcheck")["results"]
        assert 0.0 < results["collective_residual"] < 1e-9
        assert results["protocol_pull"] <= cli_module._MAX_SIGMA
        assert results["eve_label_error_rate"] == 0.0
        law = results["random_search_law"]
        assert [point["n"] for point in law] == [1, 5, 10, 25]
        assert all(point["pull"] <= cli_module._MAX_SIGMA for point in law)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["selfcheck-summary.json"]

    def test_seed_0_results_are_pinned(self, tmp_path, capsys):
        # seed 0's pulls, to the last bit
        assert run_cli("selfcheck", "--seed", "0", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        results = read_summary(tmp_path, "selfcheck")["results"]
        assert results["protocol_pull"] == 1.0213022814527497
        assert results["random_search_law"] == [
            {"n": 1, "pull": 1.7392527130926076},
            {"n": 5, "pull": 0.5174259875058538},
            {"n": 10, "pull": 0.9832251323020715},
            {"n": 25, "pull": 0.9164372653863789},
        ]

    def test_impossible_tolerance_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "_MAX_SIGMA", 0.001)
        out = tmp_path / "out"
        assert run_cli("selfcheck", "--out", str(out)) == 3
        assert "selfcheck failed" in capsys.readouterr().err
        assert not out.exists()

    def test_pull_limit_is_not_an_option(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_sigma": 0.001}))
        assert run_cli("selfcheck", "--config", str(config)) == 2
        assert "unknown config keys for selfcheck: max_sigma" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run_cli("selfcheck", "--max-sigma", "0.001")


class TestSeedValidation:
    """A seed that is not a non-negative integer exits 2 before any output file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("learn", "--trials", "30"),
            ("sweep-eta", "--trials", "30"),
            ("histograms", "--trials", "30"),
            ("protocol-run", "--target-data", "100"),
            ("selfcheck",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ("learn", "--trials", "30"),
            ("sweep-eta", "--trials", "30"),
            ("histograms", "--trials", "30"),
            ("protocol-run", "--target-data", "100"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_task_seed_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--task-seed", "-1", "--out", str(out)) == 2
        assert "task seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestTaskValidation:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("learn", "--trials", "30"),
            ("sweep-eta", "--trials", "30"),
            ("histograms", "--trials", "30"),
            ("protocol-run", "--target-data", "10"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_separation_exits_2(self, capsys, tmp_path, argv, value):
        # an infinite separation once built infinite inputs and an all-zero curve
        out = tmp_path / "out"
        assert run_cli(*argv, f"--separation={value}", "--out", str(out)) == 2
        assert "separation must be positive and finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# The README's eight invocations with --seed 7; the output directory is added
# per command.
_README_COMMANDS = (
    ("bounds", "--epsilon", "0.03", "--delta", "0.2", "--log-h", "29.7", "--eta", "0.03",
     "--n", "1000,10000"),
    ("thresholds",),
    ("protocol-run", "--target-data", "2000", "--attack", "intercept-resend",
     "--fraction", "0.5", "--policy", "alwaysZ"),
    ("learn", "--eta", "0.05", "--trials", "150", "--grid", "25,50,100,200", "--svg"),
    ("learn", "--learner", "random-search", "--trials", "150"),
    ("sweep-eta", "--eta-grid", "0.01,0.03,0.110028", "--trials", "150"),
    ("histograms", "--eta-a", "0.03", "--trials", "150", "--svg"),
    ("selfcheck",),
)
# sha256 over each command's exit code, stdout and output files, the summaries
# without their provenance timestamp
_README_DIGEST = "84198823fa7f20087ec00fb1029d4f79a6c3bfea321db549b28f51ba2a1825e3"


@pytest.mark.blas_pins
class TestReadmeOutputPin:
    def test_readme_commands_match_the_pin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QLABELSEC_OUTDIR", raising=False)
        monkeypatch.delenv("QLABELSEC_WORKERS", raising=False)
        digest = hashlib.sha256()
        for index, argv in enumerate(_README_COMMANDS):
            out = tmp_path / str(index)
            code = run_cli(*argv, "--seed", "7", "--out", str(out))
            digest.update(f"{argv[0]} exit {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                if path.name.endswith("-summary.json"):
                    summary = json.loads(data)
                    del summary["provenance"]["timestamp"]
                    data = json.dumps(summary, sort_keys=True).encode()
                digest.update(f"{path.name} {len(data)}\n".encode() + data)
        assert digest.hexdigest() == _README_DIGEST
