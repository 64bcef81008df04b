import math
import os
import string
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclewalk import (
    CoinParams,
    ConfigError,
    ExperimentConfig,
    NoiseModel,
    OptLevel,
    config_from_text,
    config_to_text,
    default_coins,
    dump_circuit,
    from_text,
    run_depth_report,
    run_experiment,
    run_period_scan,
)
from cyclewalk.cli import main
from cyclewalk.experiments import (
    SUPPORTED_CYCLES,
    _derived_seed,
    build_walk_circuit,
)
from cyclewalk.metrics import hellinger_fidelity
from cyclewalk.simulate import (
    BundleCache,
    _noisy_events,
    measure_positions,
    readout_distribution,
    run_exact,
    run_noisy,
)
from cyclewalk.transpile import insert_dd, schedule, transpile
from cyclewalk.walk import parrondo_schedule
from conftest import ground_state

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(
    [*(ROOT / "demos" / "configs").glob("*.cfg"), *(ROOT / "perfbench" / "configs").glob("*.cfg")]
)


def small_config(tmp_path, **overrides):
    kwargs = dict(
        cycle=4,
        coins=default_coins(4),
        pattern="AABB",
        t_max=6,
        shots=500,
        seed=11,
        opt_level=OptLevel.L1,
        noise=None,
        dd="none",
        out_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@st.composite
def noise_models(draw):
    """Any valid NoiseModel: probabilities in [0, 1], t1 and t2 positive or
    infinite with t2 <= 2 t1, finite non-negative durations."""
    prob = st.floats(0.0, 1.0)
    time = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    t1 = draw(st.one_of(st.just(math.inf), time))
    t2_max = math.inf if math.isinf(t1) else min(2.0 * t1, sys.float_info.max)
    t2 = draw(st.one_of(st.just(t2_max), st.floats(0.0, t2_max, exclude_min=True)))
    duration = st.floats(min_value=0.0, allow_infinity=False)
    return NoiseModel(
        p1=draw(prob), p2=draw(prob), t1=t1, t2=t2, dur_1q=draw(duration),
        dur_2q=draw(duration), dur_idle_unit=draw(duration), readout_flip=draw(prob),
    )


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig with explicit coins: labels are letters A-Z,
    and the two paths are single lines with no surrounding whitespace."""
    letters = st.sampled_from(string.ascii_uppercase)
    labels = draw(st.lists(letters, min_size=1, max_size=4, unique=True))
    phase = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
    coins = {
        label: CoinParams(draw(st.floats(0.0, 1.0)), draw(phase), draw(phase)) for label in labels
    }
    noise = draw(st.one_of(st.none(), noise_models()))
    paths = st.text().filter(lambda p: p == p.strip() and len(p.splitlines()) <= 1)
    return ExperimentConfig(
        cycle=draw(st.sampled_from(SUPPORTED_CYCLES)),
        coins=coins,
        pattern="".join(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))),
        t_max=draw(st.integers(min_value=1)),
        shots=draw(st.integers(min_value=0)),
        seed=draw(st.integers()),
        opt_level=draw(st.sampled_from(OptLevel)),
        noise=noise,
        dd=draw(st.sampled_from(["none"] if noise is None else ["none", "xy4"])),
        out_dir=draw(paths),
        overlay=draw(paths),
    )


@settings(max_examples=100, deadline=None)
@given(experiment_configs())
def test_config_text_round_trip(cfg):
    assert config_from_text(config_to_text(cfg)) == cfg


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path, noise=NoiseModel(p1=1e-3), dd="xy4")
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_round_trip_without_noise(self, tmp_path):
        cfg = small_config(tmp_path)
        assert config_from_text(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_parse_and_round_trip(self, path):
        cfg = config_from_text(path.read_text())
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_manifest_with_meta_parses_back(self, tmp_path):
        cfg = small_config(tmp_path, t_max=1, shots=0)
        manifest = run_experiment(cfg)["manifest"].read_text()
        assert "[meta]" in manifest
        assert config_from_text(manifest) == cfg

    def test_default_coins_follow_cycle(self):
        assert ExperimentConfig(cycle=3).coins == default_coins(3)
        assert config_from_text("[experiment]\ncycle = 8\n").coins == default_coins(8)

    def test_bad_cycle(self):
        with pytest.raises(ConfigError, match="cycle"):
            ExperimentConfig(cycle=5)

    def test_unbound_pattern_label(self):
        with pytest.raises(ConfigError, match="pattern"):
            ExperimentConfig(pattern="AAC")

    @pytest.mark.parametrize("label", ["a", "1", "AB", "%"])
    def test_coin_label_must_be_a_letter(self, label):
        with pytest.raises(ConfigError, match="coins: label"):
            ExperimentConfig(coins={label: CoinParams(0.5)}, pattern=label)

    @pytest.mark.parametrize("path", [" results", "results\n", "a\nb", "a\u2028b"])
    def test_path_must_be_one_stripped_line(self, path):
        with pytest.raises(ConfigError, match="out: .* must be one line"):
            ExperimentConfig(out_dir=path)
        with pytest.raises(ConfigError, match="overlay: .* must be one line"):
            ExperimentConfig(overlay=path)

    def test_percent_signs_round_trip(self, tmp_path):
        # values are not interpolated
        cfg = small_config(tmp_path, out_dir=str(tmp_path / "100%"), overlay="a%(b)s.csv")
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_dd_requires_noise(self):
        with pytest.raises(ConfigError, match="dd"):
            ExperimentConfig(dd="xy4")

    def test_parse_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="experiment.cycle"):
            config_from_text("[experiment]\ncycle = four\n")
        with pytest.raises(ConfigError, match="coins.a"):
            config_from_text("[experiment]\ncycle = 4\n[coins]\na = 0.5\n")
        with pytest.raises(ConfigError, match="noise"):
            config_from_text("[experiment]\ncycle = 4\n[noise]\np1 = 2.0\n")
        cases = {
            "[experiment]\nshot = 0\n": "experiment.shot: unknown key",
            "[experiment]\ncycle = 4\n[nosie]\np1 = 0.1\n": r"\[nosie\]: unknown section",
            "[experiment]\ncycle = 4\n[noise]\np3 = 0.1\n": "noise.p3: unknown key",
            "[experiment]\nopt_level = 2\n": "experiment.opt_level: must be 0, 1 or 3",
            "[experiment]\npattern =\n": "experiment.pattern: must not be empty",
            "[experiment]\ncycle = 4\n[noise]\nt1 = soon\n": "noise.t1: cannot parse",
        }
        for text, message in cases.items():
            with pytest.raises(ConfigError, match=message):
                config_from_text(text)

    def test_default_coins_per_cycle(self):
        assert default_coins(4)["A"] == CoinParams(0.998489)
        assert default_coins(3)["B"] == CoinParams(0.801571)
        assert default_coins(8)["A"] == CoinParams(0.5)


class TestRunExperiment:
    def test_bundle_files(self, tmp_path):
        cfg = small_config(tmp_path, noise=NoiseModel(p1=1e-3, p2=5e-3))
        paths = run_experiment(cfg)
        for key in ("probability_csv", "fidelity_csv", "probability_svg", "fidelity_svg", "manifest"):
            assert paths[key].exists(), key
        header = paths["probability_csv"].read_text().splitlines()[0]
        assert header == "t,exact,sampled,noisy"
        svg = paths["probability_svg"].read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        first = {k: p.read_bytes() for k, p in run_experiment(cfg).items()}
        second = {k: p.read_bytes() for k, p in run_experiment(cfg).items()}
        assert first == second

    def test_manifest_regenerates_bundle(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = run_experiment(cfg)
        prob = paths["probability_csv"].read_bytes()
        regenerated = config_from_text(paths["manifest"].read_text())
        assert regenerated == cfg
        paths2 = run_experiment(regenerated)
        assert paths2["probability_csv"].read_bytes() == prob

    def test_parrondo_curve_peaks_only_at_20(self, tmp_path):
        cfg = small_config(tmp_path, t_max=25, shots=0)
        paths = run_experiment(cfg)
        rows = paths["probability_csv"].read_text().splitlines()[1:]
        values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert values[20] == pytest.approx(1.0, abs=1e-6)
        assert all(v < 0.999 for t, v in values.items() if t != 20)

    def test_chaotic_curve_never_returns(self, tmp_path):
        cfg = small_config(tmp_path, pattern="A", t_max=25, shots=0)
        paths = run_experiment(cfg)
        rows = paths["probability_csv"].read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) < 0.999 for r in rows)

    def test_sampled_fidelity_close_to_one(self, tmp_path):
        cfg = small_config(tmp_path, shots=100_000, t_max=5)
        paths = run_experiment(cfg)
        rows = paths["fidelity_csv"].read_text().splitlines()[2:]
        assert all(float(r.split(",")[1]) >= 0.999 for r in rows)


class TestPeriodScan:
    def test_hadamard_cycles(self):
        strict, loose, csv_text = run_period_scan(4, CoinParams(0.5), 100)
        assert loose.period == 8 and strict.period == 8
        assert "strict,8" in csv_text
        _, loose8, _ = run_period_scan(8, CoinParams(0.5), 100)
        assert loose8.period == 24

    @pytest.mark.parametrize("cycle, t_max", [(2, 100), (4, 0)])
    def test_out_of_range_is_config_error(self, cycle, t_max):
        with pytest.raises(ConfigError, match="cycle" if cycle < 3 else "t_max"):
            run_period_scan(cycle, CoinParams(0.5), t_max)

    def test_3cycle_regressions(self):
        assert run_period_scan(3, CoinParams(2 / 3), 100)[1].period == 8
        assert run_period_scan(3, CoinParams((5 - math.sqrt(5)) / 6), 100)[1].period == 10

    def test_split_at_the_tolerance_is_accepted(self, capsys):
        # power residual 1.1e-8 at t = 2 against eigen 5.5e-9, one tol of 1e-8:
        # the power method passes at t = 2 with tol widened by 2 sqrt(dim)
        assert main(["period-scan", "--cycle", "3", "--coin", "1e-17,0,0"]) == 0
        _, loose, csv_text = run_period_scan(3, CoinParams(1e-17), 1000)
        assert loose.period is None
        assert "phase_insensitive,,1.09" in csv_text

    def test_genuine_disagreement_raises(self, monkeypatch):
        import cyclewalk.experiments as experiments

        monkeypatch.setattr(
            experiments, "find_period_eigen",
            lambda u, t_max, **kw: experiments.PeriodResult(3, 0.0, t_max),
        )
        with pytest.raises(ArithmeticError, match="power 8 vs eigen 3"):
            run_period_scan(4, CoinParams(0.5), 100)

    def test_split_must_close_at_the_other_period(self, monkeypatch):
        # eigen misses power's period 8 and, with the wider tol, passes at
        # t = 4 instead: the finders still disagree
        import cyclewalk.experiments as experiments

        monkeypatch.setattr(
            experiments, "find_period_eigen",
            lambda u, t_max, **kw: experiments.PeriodResult(16 if t_max > 8 else 4, 0.0, t_max),
        )
        with pytest.raises(ArithmeticError, match="power 8 vs eigen 16"):
            run_period_scan(4, CoinParams(0.5), 100)


class TestDepthReport:
    def test_logical_3cycle_formula(self):
        csv_text = run_depth_report(3, "AABB", t_max=25, opt_level="logical")
        for row in csv_text.splitlines()[1:]:
            t, logical_depth, native_depth, c1, c2 = (int(x) for x in row.split(","))
            assert logical_depth == 14 + 3 * t
            assert native_depth == logical_depth
            assert c2 == 6 + 2 * t

    def test_l3_native_depth_constant(self):
        csv_text = run_depth_report(4, "AABB", t_max=8, opt_level=3)
        depths = {int(r.split(",")[2]) for r in csv_text.splitlines()[1:]}
        assert len(depths) == 1

    @pytest.mark.parametrize(
        "pattern, t_max, message",
        [("", 3, "pattern: must not be empty"), ("AABB", 0, "t_max: must be >= 1"),
         ("AAC", 3, "pattern: labels")],
    )
    def test_out_of_range_is_config_error(self, pattern, t_max, message):
        with pytest.raises(ConfigError, match=message):
            run_depth_report(4, pattern, t_max=t_max)

    def test_l0_native_depth_increases(self):
        csv_text = run_depth_report(4, "AABB", t_max=8, opt_level=0)
        depths = [int(r.split(",")[2]) for r in csv_text.splitlines()[1:]]
        assert all(b > a for a, b in zip(depths, depths[1:]))


class TestDumpCircuit:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        text = dump_circuit(cfg, 3)
        rt = from_text(text)
        from cyclewalk.circuit import to_text

        assert to_text(rt) == text

    def test_zero_steps_is_fourier_blocks_only(self, tmp_path):
        cfg = small_config(tmp_path)
        text = dump_circuit(cfg, 0)
        body = [ln for ln in text.splitlines()[1:] if ln]
        kinds = {ln.split()[0] for ln in body}
        assert kinds == {"H", "CP", "BARRIER"}

    def test_3cycle_step_body_matches_listing(self, tmp_path):
        # per-step gate list: coin, P(-4pi/3) on q0, P(-2pi/3) on q1,
        # controlled P(4pi/3) on q1, controlled P(8pi/3) on q0
        cfg = small_config(tmp_path, cycle=3, coins=default_coins(3))
        text = dump_circuit(cfg, 1)
        lines = text.splitlines()
        barriers = [i for i, ln in enumerate(lines) if ln.startswith("BARRIER")]
        body = lines[barriers[0] + 1 : barriers[1]]
        assert body[0].startswith("UNITARY 2")
        assert body[1] == f"PHASE 0 {-4 * math.pi / 3!r}"
        assert body[2] == f"PHASE 1 {-2 * math.pi / 3!r}"
        assert body[3] == f"CP 2 1 {4 * math.pi / 3!r}"
        assert body[4] == f"CP 2 0 {8 * math.pi / 3!r}"

    def test_negative_steps_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="t: must be >= 0"):
            dump_circuit(small_config(tmp_path), -1)

    def test_native_dump_is_native_only(self, tmp_path):
        cfg = small_config(tmp_path)
        text = dump_circuit(cfg, 2, native=True)
        kinds = {ln.split()[0] for ln in text.splitlines()[1:] if ln}
        assert kinds <= {"ID", "RZ", "SX", "X", "ECR", "BARRIER"}


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path, t_max=3, shots=100)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "probability.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_field_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\ncycle = 5\n")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\ncycle = 4\npattern =\n", "experiment.pattern: must not be empty"),
            ("[experiment]\ncycle = 4\nshot = 0\n", "experiment.shot: unknown key"),
            ("[experiment]\ncycle = 4\n[nosie]\np1 = 0.1\n", "[nosie]: unknown section"),
            ("[experiment]\ncycle = 4\nshots = -1\n", "experiment.shots: must be >= 0"),
            ("[experiment]\ncycle = 4\ndd = xy8\n", "experiment.dd: must be 'none' or 'xy4'"),
            ("[coins]\nA = 0.5, 0.0, 0.0\n", "config: missing [experiment] section"),
            # configparser's own error, wrapped as a located config error
            ("[experiment]\ncycle = 4\ncycle = 3\n", "config: While reading from"),
        ],
        ids=["empty-pattern", "unknown-key", "unknown-section", "negative-shots", "unknown-dd",
             "no-experiment-section", "duplicate-key"],
    )
    def test_rejected_config_exits_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path, t_max=3, shots=100)))
        out2 = tmp_path / "other"
        assert main(["run", "--config", str(cfg_path), "--out", str(out2), "--shots", "50"]) == 0
        assert (out2 / "probability.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["period-scan", "--cycle", "4", "--coin", "0.5,0,0", "--t-max", "0"],
            ["period-scan", "--cycle", "2", "--coin", "0.5,0,0"],
            ["depth-report", "--cycle", "4", "--pattern", ""],
            ["depth-report", "--cycle", "4", "--t-max", "0"],
            ["depth-report", "--cycle", "5"],
            ["period-scan", "--cycle", "4", "--coin", "x,0,0"],
        ],
        ids=["scan-t-max-0", "scan-cycle-2", "depth-empty-pattern", "depth-t-max-0",
             "depth-cycle-5", "scan-coin-not-a-number"],
    )
    def test_out_of_range_arguments_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "noise_text",
        ["[noise]\np1 = 0.001\n", "[experiment]\nseed = 3\n\n[noise]\np1 = 0.001\n"],
        ids=["noise-only", "config-without-cycle"],
    )
    def test_noise_file(self, tmp_path, noise_text):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path, t_max=2, shots=0)))
        noise_path = tmp_path / "noise.cfg"
        noise_path.write_text(noise_text)
        assert main(["run", "--config", str(cfg_path), "--noise", str(noise_path)]) == 0
        out = tmp_path / "out"
        assert (out / "probability.csv").read_text().splitlines()[0] == "t,exact,noisy"
        assert config_from_text((out / "manifest").read_text()).noise == NoiseModel(p1=0.001)

    def test_noise_file_without_noise_section(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path, t_max=2, shots=0)))
        assert main(["run", "--config", str(cfg_path), "--noise", str(cfg_path)]) == 2

    def test_period_scan_output(self, capsys):
        assert main(["period-scan", "--cycle", "4", "--coin", "0.5,0,0"]) == 0
        out = capsys.readouterr().out
        assert "period=8" in out

    def test_period_scan_bad_coin(self, capsys):
        assert main(["period-scan", "--cycle", "4", "--coin", "0.5"]) == 2

    def test_runtime_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # any error other than a config error is printed and exits 1
        import cyclewalk.cli as cli

        def fails(cfg):
            raise ArithmeticError("statevector norm drifted to nan")

        monkeypatch.setattr(cli, "run_experiment", fails)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path, t_max=2, shots=0)))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: statevector norm drifted to nan\n"

    def test_depth_report_out_dir(self, tmp_path, capsys):
        assert main(["depth-report", "--cycle", "3", "--t-max", "3", "--out", str(tmp_path)]) == 0
        path = tmp_path / "depth_report.csv"
        assert capsys.readouterr().out == f"csv: {path}\n"
        assert path.read_text() == run_depth_report(3, "AABB", 3, "logical")

    def test_depth_report_stdout(self, capsys):
        assert main(["depth-report", "--cycle", "3", "--t-max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,logical_depth")

    def test_dump_circuit_stdout(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_to_text(small_config(tmp_path)))
        assert main(["dump-circuit", "--config", str(cfg_path), "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("width=3")

    def test_unwritable_output_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            config_to_text(small_config(tmp_path, t_max=2, shots=0, out_dir=str(target)))
        )
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--config", "{dir}"], "config"),
            (["run", "--config", "{utf16}"], "config"),
            (["run", "--config", "{cfg}", "--noise", "{dir}"], "noise"),
            (["run", "--config", "{cfg}", "--overlay", "{dir}"], "overlay"),
            (["run", "--config", "{cfg}", "--out", "{file}"], "out"),
            (["depth-report", "--cycle", "4", "--t-max", "1", "--out", "{file}"], "out"),
            (["period-scan", "--cycle", "4", "--coin", "0.5,0,0", "--t-max", "1",
              "--out", "{file}"], "out"),
            (["dump-circuit", "--config", "{cfg}", "--t", "1", "--out", "{file}"], "out"),
        ],
        ids=["config-dir", "config-undecodable", "noise-dir", "overlay-dir", "run-out-file",
             "depth-out-file", "scan-out-file", "dump-out-file"],
    )
    def test_unusable_path_names_its_flag(self, tmp_path, capsys, argv, flag):
        paths = {
            "dir": tmp_path / "a-directory",
            "utf16": tmp_path / "utf16.cfg",
            "cfg": tmp_path / "exp.cfg",
            "file": tmp_path / "a-file",
        }
        paths["dir"].mkdir()
        paths["utf16"].write_bytes(b"\xff\xfe[\x00e\x00")
        paths["cfg"].write_text(config_to_text(small_config(tmp_path, t_max=1, shots=0)))
        paths["file"].write_text("a file, not a directory")
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["depth-report", "--cycle", "4", "--t-max", "1", "--out", "{out}"],
             "depth_report.csv"),
            (["period-scan", "--cycle", "4", "--coin", "0.5,0,0", "--t-max", "1",
              "--out", "{out}"], "period_scan.csv"),
            (["dump-circuit", "--config", "{cfg}", "--t", "1", "--out", "{out}"], "circuit.txt"),
            (["run", "--config", "{cfg}", "--out", "{out}"], "probability.csv"),
            (["run", "--config", "{cfg}", "--out", "{out}"], "manifest"),
        ],
        ids=["depth-report", "period-scan", "dump-circuit", "run-csv", "run-manifest"],
    )
    def test_unwritable_output_file_names_out(self, tmp_path, capsys, argv, blocked):
        out, cfg = tmp_path / "out", tmp_path / "exp.cfg"
        (out / blocked).mkdir(parents=True)  # a directory where the file goes
        cfg.write_text(config_to_text(small_config(tmp_path, t_max=1, shots=0)))
        assert main([arg.format(out=out, cfg=cfg) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("config error: out: cannot write ")


def fresh_row(cfg: ExperimentConfig, t: int) -> dict[str, float]:
    """The bundle's values at step t from one-shot calls, with no bundle cache."""
    circuit = build_walk_circuit(cfg.cycle, cfg.schedule(), t)
    state = run_exact(circuit, ground_state(circuit.width))
    exact = measure_positions(state, circuit.measured)
    sampled = measure_positions(
        state, circuit.measured, shots=cfg.shots, seed=_derived_seed(cfg.seed, t)
    )
    sc = schedule(transpile(circuit, cfg.opt_level), cfg.noise)
    if cfg.dd == "xy4":
        sc = insert_dd(sc, cfg.noise)
    rho0 = np.outer(ground_state(circuit.width), ground_state(circuit.width))
    noisy = readout_distribution(run_noisy(sc, rho0, cfg.noise), circuit.measured, cfg.noise)
    return {
        "p_exact": exact.outcomes[0],
        "p_sampled": sampled.outcomes[0] / cfg.shots,
        "p_noisy": noisy.outcomes[0],
        "f_sampled": hellinger_fidelity(sampled, exact),
        "f_noisy": hellinger_fidelity(noisy, exact),
    }


def bundle_rows(paths) -> list[dict[str, float]]:
    columns = {}
    for prefix, key in (("p_", "probability_csv"), ("f_", "fidelity_csv")):
        lines = [ln for ln in paths[key].read_text().splitlines() if not ln.startswith("#")]
        header, *rows = [ln.split(",") for ln in lines]
        for i, name in enumerate(header[1:], 1):
            columns[prefix + name] = [float(row[i]) for row in rows]
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


ONE_SHOT = """
import numpy as np
from cyclewalk import NoiseModel, run_noisy, schedule, to_text, transpile
from cyclewalk.experiments import build_walk_circuit, default_coins
from cyclewalk.walk import parrondo_schedule
circuit = build_walk_circuit(8, parrondo_schedule("AABB", default_coins(8), 2), 2)
native = to_text(transpile(circuit, 1))
rho0 = np.zeros((16, 16), dtype=complex)
rho0[0, 0] = 1.0
rho = run_noisy(schedule(transpile(circuit, 1), NoiseModel()), rho0, NoiseModel()).tobytes().hex()
"""


class TestBundleCache:
    @pytest.mark.parametrize("config", [
        "demos/configs/parrondo_4cycle.cfg",
        "demos/configs/parrondo_3cycle_dd.cfg",
        "perfbench/configs/hadamard_8cycle_dd.cfg",
    ], ids=lambda c: Path(c).stem)
    def test_bundle_equals_fresh_per_t(self, tmp_path, config):
        cfg = config_from_text((ROOT / config).read_text())
        cfg = replace(cfg, t_max=8, out_dir=str(tmp_path))
        rows = bundle_rows(run_experiment(cfg))
        assert len(rows) == 8
        for t, row in enumerate(rows, 1):
            assert row == fresh_row(cfg, t), f"t = {t}"

    def test_one_shot_after_bundle_matches_fresh_process(self, tmp_path):
        # a bundle on the width-3 4-cycle with the shipped noise, then one-shot
        # calls on the width-4 8-cycle with the default NoiseModel
        cfg = config_from_text((ROOT / "demos/configs/parrondo_4cycle.cfg").read_text())
        run_experiment(replace(cfg, t_max=4, out_dir=str(tmp_path)))
        here = {}
        exec(ONE_SHOT, {}, here)
        fresh = subprocess.run(
            [sys.executable, "-c", ONE_SHOT + "print(native); print(rho)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert fresh.stdout == f"{here['native']}\n{here['rho']}\n"

    def _kraus_per_t(self, monkeypatch, run):
        """The _apply_kraus calls of each run_noisy call made inside ``run()``,
        and the bundle caches those calls were given."""
        import cyclewalk.experiments as experiments
        import cyclewalk.simulate as simulate

        calls, per_t, caches = [0], [], []
        kraus, noisy = simulate._apply_kraus, experiments.run_noisy

        def counted_kraus(*args):
            calls[0] += 1
            return kraus(*args)

        def counted_run(*args):
            before = calls[0]
            rho = noisy(*args)
            per_t.append(calls[0] - before)
            caches.append(args[3] if len(args) > 3 else None)
            return rho

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_apply_kraus", counted_kraus)
            patch.setattr(experiments, "run_noisy", counted_run)
            run()
        return per_t, caches

    def test_l1_rho_trail_resumes(self, tmp_path, monkeypatch):
        # every t after the first shares a prefix of noisy events with t - 1,
        # so it applies fewer event superoperators than a fresh run of the same t
        cfg = config_from_text((ROOT / "demos/configs/parrondo_3cycle_dd.cfg").read_text())
        cfg = replace(cfg, t_max=4, out_dir=str(tmp_path))
        bundle, caches = self._kraus_per_t(monkeypatch, lambda: run_experiment(cfg))

        import cyclewalk.experiments as experiments

        def fresh_per_t():
            rho0 = np.outer(ground_state(3), ground_state(3))
            for t in range(1, 5):
                cache = BundleCache(cfg.noise, 3)
                native = transpile(build_walk_circuit(3, cfg.schedule(), t), cfg.opt_level, cache)
                sc = insert_dd(schedule(native, cfg.noise, cache), cfg.noise)
                experiments.run_noisy(sc, rho0, cfg.noise, cache)

        fresh, _ = self._kraus_per_t(monkeypatch, fresh_per_t)
        assert len(bundle) == len(fresh) == 4 and bundle[0] == fresh[0]
        assert all(b < f for b, f in zip(bundle[1:], fresh[1:])), (bundle, fresh)
        assert len(caches[-1].noisy.arrays) > 1

    def test_l3_records_no_rho_trail(self, tmp_path, monkeypatch):
        # an L3 bundle's t share one event plan and run as one stack: the
        # first call applies each planned event once to all three rows, the
        # others apply none, and rho keeps no trail, since no t resumes another
        cfg = config_from_text((ROOT / "demos/configs/parrondo_4cycle.cfg").read_text())
        cfg = replace(cfg, t_max=3, out_dir=str(tmp_path))
        per_t, caches = self._kraus_per_t(monkeypatch, lambda: run_experiment(cfg))
        cache = caches[0]
        assert all(c is cache for c in caches)
        assert per_t == [len(list(_noisy_events(cache.scheduled[0], cfg.noise))), 0, 0]
        assert len(cache.plans["noisy"][1]) == 3
        assert cache.noisy.arrays == []

    def test_l3_dd_bundle_runs_as_one_stack(self, tmp_path, monkeypatch):
        # XY4 at L3 fills the same idle windows at every t, so the decoupled
        # circuits keep one skeleton and schedule and form one stack: each
        # column equals one-shot per-t runs
        cfg = config_from_text((ROOT / "demos/configs/parrondo_4cycle.cfg").read_text())
        cfg = replace(cfg, dd="xy4", t_max=6, out_dir=str(tmp_path))
        paths = {}
        per_t, caches = self._kraus_per_t(monkeypatch, lambda: paths.update(run_experiment(cfg)))
        cache = caches[0]
        assert per_t[1:] == [0] * 5 and len(cache.plans["noisy"][1]) == 6
        assert sum(g.kind == "X" for g in cache.scheduled[0].circuit.gates) > sum(
            g.kind == "X" for g in transpile(cache.circuits[0], cfg.opt_level).gates)
        for t, row in enumerate(bundle_rows(paths), 1):
            assert row == fresh_row(cfg, t), f"t = {t}"

    def test_cache_is_bound_to_its_noise_model_and_width(self):
        circuit = build_walk_circuit(4, parrondo_schedule("AABB", default_coins(4), 1), 1)
        rho0 = np.outer(ground_state(3), ground_state(3))
        for cache in (BundleCache(NoiseModel(p1=0.0), 3), BundleCache(NoiseModel(), 4)):
            with pytest.raises(ValueError, match="bundle cache is bound"):
                run_noisy(circuit, rho0, NoiseModel(), cache)


class TestOverlay:
    def test_overlay_plotted_alongside(self, tmp_path):
        overlay = tmp_path / "device.csv"
        overlay.write_text("# label=device\nt,value\n1,0.5\n2,0.25\n3,0.75\n")
        cfg = small_config(tmp_path, t_max=3, shots=0, overlay=str(overlay))
        paths = run_experiment(cfg)
        svg = paths["probability_svg"].read_text()
        assert "device" in svg
        # overlays are inputs, never written into the computed CSV
        assert "device" not in paths["probability_csv"].read_text()
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_missing_overlay_is_config_error(self, tmp_path):
        cfg = small_config(tmp_path, t_max=2, shots=0, overlay=str(tmp_path / "nope.csv"))
        with pytest.raises(ConfigError, match="overlay"):
            run_experiment(cfg)

    @pytest.mark.parametrize("row", ["2,abc", "t,value", "3,nan", "4,inf", "5", "6,0.5,1"])
    def test_bad_row_after_data_names_its_line(self, tmp_path, row):
        # only rows before the first numeric row are headers
        overlay = tmp_path / "device.csv"
        overlay.write_text(f"t,value\n1,0.5\n{row}\n")
        cfg = small_config(tmp_path, t_max=2, shots=0, overlay=str(overlay))
        with pytest.raises(ConfigError, match="overlay: .*device.csv line 3: "):
            run_experiment(cfg)

    def test_header_only_overlay_is_config_error(self, tmp_path):
        overlay = tmp_path / "device.csv"
        overlay.write_text("# label=device\nt,value\n")
        cfg = small_config(tmp_path, t_max=2, shots=0, overlay=str(overlay))
        with pytest.raises(ConfigError, match="^overlay: no t,value rows in .*device.csv$"):
            run_experiment(cfg)

    def test_bad_overlay_fails_before_the_bundle(self, tmp_path, monkeypatch):
        import cyclewalk.experiments as experiments

        def no_circuit(*args):
            raise AssertionError("bundle computed before the overlay was read")

        monkeypatch.setattr(experiments, "build_walk_circuit", no_circuit)
        overlay = tmp_path / "device.csv"
        overlay.write_text("1,0.5\n2,nan\n")
        cfg = small_config(tmp_path, t_max=2, shots=0, overlay=str(overlay))
        with pytest.raises(ConfigError, match="line 2"):
            run_experiment(cfg)

    def test_bad_overlay_exits_with_config_code(self, tmp_path):
        overlay = tmp_path / "device.csv"
        overlay.write_text("1,0.5\n2,abc\n")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            config_to_text(small_config(tmp_path, t_max=2, shots=0, overlay=str(overlay)))
        )
        assert main(["run", "--config", str(cfg_path)]) == 2


class TestScheduledDump:
    def test_start_time_annotations(self, tmp_path):
        from cyclewalk import NoiseModel, OptLevel, schedule, to_text, transpile
        from cyclewalk import from_text as parse_circuit

        cfg = small_config(tmp_path)
        from cyclewalk.experiments import build_walk_circuit

        native = transpile(build_walk_circuit(4, cfg.schedule(), 2), OptLevel.L1)
        sc = schedule(native, NoiseModel())
        text = to_text(sc.circuit, start_times=sc.start_times)
        assert "@t=" in text
        rt = parse_circuit(text)
        assert len(rt.gates) == len(native.gates)
