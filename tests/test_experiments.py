import math
import string
import sys
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
from cyclewalk.experiments import SUPPORTED_CYCLES

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
        ],
        ids=["empty-pattern", "unknown-key", "unknown-section"],
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
        ],
        ids=["scan-t-max-0", "scan-cycle-2", "depth-empty-pattern", "depth-t-max-0",
             "depth-cycle-5"],
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


class TestScheduledDump:
    def test_start_time_annotations(self, tmp_path):
        from cyclewalk import NoiseModel, OptLevel, schedule, transpile
        from cyclewalk.transpile import scheduled_to_text
        from cyclewalk import from_text as parse_circuit

        cfg = small_config(tmp_path)
        from cyclewalk.experiments import build_walk_circuit

        native = transpile(build_walk_circuit(4, cfg.schedule(), 2), OptLevel.L1)
        sc = schedule(native, NoiseModel())
        text = scheduled_to_text(sc)
        assert "@t=" in text
        rt = parse_circuit(text)
        assert len(rt.gates) == len(native.gates)
