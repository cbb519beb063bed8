"""End-to-end tests for config parsing and the command-line tool.

Commands run in-process via main(argv) so exit codes and outputs are checked
without shelling out; one subprocess smoke test covers the module entry.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import sounder_sim
from sounder_sim.cli import _emit_json, main
from sounder_sim.config import RunSpec, load_config, parse_rate
from sounder_sim.errors import ConfigError
from sounder_sim.pn import default_config


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def desk_doc(**sounder_overrides):
    sounder = {
        "alpha": "1 MHz",
        "beta": "995 kHz",
        "sample_rate": "4 MHz",
        "capture": 0.32704,
    }
    sounder.update(sounder_overrides)
    return {
        "schema_version": 1,
        "pn": {"stages": 9, "taps": [9, 5]},
        "sounder": sounder,
        "extraction": {"periods": 2, "floor_db": -10.0},
    }


class TestParseRate:
    @pytest.mark.parametrize(
        "text,hz",
        [
            ("1 GHz", 1e9),
            ("999.95 MHz", 999.95e6),
            ("80 kHz", 80e3),
            ("42 Hz", 42.0),
            ("2ghz", 2e9),
            ("1e6", 1e6),
            (4000000, 4000000.0),
            (0.5, 0.5),
        ],
    )
    def test_accepted(self, text, hz):
        assert parse_rate(text) == hz

    @pytest.mark.parametrize("bad", ["fast", "1 MHzz", "", "-3 MHz", 0, -1.0, True, None])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_rate(bad)


class TestRunSpec:
    def test_round_trip(self):
        doc = desk_doc()
        doc["channel"] = {
            "paths": [{"delay_ns": 7000.0, "gain_db": -6.0, "phase_deg": 90.0}],
            "snr_db": None,
            "seed": 3,
        }
        spec = RunSpec.from_json_dict(doc)
        back = RunSpec.from_json_dict(spec.to_json_dict())
        # channel delays pass through the nanosecond JSON unit, so compare
        # them with a tolerance and everything else exactly
        import dataclasses

        assert dataclasses.replace(back, channel=None) == dataclasses.replace(
            spec, channel=None
        )
        assert back.channel.paths[0].delay == pytest.approx(
            spec.channel.paths[0].delay, rel=1e-12
        )
        assert back.channel.rng_seed == spec.channel.rng_seed
        assert spec.alpha == 1e6
        assert spec.beta == 995e3
        assert spec.channel.paths[0].delay == pytest.approx(7e-6)

    def test_control_code_form_matches_tap_form(self):
        by_codes = RunSpec.from_json_dict(
            {"pn": {"stage_select": "110", "tap_word": "010010010010"}}
        )
        assert by_codes.pn.stages == 11
        assert by_codes.pn.taps == (11, 8, 5, 2)
        assert by_codes.pn.length == default_config(11).length

    def test_matching_second_code_section_accepted(self):
        doc = {"pn": {"stages": 9, "taps": [9, 5]},
               "pn_rx": {"stages": 9, "taps": [9, 5]}}
        assert RunSpec.from_json_dict(doc).pn.stages == 9

    def test_differing_code_sections_rejected(self):
        doc = {"pn": {"stages": 9, "taps": [9, 5]},
               "pn_rx": {"stages": 9, "taps": [9, 6, 4, 3]}}
        with pytest.raises(ConfigError):
            RunSpec.from_json_dict(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_json_dict({"pn": {"stages": 9, "taps": [9, 5]}, "pnn": {}})
        doc = desk_doc(extra_knob=1)
        with pytest.raises(ConfigError):
            RunSpec.from_json_dict(doc)

    @pytest.mark.parametrize(
        "section", ["pn", "sounder", "channel", "extraction", "spectrum"]
    )
    def test_non_object_section_rejected(self, section):
        doc = desk_doc()
        doc[section] = 5
        with pytest.raises(ConfigError, match="must be a JSON object"):
            RunSpec.from_json_dict(doc)

    def test_future_schema_rejected(self):
        doc = desk_doc()
        doc["schema_version"] = 2
        with pytest.raises(ConfigError):
            RunSpec.from_json_dict(doc)

    def test_sample_rate_defaults_to_twice_alpha(self):
        doc = desk_doc()
        del doc["sounder"]["sample_rate"]
        assert RunSpec.from_json_dict(doc).sample_rate == 2e6

    def test_manifest_document_is_a_valid_config(self):
        doc = desk_doc()
        spec = RunSpec.from_json_dict(doc)
        manifest_doc = {"kind": "run_manifest", "config": spec.to_json_dict()}
        assert RunSpec.from_json_dict(manifest_doc) == spec

    def test_sounder_section_required_for_rates(self):
        spec = RunSpec.from_json_dict({"pn": {"stages": 9, "taps": [9, 5]}})
        with pytest.raises(ConfigError):
            spec.sounder_config()


class TestPnCommands:
    def test_gen_writes_one_period(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        out = tmp_path / "chips.txt"
        assert main(["pn", "gen", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        chips = text.strip()
        assert len(chips) == 511
        assert set(chips) <= {"0", "1"}

    def test_validate_maximal(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stage_select": "110", "tap_word": "010010010010"}},
        )
        assert main(["pn", "validate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["period"] == 2047
        assert report["violations"] == []

    def test_validate_flags_non_maximal(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"pn": {"stages": 5, "taps": [5, 1]}})
        out = tmp_path / "report.json"
        assert main(["pn", "validate", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["period"] == 21
        assert report["expected_period"] == 31
        assert any("period" in v for v in report["violations"])

    def test_missing_config_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["pn", "validate", "--config", missing]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["pn", "validate", "--config", str(bad)]) == 2


class TestSpectrumCommand:
    def test_gigachip_spectrum(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "pn": {"stages": 11, "taps": [11, 8, 5, 2]},
                "spectrum": {"chip_rate": "1 GHz", "samples_per_chip": 4},
            },
        )
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "freq_hz,power_db"
        summary = json.loads((tmp_path / "spectrum.json").read_text())
        assert summary["chip_rate_hz"] == 1e9
        assert abs(summary["first_null_hz"] - 1e9) <= summary["resolution_bw_hz"]
        assert summary["line_spacing_hz"] == pytest.approx(1e9 / 2047, rel=1e-12)

    def test_short_code_line_spacing(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 5, "taps": [5, 3]},
             "spectrum": {"chip_rate": "1 GHz"}},
        )
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["line_spacing_hz"] == pytest.approx(1e9 / 31, rel=1e-12)

    def test_fft_shorter_than_period_exits_2(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 11, "taps": [11, 8, 5, 2]},
             "spectrum": {"chip_rate": "1 GHz", "fft_size": 64}},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2

    def test_needs_a_chip_rate(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"pn": {"stages": 5, "taps": [5, 3]}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("field", ["samples_per_chip", "periods"])
    def test_waveform_beyond_physical_memory_exits_2(self, tmp_path, capsys, field):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 11, "taps": [11, 8, 5, 2]},
             "spectrum": {"chip_rate": "1 GHz", field: 1e12}},
        )
        outdir = tmp_path / "o"
        code = main(["spectrum", "--config", cfg, "--out", str(outdir / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: waveform of") and "physical memory" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_infinite_integer_setting_exits_2(self, tmp_path, capsys):
        # JSON's 1e999 loads as inf, which int() refuses with OverflowError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"pn": {"stages": 5, "taps": [5, 3]},'
            ' "spectrum": {"chip_rate": "1 GHz", "samples_per_chip": 1e999}}',
            encoding="utf-8",
        )
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--config", str(cfg), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: config:")


class TestMetricsCommand:
    def test_desk_scale(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        assert main(["metrics", "--config", cfg]) == 0
        m = json.loads(capsys.readouterr().out)
        assert m["gamma"] == 200.0
        assert m["dilated_period_s"] == 0.1022
        assert m["resolution_s"] == 1e-6

    def test_bench_scale_to_file(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "pn": {"stages": 11, "taps": [11, 8, 5, 2]},
                "sounder": {"alpha": "1 GHz", "beta": "999.95 MHz",
                            "sample_rate": "2 GHz"},
            },
        )
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0
        m = json.loads(out.read_text())
        assert m["gamma"] == 20000.0
        assert m["dilated_period_s"] == 40.94e-3
        assert m["null_to_null_bw_hz"] == 2e9


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sound")
    cfg = write_json(root / "cfg.json", desk_doc())
    outdir = root / "run1"
    code = main(["sound", "--config", cfg, "--out", str(outdir)])
    return code, cfg, outdir


class TestSoundCommand:
    def test_outputs_written(self, first_run):
        code, _, outdir = first_run
        assert code == 0
        for name in ("trace.csv", "profile.csv", "paths.csv", "manifest.json"):
            assert (outdir / name).exists()
        lines = (outdir / "paths.csv").read_text().splitlines()
        assert lines[0] == "delay_ns,power_db,sidelobe_suspect"
        assert len(lines) == 2  # identity channel: the zero-delay path only
        delay_ns, power_db, suspect = lines[1].split(",")
        assert float(delay_ns) == 0.0
        assert float(power_db) == 0.0
        assert suspect == "0"

    def test_manifest_contents(self, first_run):
        code, _, outdir = first_run
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["kind"] == "run_manifest"
        assert manifest["derived"]["gamma"] == 200.0
        assert manifest["derived"]["paths_found"] == 1
        assert manifest["config"]["extraction"]["periods"] == 2
        assert manifest["duration_s"] > 0
        for listed in manifest["outputs"]:
            assert listed  # every output both listed and present
        names = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert names == {"trace.csv", "profile.csv", "paths.csv"}

    def test_reruns_are_byte_identical(self, first_run, tmp_path):
        code, cfg, outdir = first_run
        again = tmp_path / "run2"
        assert main(["sound", "--config", cfg, "--out", str(again)]) == 0
        for name in ("trace.csv", "profile.csv", "paths.csv"):
            assert (again / name).read_bytes() == (outdir / name).read_bytes()

    def test_manifest_reproduces_the_run(self, first_run, tmp_path):
        code, _, outdir = first_run
        redo = tmp_path / "run3"
        manifest = str(outdir / "manifest.json")
        assert main(["sound", "--config", manifest, "--out", str(redo)]) == 0
        for name in ("trace.csv", "profile.csv", "paths.csv"):
            assert (redo / name).read_bytes() == (outdir / name).read_bytes()

    def test_channel_file_and_seed_override(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        channel = write_json(
            tmp_path / "channel.json",
            {"paths": [{"delay_ns": 0.0},
                       {"delay_ns": 7000.0, "gain_db": -6.0, "phase_deg": 90.0}],
             "snr_db": None, "seed": 3},
        )
        outdir = tmp_path / "out"
        code = main(["sound", "--config", cfg, "--channel", channel,
                     "--seed", "77", "--out", str(outdir)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seeds"]["channel"] == 77
        assert manifest["config"]["channel"]["seed"] == 77
        lines = (outdir / "paths.csv").read_text().splitlines()
        assert len(lines) == 3
        delays = [float(line.split(",")[0]) for line in lines[1:]]
        assert delays == [0.0, 7000.0]

    def test_capture_below_one_dilated_period_exits_3(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", desk_doc(capture=0.05))
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "override", [{"beta_ppm_error": "nan"}, {"capture": "inf"}]
    )
    def test_non_finite_sounder_value_exits_2(self, tmp_path, override):
        cfg = write_json(tmp_path / "cfg.json", desk_doc(**override))
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("capture", [1e30, 1e300])
    def test_capture_beyond_physical_memory_exits_2(self, tmp_path, capsys, capture):
        cfg = write_json(tmp_path / "cfg.json", desk_doc(capture=capture))
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: capture of") and "Traceback" not in err
        assert not any(outdir.iterdir())

    @pytest.mark.parametrize("floor_db", ["-inf", "inf", "nan"])
    def test_non_finite_floor_exits_2(self, tmp_path, capsys, floor_db):
        doc = desk_doc()
        doc["extraction"]["floor_db"] = floor_db
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: extraction.floor_db must be finite")
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_profile_beyond_physical_memory_exits_2(self, tmp_path, capsys):
        doc = desk_doc()
        doc["extraction"]["bins_per_chip"] = 10**13
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile of") and "physical memory" in err
        assert "Traceback" not in err
        assert not any(outdir.iterdir())

    def test_json_output_is_strict(self, tmp_path):
        with pytest.raises(ValueError):
            _emit_json({"floor_db": float("-inf")}, str(tmp_path / "m.json"))
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_modes_follow_umask(self, tmp_path, umask, mode):
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        outdir = tmp_path / "o"
        previous = os.umask(umask)
        try:
            assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 0
        finally:
            os.umask(previous)
        for name in ("trace.csv", "profile.csv", "paths.csv", "manifest.json"):
            assert stat.S_IMODE((outdir / name).stat().st_mode) == mode

    @pytest.mark.parametrize(
        "channel",
        [
            {"paths": [{"delay_ns": "nan"}]},
            {"paths": [{"delay_ns": 0.0, "phase": 90.0}]},
            {"paths": [{"delay_ns": 0.0}], "snr": 10.0},
        ],
    )
    def test_bad_channel_file_exits_2(self, tmp_path, channel):
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        channel = write_json(tmp_path / "channel.json", channel)
        outdir = tmp_path / "o"
        code = main(["sound", "--config", cfg, "--channel", channel,
                     "--out", str(outdir)])
        assert code == 2
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOUNDER_SIM_THREADS", "4")
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        outdir = tmp_path / "envrun"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["extraction"]["threads"] == 4

    def test_threads_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOUNDER_SIM_THREADS", "4")
        cfg = write_json(tmp_path / "cfg.json", desk_doc())
        outdir = tmp_path / "flagrun"
        assert main(["sound", "--config", cfg, "--threads", "2",
                     "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["extraction"]["threads"] == 2


def test_module_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(sounder_sim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "sounder_sim.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip()
