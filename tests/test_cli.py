"""End-to-end tests for config parsing and the command-line tool.

Commands run in-process via main(argv) so exit codes and outputs are checked
without shelling out; one subprocess smoke test covers the module entry.
"""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sounder_sim
import sounder_sim.sounder as sounder_mod
from sounder_sim import cli
from sounder_sim.channel import ChannelModel, apply_channel
from sounder_sim.cli import _emit_json, main
from sounder_sim.config import RunSpec, load_config, parse_rate
from sounder_sim.errors import ConfigError, SounderSimError
from sounder_sim.fileio import write_slow_capture_csv
from sounder_sim.pn import default_config
from sounder_sim.sounder import Mode, sliding_correlate, tx_baseband


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


# the README desk example: its config and channel files
README_DESK = {
    "schema_version": 1,
    "pn": {"stages": 9, "taps": [9, 5]},
    "sounder": {"alpha": "1 MHz", "beta": "995 kHz", "sample_rate": "4 MHz"},
    "extraction": {"periods": 4, "floor_db": -12.0},
}
README_CHANNEL = {
    "paths": [{"delay_ns": 0.0, "gain_db": 0.0},
              {"delay_ns": 3000.0, "gain_db": -6.0}],
    "snr_db": 30.0,
    "seed": 7,
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
        assert back == spec  # a channel holds its document's units, so exactly
        assert spec.sounder.alpha == 1e6
        assert spec.sounder.beta == 995e3
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

    @pytest.mark.parametrize("taps_first", [True, False])
    def test_code_forms_mix_across_sections(self, taps_first):
        by_taps = {"stages": 9, "taps": [9, 5]}
        by_words = {"stage_select": "100", "tap_word": "000100010000"}
        pn, pn_rx = (by_taps, by_words) if taps_first else (by_words, by_taps)
        spec = RunSpec.from_json_dict({"pn": pn, "pn_rx": pn_rx})
        assert spec.pn == RunSpec.from_json_dict({"pn": pn_rx}).pn

    @pytest.mark.parametrize("section", ["pn", "pn_rx"])
    def test_code_rule_error_names_the_section(self, section):
        doc = {"pn": {"stages": 9, "taps": [9, 5]}}
        doc[section] = {"stage_select": "1000", "tap_word": "000100010000"}
        with pytest.raises(ConfigError, match=f"^{section} section: stage_select"):
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
        assert RunSpec.from_json_dict(doc).sounder.sample_rate == 2e6

    def test_manifest_document_is_a_valid_config(self):
        doc = desk_doc()
        spec = RunSpec.from_json_dict(doc)
        manifest_doc = {"kind": "run_manifest", "config": spec.to_json_dict()}
        assert RunSpec.from_json_dict(manifest_doc) == spec

    def test_sounder_section_required_for_rates(self):
        spec = RunSpec.from_json_dict({"pn": {"stages": 9, "taps": [9, 5]}})
        with pytest.raises(ConfigError):
            spec.sounder_config()


def any_json(integers):
    """Any JSON value: what json.load can hand the config reader, inf and
    nan included (Python's json reads 1e999 and NaN)."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats()
        | st.text(max_size=6) | st.sampled_from(["1 MHz", "-3 kHz", "1e999", "nan", "0x1f"]),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=4,
    )


json_values = any_json(st.integers())
# The values of the command-line fuzz test: integers held to codes that
# generate in milliseconds (a code is stepped chip by chip, and 2**20 chips
# take a second), plus a few beyond every limit.
cli_values = any_json(st.integers(-2, 16) | st.sampled_from([65, 2**64]))

SECTION_KEYS = {
    "pn": ["stages", "structure", "taps", "seed", "stage_select", "tap_word"],
    "sounder": ["alpha", "beta", "sample_rate", "lpf_cutoff", "capture",
                "beta_ppm_error"],
    "channel": ["paths", "snr_db", "seed"],
    "extraction": ["periods", "bins_per_chip", "floor_db", "threads"],
    "spectrum": ["samples_per_chip", "periods", "fft_size", "null_count",
                 "chip_rate"],
}
PATH_KEYS = ["delay_ns", "gain_db", "phase_deg"]


def channel_doc():
    return {"paths": [{"delay_ns": 0.0},
                      {"delay_ns": 7000.0, "gain_db": -6.0, "phase_deg": 90.0}],
            "snr_db": 20.0, "seed": 3}


def overrides(keys, values=json_values):
    """Some of keys, each set to an arbitrary JSON value."""
    return st.fixed_dictionaries({}, optional={key: values for key in keys})


class TestFuzzedDocuments:
    """Arbitrary JSON values load or refuse with a SounderSimError, nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(section=st.sampled_from(sorted(SECTION_KEYS)), data=st.data())
    def test_config_section_values(self, section, data):
        doc = desk_doc()
        doc["channel"] = channel_doc()
        doc["spectrum"] = {"chip_rate": "1 MHz"}
        # the code is programmed by taps or by control words; fuzz both forms
        doc["pn"] = data.draw(st.sampled_from(
            [{"stages": 9, "taps": [9, 5]},
             {"stage_select": "100", "tap_word": "000100010000"}]
        ))
        doc[section].update(data.draw(overrides(SECTION_KEYS[section])))
        try:
            spec = RunSpec.from_json_dict(doc)
            spec.sounder_config(Mode.RX)
            spec.sounder_config(Mode.TX)
        except SounderSimError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(top=overrides(SECTION_KEYS["channel"]), path=overrides(PATH_KEYS))
    def test_channel_values(self, top, path):
        doc = channel_doc()
        doc["paths"][1].update(path)
        doc.update(top)
        try:
            ChannelModel.from_json_dict(doc)
        except SounderSimError:
            pass


def small_doc():
    """A config whose `sound` run is 49,600 samples: a 31-chip code at gamma
    200, fs 2 MHz, four dilated periods."""
    return {
        "schema_version": 1,
        "pn": {"stages": 5, "taps": [5, 3]},
        "sounder": {"alpha": "1 MHz", "beta": "995 kHz", "sample_rate": "2 MHz",
                    "capture": 0.0248},
        "extraction": {"periods": 2, "floor_db": -10.0},
        "spectrum": {},
        "channel": channel_doc(),
    }


CLI_COMMANDS = {
    "pn gen": lambda cfg, out: ["pn", "gen", "--config", cfg, "--out", f"{out}/chips.txt"],
    "pn validate": lambda cfg, out: ["pn", "validate", "--config", cfg,
                                     "--out", f"{out}/validate.json"],
    "metrics": lambda cfg, out: ["metrics", "--config", cfg, "--out", f"{out}/metrics.json"],
    "spectrum": lambda cfg, out: ["spectrum", "--config", cfg,
                                  "--out", f"{out}/spectrum.csv"],
    "sound": lambda cfg, out: ["sound", "--config", cfg, "--out", f"{out}/run"],
}
FUZZ_MEMORY = 64 << 20  # physical memory the command-line fuzz test claims


def small_memory_sysconf(real):
    """os.sysconf that reports FUZZ_MEMORY of physical memory."""
    def sysconf(name):
        if name == "SC_PHYS_PAGES":
            return FUZZ_MEMORY // real("SC_PAGE_SIZE")
        return real(name)
    return sysconf


def load_strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


class TestFuzzedCommands:
    """Arbitrary documents through cli.main: a documented exit code, no
    traceback, and strict JSON in every file written.

    The test claims 64 MiB of physical memory, so the program's own memory
    refusals bound every run: no fuzzed capture, code, spectrum or profile
    can grow past that.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(sorted(CLI_COMMANDS)),
        section=st.sampled_from(sorted(SECTION_KEYS) + ["channel file"]),
        data=st.data(),
    )
    def test_exit_code_and_strict_json(self, command, section, data):
        doc = small_doc()
        channel = None
        if section == "channel file":
            channel = channel_doc()
            channel.update(data.draw(overrides(SECTION_KEYS["channel"], cli_values)))
        else:
            doc[section].update(data.draw(overrides(SECTION_KEYS[section], cli_values)))
        if section in ("channel", "channel file"):
            paths = (channel or doc["channel"])["paths"]
            if isinstance(paths, list) and paths and isinstance(paths[-1], dict):
                paths[-1].update(data.draw(overrides(PATH_KEYS, cli_values)))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sysconf", small_memory_sysconf(os.sysconf))
            inputs = Path(tmp) / "inputs"
            inputs.mkdir()
            argv = CLI_COMMANDS[command](write_json(inputs / "config.json", doc), tmp)
            if channel is not None and command == "sound":
                argv += ["--channel", write_json(inputs / "channel.json", channel)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (0, 1, 2, 3), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            for written in Path(tmp).rglob("*.json"):
                if inputs not in written.parents:
                    load_strict_json(written.read_text(encoding="utf-8"))


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
        # every law is checked on the short cycle, in the maximal code's schema
        assert report["stages"] == 5 and report["period"] == 21
        assert "expected_period" not in report
        assert report["violations"][0] == "period: 21 != 2^5-1 = 31"
        assert any(v.startswith("balance: ") for v in report["violations"])
        maximal = tmp_path / "maximal.json"
        assert main(["pn", "validate", "--config", write_json(tmp_path / "m.json", desk_doc()),
                     "--out", str(maximal)]) == 0
        assert report.keys() == json.loads(maximal.read_text()).keys()

    @pytest.mark.parametrize("command", ["gen", "validate"])
    def test_all_zero_seed_exits_2(self, tmp_path, capsys, command):
        doc = desk_doc()
        doc["pn"]["seed"] = "0"
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out.txt"
        assert main(["pn", command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: pn section: all-zero seed would lock the generator\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["pn", "validate", "--config", missing]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["pn", "validate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("target", ["config", "channel file"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "integer-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_undecodable_file_exits_2(self, tmp_path, capsys, target, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        argv = ["sound", "--out", str(out)]
        if target == "config":
            argv += ["--config", str(bad)]
        else:
            argv += ["--config", write_json(tmp_path / "cfg.json", desk_doc())]
            argv += ["--channel", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target} {bad} is not valid UTF-8 JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("null_count", [0, -1])
    def test_no_null_to_report_exits_2_writing_nothing(self, tmp_path, capsys, null_count):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 5, "taps": [5, 3]},
             "spectrum": {"chip_rate": "1 MHz", "null_count": null_count}},
        )
        outdir = tmp_path / "o"
        outdir.mkdir()
        assert main(["spectrum", "--config", cfg, "--out", str(outdir / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: null count must be an integer >= 1, got {null_count}\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    def test_needs_a_chip_rate(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"pn": {"stages": 5, "taps": [5, 3]}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("field", ["samples_per_chip", "periods"])
    # a 401-digit JSON integer is a count past the float range: the refusal
    # formats it without a float
    @pytest.mark.parametrize("value", [1e12, 10**400], ids=["1e12", "401-digits"])
    def test_waveform_beyond_physical_memory_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 11, "taps": [11, 8, 5, 2]},
             "spectrum": {"chip_rate": "1 GHz", field: value}},
        )
        outdir = tmp_path / "o"
        code = main(["spectrum", "--config", cfg, "--out", str(outdir / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: waveform of") and "physical memory" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not outdir.exists()

    def test_waveform_and_its_fft_refused_before_the_waveform_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        # 31 chips x 4 samples x 10 periods = 1240 samples; memory for 40 B
        # per sample holds the sampler's 24 B, not the spectrum's 48 B
        cfg = write_json(
            tmp_path / "cfg.json",
            {"pn": {"stages": 5, "taps": [5, 3]},
             "spectrum": {"chip_rate": "1 GHz", "samples_per_chip": 4, "periods": 10}},
        )
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1240 * 40}.get)

        def unreached(*args, **kwargs):
            raise AssertionError("chips_to_waveform ran")

        monkeypatch.setattr(cli, "chips_to_waveform", unreached)
        outdir = tmp_path / "o"
        code = main(["spectrum", "--config", cfg, "--out", str(outdir / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: waveform of 1240 samples and its FFT needs")
        assert len(err.splitlines()) == 1
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


@pytest.mark.parametrize(
    "command,out",
    [
        (["pn", "gen"], ["--out", "chips.txt"]),
        (["pn", "validate"], []),
        (["spectrum"], ["--out", "spectrum.csv"]),
        (["metrics"], []),
        (["sound"], ["--out", "run"]),
    ],
)
def test_every_command_refuses_a_broken_sounder_section(tmp_path, capsys, command, out):
    # beta above alpha breaks a SounderConfig rule; the config load refuses
    # it, whether or not the command uses the sounder rates
    cfg = write_json(tmp_path / "cfg.json", desk_doc(beta="1.005 MHz"))
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = [out[0], str(outdir / out[1])] if out else []
    assert main(command + ["--config", cfg] + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sounder section: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not any(outdir.iterdir())


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

    def test_manifest_records_and_replays_defaulted_rates(self, tmp_path):
        # no sample_rate, lpf_cutoff or capture: the manifest records the
        # resolved values, and the replay reads them back as given
        doc = {"pn": {"stages": 7, "taps": [7, 6]},
               "sounder": {"alpha": "1 MHz", "beta": "990 kHz"},
               "channel": channel_doc(),
               "extraction": {"periods": 2}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        first, replay = tmp_path / "run1", tmp_path / "run2"
        assert main(["sound", "--config", cfg, "--out", str(first)]) == 0
        manifest = first / "manifest.json"
        sounder = json.loads(manifest.read_text())["config"]["sounder"]
        assert sounder["sample_rate"] == 2e6
        assert sounder["lpf_cutoff"] == 2e4
        assert sounder["capture"] == pytest.approx(5.25 * 127 * 100 / 1e6)
        assert main(["sound", "--config", str(manifest), "--out", str(replay)]) == 0
        for name in ("trace.csv", "profile.csv", "paths.csv"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_manifest_replays_a_channel_with_phases(self, tmp_path):
        # the manifest carries each path's numbers as read, so the replay
        # builds the same complex gains, and a trace printed to 12 digits
        # shows any last-bit change in them
        doc = desk_doc()
        doc["channel"] = {
            "paths": [{"delay_ns": 0.0, "phase_deg": 17.3},
                      {"delay_ns": 3000.0, "gain_db": -4.7, "phase_deg": 123.457},
                      {"delay_ns": 11000.0, "gain_db": -2.2, "phase_deg": 271.3}],
            "snr_db": None,
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        first, replay = tmp_path / "run1", tmp_path / "run2"
        assert main(["sound", "--config", cfg, "--out", str(first)]) == 0
        manifest = first / "manifest.json"
        recorded = json.loads(manifest.read_text())["config"]["channel"]["paths"]
        assert recorded[1] == doc["channel"]["paths"][1]
        assert main(["sound", "--config", str(manifest), "--out", str(replay)]) == 0
        for name in ("trace.csv", "profile.csv", "paths.csv"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_noise_is_drawn_per_window_in_the_correlator(self, tmp_path):
        cfg = write_json(tmp_path / "desk.json", README_DESK)
        channel_file = write_json(tmp_path / "channel.json", README_CHANNEL)
        assert main(["sound", "--config", cfg, "--channel", channel_file,
                     "--out", str(tmp_path / "run")]) == 0
        spec = load_config(cfg)
        channel = ChannelModel.from_json_file(channel_file)
        received = apply_channel(tx_baseband(spec.sounder_config(Mode.TX)), channel)
        trace = sliding_correlate(received, spec.sounder_config(Mode.RX), channel)
        write_slow_capture_csv(str(tmp_path / "api.csv"), trace)
        assert ((tmp_path / "api.csv").read_bytes()
                == (tmp_path / "run" / "trace.csv").read_bytes())

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

    def test_rx_clock_at_zero_hz_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(README_DESK))
        doc["sounder"]["beta_ppm_error"] = -1000000
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "beta_ppm_error" in err
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("capture", [1e30, 1e300])
    def test_capture_beyond_physical_memory_exits_2(self, tmp_path, capsys, capture):
        cfg = write_json(tmp_path / "cfg.json", desk_doc(capture=capture))
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: capture of") and "Traceback" not in err
        assert not any(outdir.iterdir())

    def test_windows_beyond_physical_memory_exit_2_before_tx(
        self, tmp_path, capsys, monkeypatch
    ):
        # gamma 10 at fs 2 MHz decimates by 1: 1e6 samples fit the claimed
        # 64 MiB at 32 B each, but not with one window's arrays per sample
        doc = small_doc()
        doc["sounder"].update(beta="900 kHz", capture=0.5)
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert load_config(cfg).sounder_config(Mode.RX).decimation == 1

        def build(*args):
            raise AssertionError("the TX waveform was built")

        monkeypatch.setattr(os, "sysconf", small_memory_sysconf(os.sysconf))
        monkeypatch.setattr(sounder_mod, "periodic_code", build)
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: capture of 1e+06 samples needs") and err.count("\n") == 1
        assert not any(outdir.iterdir())

    def test_framed_capture_beyond_32_bytes_per_sample_runs(self, tmp_path, monkeypatch):
        # the README desk capture: 2,146,200 samples would take 68.7 MB at
        # 32 B each, more than the claimed 64 MiB; at 4 samples per chip the
        # chain stores one 2044-sample period, and the run completes
        cfg = write_json(tmp_path / "desk.json", README_DESK)
        channel = write_json(tmp_path / "channel.json", README_CHANNEL)
        tx_cfg = load_config(cfg).sounder_config(Mode.TX)
        assert tx_cfg.capture * tx_cfg.sample_rate * 32 > FUZZ_MEMORY
        monkeypatch.setattr(os, "sysconf", small_memory_sysconf(os.sysconf))
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--channel", channel, "--out", str(outdir)]) == 0
        assert (outdir / "paths.csv").read_text().splitlines()[-1] == "3000,-6.88286743548,0"

    def test_unframed_capture_beyond_memory_exits_2_before_tx(
        self, tmp_path, capsys, monkeypatch
    ):
        # the same capture at 4.3 MHz: 4.3 samples per chip are sampled
        # whole, 32 B per sample, and that is refused before sampling
        doc = json.loads(json.dumps(README_DESK))
        doc["sounder"]["sample_rate"] = "4.3 MHz"
        cfg = write_json(tmp_path / "desk.json", doc)

        def build(*args):
            raise AssertionError("the TX waveform was built")

        monkeypatch.setattr(os, "sysconf", small_memory_sysconf(os.sysconf))
        monkeypatch.setattr(sounder_mod, "sample_code", build)
        outdir = tmp_path / "o"
        assert main(["sound", "--config", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: capture of 2.307e+06 samples needs") and err.count("\n") == 1
        assert not any(outdir.iterdir())

    def test_framed_sound_never_builds_the_capture(self, tmp_path):
        # the README desk run traced: no array near the capture's
        # 16 B per sample is ever live
        cfg = write_json(tmp_path / "desk.json", README_DESK)
        channel = write_json(tmp_path / "channel.json", README_CHANNEL)
        tx_cfg = load_config(cfg).sounder_config(Mode.TX)
        tracemalloc.start()
        try:
            code = main(["sound", "--config", cfg, "--channel", channel,
                         "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * tx_cfg.capture * tx_cfg.sample_rate

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

    def test_profile_refused_before_sounding(self, tmp_path, capsys, monkeypatch):
        def no_sounding(cfg):
            raise AssertionError("the chain ran before the profile was refused")

        monkeypatch.setattr(cli, "tx_baseband", no_sounding)
        doc = desk_doc()
        doc["extraction"]["bins_per_chip"] = 10**8
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: profile of")

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

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("sounder", "capture", "abc"),
            ("sounder", "capture", [1]),
            ("sounder", "beta_ppm_error", "abc"),
            ("path", "gain_db", "abc"),
            ("path", "gain_db", 6200),
            ("path", "phase_deg", [1]),
            ("channel", "snr_db", "abc"),
            ("channel", "seed", "abc"),
            ("channel", "seed", -1),
            ("flag", "--seed", "-1"),
            ("pn", "stages", 64),
            ("pn", "stages", "1e999"),
            ("code", "stages", 9.7),
            ("code", "taps", [9, 5.9]),
            ("code", "stage_select", 4.5),
            ("code", "seed", 10),
            ("code", "seed", "fff"),
            ("extraction", "threads", 0),
            ("extraction", "periods", 2.7),
            ("channel", "seed", True),
            ("flag", "--threads", "-1"),
        ],
    )
    def test_bad_value_exits_2_with_one_error_line(
        self, tmp_path, capsys, section, key, value
    ):
        doc = desk_doc()
        doc["channel"] = channel_doc()
        argv = []
        if section == "flag":
            argv = [key, value]
        elif section == "path":
            doc["channel"]["paths"][1][key] = value
        elif section == "pn":
            doc["pn"] = {key: value, "taps": [64, 63, 61, 60]}
        elif section == "code":  # one key of the desk code written in both forms
            doc["pn"] = {"stages": 9, "taps": [9, 5], "stage_select": "100",
                         "tap_word": "000100010000", key: value}
        else:
            doc[section][key] = value
        # 1e999 written as such: JSON has no infinity, Python's reader gives inf
        text = json.dumps(doc).replace('"1e999"', "1e999")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        outdir = tmp_path / "o"
        code = main(["sound", "--config", str(cfg), "--out", str(outdir)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_wrong_type_names_section_and_key(self, tmp_path, capsys):
        doc = desk_doc()
        doc["channel"] = channel_doc()
        doc["channel"]["paths"][1]["gain_db"] = "abc"
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: channel.paths[1].gain_db:")

    @pytest.mark.parametrize(
        "where",
        ["sounder.alpha", "sounder.beta", "sounder.sample_rate", "sounder.lpf_cutoff",
         "sounder.capture", "sounder.beta_ppm_error", "extraction.floor_db",
         "spectrum.chip_rate", "channel.snr_db", "channel.paths[1].delay_ns",
         "channel.paths[1].gain_db", "channel.paths[1].phase_deg"],
    )
    def test_float_key_refuses_a_boolean(self, tmp_path, capsys, where):
        # JSON true once read as 1.0 for every float key: "snr_db": true was
        # a 1 dB SNR
        doc, channel = desk_doc(), channel_doc()
        section, key = where.split(".", 1)
        if key.startswith("paths[1]."):
            channel["paths"][1][key.split(".")[1]] = True
        elif section == "channel":
            channel[key] = True
        else:
            doc.setdefault(section, {})[key] = True
        cfg = write_json(tmp_path / "cfg.json", doc)
        channel = write_json(tmp_path / "channel.json", channel)
        outdir = tmp_path / "o"
        code = main(["sound", "--config", cfg, "--channel", channel,
                     "--out", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config: {where}: ") and err.count("\n") == 1
        assert not outdir.exists()
        # a numeric string is still a number
        assert ChannelModel.from_json_dict(dict(channel_doc(), snr_db="30")).snr_db == 30.0

    @pytest.mark.parametrize(
        "paths,snr_db",
        [
            ([{"delay_ns": 0.0, "gain_db": 6000.0}], 20.0),
            ([{"delay_ns": 0.0}], -4000.0),
            ([{"delay_ns": 0.0, "gain_db": 6150.0},
              {"delay_ns": 3000.0, "gain_db": 6150.0}], None),
            ([{"delay_ns": 0.0, "gain_db": 3000.0},
              {"delay_ns": 3000.0, "gain_db": 3000.0}], -200.0),
        ],
    )
    def test_levels_beyond_float64_exit_2_writing_nothing(
        self, tmp_path, capsys, paths, snr_db
    ):
        doc = {"schema_version": 1, "pn": {"stages": 5, "taps": [5, 3]},
               "sounder": {"alpha": "1 MHz", "beta": "990 kHz",
                           "sample_rate": "4 MHz"},
               "extraction": {"periods": 2}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        channel = write_json(tmp_path / "channel.json",
                             {"paths": paths, "snr_db": snr_db, "seed": 1})
        outdir = tmp_path / "o"
        code = main(["sound", "--config", cfg, "--channel", channel,
                     "--out", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        # a noise level is refused when the channel is read, before the
        # output directory is made
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_threads_flag_beats_config(self, tmp_path):
        doc = desk_doc()
        doc["extraction"]["threads"] = 4
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "flagrun"
        assert main(["sound", "--config", cfg, "--threads", "2",
                     "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["extraction"]["threads"] == 2

    def test_thread_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "desk.json", README_DESK)
        channel = write_json(tmp_path / "channel.json", README_CHANNEL)
        manifests = []
        for threads in ("1", "4"):
            # the same relative --out, so both manifests list the same outputs
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            assert main(["sound", "--config", cfg, "--channel", channel,
                         "--threads", threads, "--out", "run"]) == 0
            manifest = json.loads(Path("run/manifest.json").read_text())
            assert manifest["config"]["extraction"].pop("threads") == int(threads)
            del manifest["duration_s"]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        for name in ("trace.csv", "profile.csv", "paths.csv"):
            assert ((tmp_path / "1" / "run" / name).read_bytes()
                    == (tmp_path / "4" / "run" / name).read_bytes())


def run_child(*args):
    # the child imports the package under test, installed or not
    src = str(Path(sounder_sim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_module_entry_point():
    result = run_child("-m", "sounder_sim.cli", "--version")
    assert result.returncode == 0
    assert result.stdout.strip()


def test_cli_import_and_config_load_need_no_scipy(tmp_path):
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, the CLI imports, loads a config and runs the README desk sound
    cfg = write_json(tmp_path / "desk.json", README_DESK)
    channel = write_json(tmp_path / "channel.json", README_CHANNEL)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # import scipy now raises ImportError\n"
        "import sounder_sim.cli\n"
        "sounder_sim.cli.load_config(sys.argv[1])\n"
        "code = sounder_sim.cli.main(['sound', '--config', sys.argv[1],\n"
        "                             '--channel', sys.argv[2], '--out', sys.argv[3]])\n"
        "print(code, sorted(m for m, module in sys.modules.items()\n"
        "                   if m.split('.')[0] == 'scipy' and module is not None))\n"
    )
    result = run_child("-c", script, cfg, channel, str(tmp_path / "run"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 []", result.stderr
    assert "3000,-6.88286743548,0" in (tmp_path / "run" / "paths.csv").read_text()
