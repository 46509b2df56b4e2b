"""Config grammar and the command-line surface: typed parsing with
line-accurate errors, report shape, exit codes, and the compare table."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import sparksel
from sparksel import config as cfgmod
from sparksel import cli, data, selection
from sparksel import ippg
from sparksel.cli import main
from sparksel.config import default_config, parse_config
from sparksel.errors import ConfigError, DataError, InvariantError
from sparksel.selection import SelectionConfig
from sparksel.swarm import SwarmConfig

QUICK = """
seeds = 0
synth.n_samples = 40
synth.d_informative = 2
synth.d_noise = 4
synth.noise_sigma = 0.5
swarm.population = 4
swarm.s_max = 6
swarm.gaussian_sparks = 2
swarm.max_evaluations = 60
adaboost.rounds = 5
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_minimal_file_gets_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "seeds = 3,4\n"))
        assert cfg.get("seeds") == [3, 4]
        assert cfg.get("swarm.algorithm") == "ifa"
        assert cfg.get("selection.lambda_fraction") == 0.2
        assert cfg.get("threads") == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# a comment\n\nseeds = 1\n   # indented comment\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.get("seeds") == [1]

    def test_typed_values(self, tmp_path):
        text = ("swarm.max_evaluations = 500\n"
                "swarm.r_max = 0.25\n"
                "ippg.emit_frames = true\n"
                "bench.algorithms = ifa,pso\n"
                "compare.others = \n")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.get("swarm.max_evaluations") == 500
        assert cfg.get("swarm.r_max") == 0.25
        assert cfg.get("ippg.emit_frames") is True
        assert cfg.get("bench.algorithms") == ["ifa", "pso"]
        assert cfg.get("compare.others") == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("seeds = 3,4\nswarm.r_max = 0.25\n", encoding="utf-8-sig")
        cfg = parse_config(path)
        assert cfg.get("seeds") == [3, 4]
        assert cfg.get("swarm.r_max") == 0.25

    def test_unknown_key_names_location(self, tmp_path):
        path = write_config(tmp_path, "seeds = 1\nswarm.colour = red\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        msg = str(err.value)
        assert "line 2" in msg and "swarm.colour" in msg

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "seeds = 1\nseeds = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "duplicate" in str(err.value) and "line 2" in str(err.value)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, "seeds 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "line 1" in str(err.value)

    def test_validation_names_the_key(self, tmp_path):
        path = write_config(tmp_path, "selection.lambda_fraction = 1.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "selection.lambda_fraction" in str(err.value)

    def test_bad_int_names_the_key(self, tmp_path):
        path = write_config(tmp_path, "swarm.population = many\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "swarm.population" in str(err.value)

    def test_echo_drops_threads_only(self):
        echo = default_config().echo()
        assert "threads" not in echo
        assert set(echo) == set(cfgmod.REGISTRY) - {"threads"}

    def test_override_validation(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.with_overrides({"swarm.population": 1})
        with pytest.raises(ConfigError):
            cfg.with_overrides({"nonsense": 1})

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("key, value", [
        ("swarm.population", "many"),
        ("swarm.population", 2.5),
        ("swarm.population", True),
        ("swarm.r_max", "0.3"),
        ("seeds", "0"),
        ("seeds", [0, "1"]),
        ("seeds", [0, False]),
        ("bench.algorithms", "ifa"),
        ("ippg.emit_frames", 1),
        ("out_dir", 3),
    ])
    def test_override_of_wrong_type_names_the_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            default_config().with_overrides({key: value})
        assert key in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("ippg.hr_hz", float("inf")),
        ("ippg.duration_s", float("nan")),
        ("pso.inertia", float("-inf")),
        ("synth.noise_sigma", float("inf")),
        pytest.param("ippg.duration_s", 10**400, id="ippg.duration_s-huge_int"),
        pytest.param("swarm.r_max", 10**400, id="swarm.r_max-huge_int"),
    ])
    def test_non_finite_float_override_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite") as err:
            default_config().with_overrides({key: value})
        assert key in str(err.value)

    @pytest.mark.parametrize("text", ["ippg.duration_s = inf", "ippg.hr_hz = inf",
                                      "ba.freq_max = nan", "pso.social = -inf"])
    def test_non_finite_float_in_file_rejected(self, tmp_path, text):
        path = write_config(tmp_path, text + "\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(path)

    @pytest.mark.parametrize("cls, name, value", [
        (SwarmConfig, "epsilon", float("inf")),
        (SwarmConfig, "pso_inertia", float("nan")),
        (SwarmConfig, "ba_freq_max", float("inf")),
        (SelectionConfig, "test_fraction", float("nan")),
        pytest.param(SwarmConfig, "r_max", 10**400, id="SwarmConfig-r_max-huge_int"),
    ])
    def test_non_finite_dataclass_field_rejected(self, cls, name, value):
        with pytest.raises(ConfigError, match="finite") as err:
            build(cls, **{name: value})
        assert name in str(err.value)

    def test_float_key_takes_an_int_override(self):
        cfg = default_config().with_overrides({"swarm.r_max": 1, "seeds": [2, 3]})
        assert cfg.get("swarm.r_max") == 1 and cfg.get("seeds") == [2, 3]

    def test_threads_one_still_parses(self, tmp_path):
        assert parse_config(write_config(tmp_path, "threads = 1\n")).get("threads") == 1


# config key -> (dataclass, field, a value outside the key's range);
# None marks a key with no range rule
DERIVED_KEYS = {
    "swarm.algorithm": (SwarmConfig, "algorithm", "annealing"),
    "swarm.population": (SwarmConfig, "population", 1),
    "swarm.s_max": (SwarmConfig, "s_max", 0),
    "swarm.s_min": (SwarmConfig, "s_min", 0),
    "swarm.r_max": (SwarmConfig, "r_max", 1.5),
    "swarm.epsilon": (SwarmConfig, "epsilon", 0.0),
    "swarm.gaussian_sparks": (SwarmConfig, "gaussian_sparks", -1),
    "swarm.max_evaluations": (SwarmConfig, "max_evaluations", 0),
    "pso.inertia": (SwarmConfig, "pso_inertia", None),
    "pso.cognitive": (SwarmConfig, "pso_cognitive", None),
    "pso.social": (SwarmConfig, "pso_social", None),
    "pso.velocity_clamp": (SwarmConfig, "pso_velocity_clamp", -1.0),
    "ba.freq_min": (SwarmConfig, "ba_freq_min", -1.0),
    "ba.freq_max": (SwarmConfig, "ba_freq_max", 0.0),
    "ba.loudness": (SwarmConfig, "ba_loudness", 0.0),
    "ba.loudness_decay": (SwarmConfig, "ba_loudness_decay", 5.0),
    "ba.pulse_rate": (SwarmConfig, "ba_pulse_rate", 3.0),
    "ba.pulse_growth": (SwarmConfig, "ba_pulse_growth", 0.0),
    "selection.lambda_fraction": (SelectionConfig, "lambda_fraction", 1.5),
    "adaboost.rounds": (SelectionConfig, "classifier_rounds", 0),
    "split.test_fraction": (SelectionConfig, "test_fraction", 1.0),
    "split.holdout_fraction": (SelectionConfig, "holdout_fraction", 1.0),
}


def build(cls, **kw):
    if cls is SelectionConfig:
        return SelectionConfig(swarm=SwarmConfig(dimensions=4), **kw)
    return SwarmConfig(dimensions=4, **kw)


@pytest.mark.parametrize("key", sorted(DERIVED_KEYS))
def test_registry_and_dataclass_agree(key):
    """Each swarm/selection key has one default and one range rule:
    the registry and the dataclass field give the same answers."""
    cls, name, bad = DERIVED_KEYS[key]
    field = {f.name: f for f in dataclasses.fields(cls)}[name]
    assert cfgmod.REGISTRY[key].default == field.default
    assert type(cfgmod.REGISTRY[key].default) is type(field.default)
    if bad is None:
        return
    with pytest.raises(ConfigError) as err:
        default_config().with_overrides({key: bad})
    assert key in str(err.value)
    with pytest.raises(ConfigError):
        build(cls, **{name: bad})


def test_derived_keys_are_exactly_the_dataclass_fields():
    cfg = default_config()
    for cls in (SwarmConfig, SelectionConfig):
        want = {name: cfg.get(k) for k, (c, name, _) in DERIVED_KEYS.items() if c is cls}
        assert cfg.field_values(cls) == want


# synth.* key -> a value outside its range
SYNTH_BAD = {
    "synth.n_samples": 3,
    "synth.d_informative": 0,
    "synth.d_noise": -1,
    "synth.class_imbalance": 1.0,
    "synth.noise_sigma": -0.5,
}


def test_synth_keys_are_synthspec_fields():
    """Each synth.* key has one default, kind and range rule: the
    SynthSpec field's.  The config reports a bad value as ConfigError,
    SynthSpec the same value as DataError."""
    fields = {f.metadata["key"]: f for f in dataclasses.fields(data.SynthSpec)
              if f.metadata.get("key")}
    assert set(fields) == {k for k in cfgmod.REGISTRY if k.startswith("synth.")}
    assert set(fields) == set(SYNTH_BAD)
    for key, field in fields.items():
        spec = cfgmod.REGISTRY[key]
        assert (spec.default, spec.kind) == (field.default, field.type)
        assert type(spec.default) is type(field.default)
        with pytest.raises(ConfigError, match=key):
            default_config().with_overrides({key: SYNTH_BAD[key]})
        with pytest.raises(DataError, match=field.name):
            data.SynthSpec(**{field.name: SYNTH_BAD[key]})


# ippg.* key -> a value outside its range
PULSE_BAD = {
    "ippg.fps": 0,
    "ippg.duration_s": 0.0,
    "ippg.height": 0,
    "ippg.width": 0,
    "ippg.hr_hz": -1.2,
    "ippg.rr_hz": 0.0,
    "ippg.hr_amp": -2.0,
    "ippg.rr_amp": -1.0,
    "ippg.noise_std": -0.5,
}


def test_pulse_keys_are_pulsespec_fields():
    """Each ippg.* synthesis key has one default, kind and range rule:
    the PulseSpec field's.  The config reports a bad value as
    ConfigError, PulseSpec the same value as DataError."""
    fields = {f.metadata["key"]: f for f in dataclasses.fields(ippg.PulseSpec)
              if f.metadata.get("key")}
    assert set(fields) == set(PULSE_BAD)
    for key, field in fields.items():
        spec = cfgmod.REGISTRY[key]
        assert (spec.default, spec.kind) == (field.default, field.type)
        assert type(spec.default) is type(field.default)
        with pytest.raises(ConfigError, match=key):
            default_config().with_overrides({key: PULSE_BAD[key]})
        with pytest.raises(DataError, match=field.name):
            ippg.PulseSpec(**{field.name: PULSE_BAD[key]})


@pytest.mark.parametrize(
    "make, error, name",
    [
        (lambda: data.SynthSpec(n_samples=10.0), DataError, "n_samples"),
        (lambda: SwarmConfig(dimensions=3, population=4.0), ConfigError, "population"),
        (lambda: SwarmConfig(dimensions=3, max_evaluations=True), ConfigError,
         "max_evaluations"),
    ],
    ids=["synth-float-n_samples", "swarm-float-population", "swarm-bool-max_evaluations"],
)
def test_dataclass_rejects_wrong_kind(make, error, name):
    """A library caller's wrong-kind value gets the package's error
    naming the field, by the same kind rule as the config path."""
    with pytest.raises(error, match=name):
        make()


def run_cli(args):
    return main(list(args))


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSelectCommand:
    def test_select_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK)
        code = run_cli(["select", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "select.json" in out
        doc = load_report(tmp_path / "select.json")
        assert doc["schema_version"] == 2
        assert doc["command"] == "select"
        assert doc["seeds"] == [0]
        assert "threads" not in doc["config"]
        run = doc["runs"][0]
        assert sum(run["best_mask"]) >= 2  # ceil(0.2 * 6)
        assert run["evaluations"] == 60
        assert 0.0 <= run["metrics"]["avg"] <= 1.0
        assert "median_avg" in doc["aggregate"]
        assert "median_informative_recall" in doc["aggregate"]

    def test_seeds_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path),
                        "--seeds", "5,6"]) == 0
        doc = load_report(tmp_path / "select.json")
        assert doc["seeds"] == [5, 6]
        assert [r["seed"] for r in doc["runs"]] == [5, 6]

    def test_reports_identical_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        out = str(tmp_path)
        assert run_cli(["select", "--config", cfg, "--out", out]) == 0
        first = (tmp_path / "select.json").read_text()
        assert run_cli(["select", "--config", cfg, "--out", out]) == 0
        second = (tmp_path / "select.json").read_text()
        scrub = re.compile(r'"wall_time_s": [0-9.e+-]+')
        assert scrub.sub("T", first) == scrub.sub("T", second)

    def test_env_var_supplies_default_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, QUICK)
        target = tmp_path / "envout"
        monkeypatch.setenv("SPARKSEL_OUT", str(target))
        assert run_cli(["select", "--config", cfg]) == 0
        assert (target / "select.json").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_cli(["select", "--config", str(tmp_path / "no.cfg")]) == 1

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, "bogus.key = 1\n")
        assert run_cli(["select", "--config", cfg]) == 1

    @pytest.mark.parametrize("line, message", [
        ("Seeds = 1", "line 2: unknown key 'Seeds'"),
        ("a b = 1", "line 2: unknown key 'a b'"),
        ("seeds =", "seeds: must name at least one seed"),
        ("seeds = -1", "seeds: seeds must be >= 0"),
        ("ippg.emit_frames = yes", "ippg.emit_frames: bad bool value 'yes'"),
    ])
    def test_bad_line_exits_one_naming_the_key(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, "# comment\n%s\n" % line)
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "ippg.json").exists()

    def test_bad_seeds_flag(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--seeds", "a,b"]) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path, QUICK + "data.path = /nonexistent/x.csv\n")
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seeds = 0\nout_dir = \xff\n")
        assert run_cli(["select", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert not (tmp_path / "select.json").exists()

    @pytest.mark.parametrize("body, suffix", [
        (b"f0,label\n\xff,1\n", ""),
        (b"f0,label\n" + b"1" * 131073 + b",1\n", ""),
        (b"f0,label\n1,1\n", "\0"),
    ], ids=["not_utf8", "field_over_csv_limit", "nul_in_path"])
    def test_unreadable_csv_is_data_error(self, tmp_path, capsys, body, suffix):
        csv_path = tmp_path / "x.csv"
        csv_path.write_bytes(body)
        cfg = write_config(tmp_path, QUICK + "data.path = %s%s\n" % (csv_path, suffix))
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(csv_path) in err
        assert not (tmp_path / "select.json").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub", "nul\0byte"],
                             ids=["file", "under_file", "nul_in_path"])
    def test_unusable_out_dir_fails_before_any_run(self, tmp_path, capsys,
                                                   monkeypatch, out):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        monkeypatch.setattr(selection, "select_features",
                            lambda *a: pytest.fail("a run started"))
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("config error: out_dir: cannot create")

    @pytest.mark.parametrize("argv, taken, path", [
        (["select"], "select.json", "select.json"),
        (["synth"], "synth_0.csv", "synth_0.csv"),
        (["synth"], "synth_0.csv.tmp", "synth_0.csv"),
    ], ids=["report_is_dir", "csv_is_dir", "csv_temp_is_dir"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, argv, taken, path):
        """A directory where an output file or its temp file goes fails
        the command with one config error line naming the file, and no
        temp file is left behind."""
        (tmp_path / taken).mkdir()
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(argv + ["--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: cannot write %s: "
                              % (tmp_path / path)) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp" and p.is_file()] == []
        assert (tmp_path / taken).is_dir()

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--threads", "2"]) == 1
        for command in ("select", "baseline", "bench", "synth", "ippg",
                        "importance", "compare"):
            with pytest.raises(SystemExit):
                run_cli([command, "--help"])
            assert "--threads" not in capsys.readouterr().out

    def test_threads_above_one_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK + "threads = 2\n")
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithms", ["", "ifa,ifa", "ifa,gwo"])
    def test_bad_bench_algorithms_exit_one(self, tmp_path, capsys, algorithms):
        cfg = write_config(tmp_path, "bench.algorithms = %s\n" % algorithms)
        assert run_cli(["bench", "sphere", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "bench.algorithms" in capsys.readouterr().err
        assert not (tmp_path / "bench_sphere.json").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_repeated_seeds_exit_one(self, tmp_path, capsys, where):
        with pytest.raises(ConfigError, match="seeds"):
            default_config().with_overrides({"seeds": [0, 0]})
        if where == "config":
            cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,0"))
            args = ["select", "--config", cfg, "--out", str(tmp_path)]
        else:
            cfg = write_config(tmp_path, QUICK)
            args = ["select", "--config", cfg, "--out", str(tmp_path), "--seeds", "1,0,1"]
        assert run_cli(args) == 1
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "select.json").exists()

    @pytest.mark.parametrize("text", ["ippg.duration_s = inf", "ippg.hr_hz = inf"])
    def test_non_finite_ippg_setting_exits_one(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, "seeds = 0\n" + text + "\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "ippg.json").exists()

    @pytest.mark.parametrize("key, command", [
        ("swarm.population", "select"), ("swarm.s_max", "select"),
        ("swarm.gaussian_sparks", "select"), ("bench.dimensions", "bench"),
        ("synth.n_samples", "synth"), ("synth.d_informative", "synth"),
        ("synth.d_noise", "synth"), ("ippg.fps", "ippg"), ("ippg.duration_s", "ippg"),
        ("ippg.height", "ippg"), ("ippg.width", "ippg"),
    ])
    def test_oversized_setting_exits_one(self, tmp_path, capsys, key, command):
        # the upper bound is checked with the config, before any array is sized
        with pytest.raises(ConfigError, match=re.escape(key)):
            default_config().with_overrides({key: 10**30})
        cfg = write_config(tmp_path, "%s = %d\n" % (key, 10**30))
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", [["select"], ["baseline", "skb"]],
                             ids=["select", "baseline_skb"])
    def test_label_only_csv_is_data_error(self, tmp_path, capsys, command):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("label\n0\n1\n0\n1\n", encoding="utf-8")
        cfg = write_config(tmp_path, QUICK + "data.path = %s\n" % csv_path)
        assert run_cli(command + ["--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(csv_path) in err
        assert not list(tmp_path.glob("*.json"))

    def test_out_of_memory_exits_one(self, tmp_path, capsys):
        # every setting within its own bound, together 5.33 PiB of frames:
        # more than any 64-bit address space, so the allocation fails at once
        cfg = write_config(tmp_path, "seeds = 0\nippg.height = 10000\n"
                           "ippg.width = 10000\nippg.duration_s = 100000\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory:") and "PiB" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ippg.json").exists()

    def test_skb_k_past_the_columns_names_the_key(self, tmp_path, capsys):
        # skb.k = 0 picks the lambda floor; a k past the table's 6 columns
        # fails when the run starts, with the config's own message form
        cfg = write_config(tmp_path, QUICK + "skb.k = 100\n")
        assert run_cli(["baseline", "skb", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: skb.k: must lie in [1, 6] (got 100)\n"
        assert not list(tmp_path.glob("*.json"))

    def test_emit_frames_past_u8_fps_fails_before_any_capture(self, tmp_path, capsys,
                                                               monkeypatch):
        # ippg.fps allows 1000, but a frame file stores fps in one byte
        monkeypatch.setattr(ippg, "synth_pulse_frames",
                            lambda **kw: pytest.fail("a capture was drawn"))
        cfg = write_config(tmp_path, "seeds = 0\nippg.emit_frames = true\n"
                           "ippg.fps = 256\nippg.duration_s = 3\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: ippg.fps: must be <= 255 when ippg.emit_frames is true (got 256)\n")
        assert not list(tmp_path.glob("*.json")) + list(tmp_path.glob("*.ippg"))

    def test_usage_error_maps_to_config_error(self, capsys):
        assert run_cli(["no-such-command"]) == 1
        assert run_cli([]) == 1

    def test_console_script_installed(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sparksel.cli import main; sys.exit(main())",
             ],
            capture_output=True, text=True)
        assert proc.returncode == 1  # no arguments is a usage error


class TestOtherCommands:
    def test_baseline_skb(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["baseline", "skb", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "baseline_skb.json")
        run = doc["runs"][0]
        assert run["algorithm"] == "skb"
        assert run["evaluations"] == 1
        assert sum(run["best_mask"]) == 2  # lambda floor when skb.k = 0

    def test_baseline_skb_keeps_out_the_holdout(self, tmp_path):
        """skb picks its mask on the search split carved from what the
        holdout leaves, and grades it on the holdout as select does."""
        cfg = write_config(tmp_path, QUICK + "split.holdout_fraction = 0.25\n")
        assert run_cli(["baseline", "skb", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        run = load_report(tmp_path / "baseline_skb.json")["runs"][0]
        ds = data.generate_synthetic(data.SynthSpec(
            n_samples=40, d_informative=2, d_noise=4, class_imbalance=0.17,
            noise_sigma=0.5, seed=0))
        rest = data.stratified_split(ds, 0.25, 1).train
        train = data.stratified_split(rest, 0.3, 0).train
        assert run["best_mask"] == selection.skb(train, 2).tolist()
        assert 0.0 <= run["holdout_metrics"]["avg"] <= 1.0

    def test_baseline_fa_switches_algorithm(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["baseline", "fa", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "baseline_fa.json")
        assert doc["config"]["swarm.algorithm"] == "fa"
        assert doc["runs"][0]["algorithm"] == "fa"

    def test_bench_traces(self, tmp_path):
        text = "seeds = 0,1\nbench.dimensions = 3\nswarm.max_evaluations = 80\nswarm.population = 4\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(["bench", "sphere", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "bench_sphere.json")
        assert {r["algorithm"] for r in doc["runs"]} == {"ifa", "fa"}
        for run in doc["runs"]:
            trace = run["trace"]
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert run["best_fitness"] == trace[-1]
        assert "median_best_fitness.ifa" in doc["aggregate"]
        assert "median_best_fitness.fa" in doc["aggregate"]

    def test_synth_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["synth", "--config", cfg, "--out", str(tmp_path),
                        "--seeds", "0,1"]) == 0
        doc = load_report(tmp_path / "synth.json")
        for run in doc["runs"]:
            assert (tmp_path / ("synth_%d.csv" % run["seed"])).exists()

    def test_ippg_synthetic_mode(self, tmp_path):
        text = ("seeds = 0\nippg.duration_s = 8\nippg.height = 4\n"
                "ippg.width = 4\nippg.noise_std = 1.0\n")
        cfg = write_config(tmp_path, text)
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "ippg.json")
        run = doc["runs"][0]
        assert run["hr_error_hz"] <= 0.1
        assert run["n_features"] > 0
        assert doc["aggregate"]["median_hr_error_hz"] <= 0.1

    def test_ippg_file_mode_round_trip(self, tmp_path):
        emit = write_config(
            tmp_path,
            "seeds = 3\nippg.duration_s = 8\nippg.height = 4\n"
            "ippg.width = 4\nippg.emit_frames = true\n",
            name="emit.cfg")
        assert run_cli(["ippg", "--config", emit, "--out", str(tmp_path)]) == 0
        fore = tmp_path / "frames_fore_3.ippg"
        nose = tmp_path / "frames_nose_3.ippg"
        assert fore.exists() and nose.exists()
        reread = write_config(
            tmp_path,
            "ippg.fore_path = %s\nippg.nose_path = %s\n" % (fore, nose),
            name="reread.cfg")
        assert run_cli(["ippg", "--config", reread, "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "ippg.json")
        run = doc["runs"][0]
        assert run["seed"] is None
        assert "hr_error_hz" not in run  # nothing injected to grade against
        assert doc["aggregate"] == {}

    def test_ippg_mixed_length_pair_is_schema_checked(self, tmp_path, monkeypatch, capsys):
        """A pair whose lengths differ is no capture (exit 2, both counts
        named); on an equal-length pair the vector is checked against its
        schema (exit 3 when the schema is one name short)."""
        def pair_config(nose_seconds):
            paths = []
            for tag, seconds in (("fore", 8.0), ("nose", nose_seconds)):
                seq = ippg.synth_pulse_frames(25, seconds, 2, 2, 1.2, 0.25, seed=len(paths))
                paths.append(tmp_path / ("%s.ippg" % tag))
                ippg.write_frames(seq, paths[-1])
            return write_config(
                tmp_path, "ippg.fore_path = %s\nippg.nose_path = %s\n" % tuple(paths))

        args = ["ippg", "--config", pair_config(4.0), "--out", str(tmp_path)]
        assert run_cli(args) == 2
        assert "fore frames 200 != nose frames 100" in capsys.readouterr().err
        assert not (tmp_path / "ippg.json").exists()
        args = ["ippg", "--config", pair_config(8.0), "--out", str(tmp_path)]
        assert run_cli(args) == 0
        run = load_report(tmp_path / "ippg.json")["runs"][0]
        assert run["n_features"] == len(ippg.feature_schema(25, 200))
        full = ippg.feature_schema
        monkeypatch.setattr(ippg, "feature_schema", lambda fps, n_frames: full(fps, n_frames)[:-1])
        capsys.readouterr()
        assert run_cli(args) == 3
        assert "feature schema names" in capsys.readouterr().err

    def test_ippg_filters_each_roi_once(self, tmp_path, monkeypatch):
        """The HR/RR peaks come from the rows extract_features already
        band-passed: per capture pair, one build_signal per ROI and, as
        both ROIs have the same length, one bandpass per band."""
        calls = {"build_signal": 0, "bandpass": 0}
        for name in calls:
            original = getattr(ippg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ippg, name, counted)
        cfg = write_config(tmp_path, "seeds = 0,1\nippg.duration_s = 8\n"
                                     "ippg.height = 4\nippg.width = 4\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == {"build_signal": 2 * 2, "bandpass": 2 * 2}
        assert load_report(tmp_path / "ippg.json")["aggregate"]["median_hr_error_hz"] <= 0.1

    def test_ippg_nul_in_frame_path_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ippg.fore_path = a\0b.ippg\n"
                                     "ippg.nose_path = nose.ippg\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read a\0b.ippg")
        assert not (tmp_path / "ippg.json").exists()

    def test_ippg_band_without_bins_is_data_error(self, tmp_path, capsys):
        # 2000 frames at 1000 fps space the 2048 bins 0.49 Hz apart
        cfg = write_config(tmp_path, "ippg.fps = 1000\nippg.duration_s = 2\n"
                                     "ippg.height = 2\nippg.width = 2\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "data error: band [0.15, 0.4] holds no FFT bin\n"
        assert not (tmp_path / "ippg.json").exists()

    def test_data_path_is_read_once_per_command(self, tmp_path, monkeypatch):
        assert run_cli(["synth", "--config", write_config(tmp_path, QUICK),
                        "--out", str(tmp_path)]) == 0
        reads = []
        monkeypatch.setattr(cli, "load_csv",
                            lambda path: reads.append(path) or data.load_csv(path))
        table = tmp_path / "synth_0.csv"
        cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2")
                           + "data.path = %s\n" % table, name="csv.cfg")
        for command in (["select"], ["baseline", "skb"]):
            reads.clear()
            assert run_cli(command + ["--config", cfg, "--out", str(tmp_path)]) == 0
            assert reads == [str(table)]

    def test_ippg_single_path_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "ippg.fore_path = only_one.ippg\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_importance_ranking(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["importance", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "importance.json")
        agg = doc["aggregate"]
        assert len(agg["importance_total"]) == 6
        assert sorted(agg["ranking"]) == list(range(6))
        totals = agg["importance_total"]
        assert totals[agg["ranking"][0]] == max(totals)


def test_reports_identical_across_processes(tmp_path):
    """select and bench sphere, each run in two fresh interpreters with
    different hash seeds, write byte-identical reports once the
    wall-time field is masked: no result depends on dict or set order
    or on import-time state."""
    cfg = write_config(tmp_path, QUICK)
    src = os.path.dirname(os.path.dirname(sparksel.__file__))
    for args, name in ((["select"], "select.json"), (["bench", "sphere"], "bench_sphere.json")):
        texts = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "sparksel.cli", *args, "--config", cfg,
                 "--out", str(tmp_path)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            report = (tmp_path / name).read_text()
            texts.append(re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": _', report))
        assert texts[0] == texts[1]


def test_cli_import_leaves_scipy_signal_unloaded():
    """Only the iPPG filter needs scipy.signal, so it loads on the first
    filter design, not with every sparksel process."""
    src = os.path.dirname(os.path.dirname(sparksel.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparksel.cli; print('scipy.signal' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# A fresh interpreter with a given usable-CPU count: "pinned" pins it to
# one CPU, as ``taskset -c 0`` does, and "2" makes it see two on any
# host.  It runs ``sparksel <argv>`` for each "|"-joined argv, then
# prints the exit codes and which process-pool modules were loaded.
CPU_SHIM = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:
    os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from sparksel import cli
def loaded():
    return [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
at_import = loaded()
codes = [cli.main(argv.split("|")) for argv in sys.argv[2:]]
print(json.dumps([codes, at_import, loaded()]))
"""


def run_with_cpus(cpus, *argvs):
    """(exit codes, pool modules loaded at import, loaded at the end) of
    ``sparksel <argv>`` for each argv, in one fresh interpreter whose
    hash seed differs between "pinned" and the rest."""
    src = os.path.dirname(os.path.dirname(sparksel.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1" if cpus == "pinned" else "2")
    proc = subprocess.run(
        [sys.executable, "-c", CPU_SHIM, cpus, *("|".join(a) for a in argvs)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def mask_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": _', text)


def test_multi_seed_reports_identical_across_processes(tmp_path):
    """select and bench sphere with 3 seeds, once pinned to one CPU and
    once through worker processes, each in a fresh interpreter with its
    own hash seed, write byte-identical reports once the wall time is
    masked; the pinned interpreter never loads the process pool."""
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2"))
    pool_modules = ["multiprocessing", "concurrent.futures.process"]
    for argv, name in ((["select"], "select.json"), (["bench", "sphere"], "bench_sphere.json")):
        argv = argv + ["--config", cfg, "--out", str(tmp_path)]
        texts = []
        for cpus, loaded in (("pinned", []), ("2", pool_modules)):
            assert run_with_cpus(cpus, argv) == [[0], [], loaded]
            texts.append(mask_wall_time((tmp_path / name).read_text()))
        assert texts[0] == texts[1]


def test_single_run_commands_load_no_process_pool(tmp_path):
    """Importing the CLI, a command with one run, and baseline skb with
    several seeds load neither multiprocessing nor the process pool, even
    with 2 usable CPUs: a pool's import and start-up are paid only where
    runs are spread."""
    cfg = write_config(tmp_path, QUICK + "bench.algorithms = ifa\n"
                       "ippg.duration_s = 8\nippg.height = 4\nippg.width = 4\n")
    common = ["--config", cfg, "--out", str(tmp_path)]
    argvs = [argv + common for argv in (["select"], ["importance"], ["baseline", "pso"],
                                         ["bench", "sphere"], ["synth"], ["ippg"],
                                         ["baseline", "skb", "--seeds", "0,1,2"])]
    assert run_with_cpus("2", *argvs) == [[0] * len(argvs), [], []]


def use_cpus(monkeypatch, n):
    """Make ``cli`` see ``n`` usable CPUs, so either path runs on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each process pool ``cli`` starts."""
    import concurrent.futures

    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


@pytest.mark.parametrize("seeds", ["0", "0,1", "0,1,2", "0,1,2,3,4"])
@pytest.mark.parametrize("argv, name", [
    (["select"], "select.json"),
    (["importance"], "importance.json"),
    (["baseline", "pso"], "baseline_pso.json"),
    (["bench", "sphere"], "bench_sphere.json"),  # ifa and fa, the default
])
def test_worker_runs_equal_in_process_runs(tmp_path, monkeypatch, pools, argv, name, seeds):
    """A report is byte-identical, wall times masked, whether its runs go
    through worker processes or run in this process.  One run starts no
    pool, and with 2 usable CPUs a pool has one worker: this process
    runs items too."""
    cfg = write_config(tmp_path, QUICK)
    texts = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert run_cli(argv + ["--config", cfg, "--seeds", seeds, "--out", str(tmp_path)]) == 0
        assert multiprocessing.active_children() == []
        texts.append(mask_wall_time((tmp_path / name).read_text()))
    assert texts[0] == texts[1]
    runs = len(seeds.split(",")) * (2 if argv[0] == "bench" else 1)
    assert pools == ([] if runs == 1 else [1])


def test_baseline_skb_starts_no_pool(tmp_path, monkeypatch, pools):
    """skb is a filter with no search, so a pool would cost more than
    its runs: they stay in this process."""
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK)
    assert run_cli(["baseline", "skb", "--config", cfg, "--seeds", "0,1,2,3,4",
                    "--out", str(tmp_path)]) == 0
    assert pools == []
    assert len(load_report(tmp_path / "baseline_skb.json")["runs"]) == 5


def fail_in_select(monkeypatch, fail):
    """Call ``fail(seed)`` at the start of every wrapper selection; the
    fork carries the patch into the workers."""
    real = selection.select_features

    def select_features(ds, cfg):
        fail(cfg.split_seed)
        return real(ds, cfg)

    monkeypatch.setattr(selection, "select_features", select_features)


@pytest.mark.parametrize("error, code, message", [
    (ConfigError("bad setting"), 1, "config error: bad setting"),
    (DataError("bad table"), 2, "data error: bad table"),
    (InvariantError("broken rule"), 3, "internal error: broken rule"),
    (MemoryError("no room"), 1, "config error: out of memory: no room"),
])
def test_worker_error_keeps_exit_code_and_message(tmp_path, monkeypatch, capsys, pools,
                                                  error, code, message):
    """An error raised in a worker exits as the in-process run does, with
    the same one-line message, writes no report and leaves no worker."""
    def fail(seed):
        if seed == 0:  # keeps this process busy, so a worker takes seed 1
            time.sleep(0.2)
        if seed == 1:
            raise error

    fail_in_select(monkeypatch, fail)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2"))
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == code
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err == message + "\n"
    assert pools == [1]
    assert not (tmp_path / "select.json").exists()


def test_killed_worker_exits_three_naming_it(tmp_path, monkeypatch, capsys, pools):
    """A worker killed by a signal ends the command with exit code 3 and
    a message saying so, not a hang, and no worker is left behind."""
    parent = os.getpid()

    def fail(seed):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.2)  # leaves the worker time to take a seed

    fail_in_select(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2"))
    assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: a worker process was killed:") and err.count("\n") == 1
    assert multiprocessing.active_children() == []
    assert pools == [1]
    assert not (tmp_path / "select.json").exists()


def test_first_failure_starts_no_further_seed(tmp_path, monkeypatch, capsys, pools):
    """Once a seed fails, the seeds not yet handed to a worker never
    start: a 5-seed run does not finish its other seeds first."""
    started = tmp_path / "started"
    started.write_text("")

    def fail(seed):
        if seed == 0:  # fails while the other process runs seed 1
            time.sleep(0.1)
            raise DataError("seed 0 fails")
        with open(started, "a", encoding="utf-8") as fh:
            fh.write("%d\n" % seed)
        time.sleep(0.5)  # the failure is seen while seed 1 sleeps

    fail_in_select(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2,3,4"))
    assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "data error: seed 0 fails\n"
    assert "4" not in started.read_text().split()
    assert multiprocessing.active_children() == []


def test_interrupt_starts_no_further_seed(tmp_path, monkeypatch, pools):
    """An interrupt stops the seeds as a failure does: the seeds not yet
    handed to a process never start, and no worker is left."""
    started = tmp_path / "started"
    started.write_text("")

    def interrupt(seed):
        if seed == 0:  # interrupted while the other process runs seed 1
            time.sleep(0.2)
            raise KeyboardInterrupt
        with open(started, "a", encoding="utf-8") as fh:
            fh.write("%d\n" % seed)
        time.sleep(0.5)

    fail_in_select(monkeypatch, interrupt)
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2,3,4"))
    with pytest.raises(KeyboardInterrupt):
        run_cli(["select", "--config", cfg, "--out", str(tmp_path)])
    assert not {"2", "3", "4"} & set(started.read_text().split())
    assert multiprocessing.active_children() == []


def test_this_process_runs_items_beside_its_workers(tmp_path, monkeypatch, pools):
    """With 2 usable CPUs, 3 seeds run in this process and one worker,
    each taking the next seed when it is free, so no more processes are
    busy than there are CPUs."""
    ran = tmp_path / "ran"

    def fail(seed):
        with open(ran, "a", encoding="utf-8") as fh:
            fh.write("%d\n" % os.getpid())
        if seed == 0:  # keeps this process busy while the worker takes seed 1
            time.sleep(0.2)

    fail_in_select(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2"))
    assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 0
    pids = {int(p) for p in ran.read_text().split()}
    assert len(pids) == 2 and os.getpid() in pids
    assert pools == [1]


def test_first_error_in_item_order_wins(tmp_path, monkeypatch, capsys, pools):
    """An error raised in the worker in seed 1 yields to the later error
    of seed 0 here: the command fails as the loop in order would."""
    def fail(seed):
        if seed == 0:
            time.sleep(0.2)
            raise DataError("seed 0 fails")
        raise ConfigError("seed %d fails" % seed)

    fail_in_select(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path, QUICK.replace("seeds = 0", "seeds = 0,1,2"))
    assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "data error: seed 0 fails\n"
    assert multiprocessing.active_children() == []
    assert pools == [1]


class TestCompare:
    def make_reports(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert run_cli(["baseline", "skb", "--config", cfg,
                        "--out", str(tmp_path)]) == 0
        return (tmp_path / "select.json", tmp_path / "baseline_skb.json")

    def test_self_comparison_is_zero(self, tmp_path, capsys):
        sel, _ = self.make_reports(tmp_path)
        text = ("compare.reference = %s\ncompare.others = %s\n" % (sel, sel))
        cfg = write_config(tmp_path, text, name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "+0.00" in out
        assert "---" in out
        doc = load_report(tmp_path / "compare.json")
        assert doc["rows"][0]["delta_avg_pct"] is None
        assert doc["rows"][1]["delta_avg_pct"] == 0.0
        assert (tmp_path / "compare.txt").exists()

    def test_two_method_table(self, tmp_path):
        sel, skb_report = self.make_reports(tmp_path)
        text = ("compare.reference = %s\ncompare.others = %s\n" % (sel, skb_report))
        cfg = write_config(tmp_path, text, name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = load_report(tmp_path / "compare.json")
        assert [r["method"] for r in doc["rows"]][0] == "select-ifa"
        a = load_report(sel)["aggregate"]["median_avg"] * 100
        b = load_report(skb_report)["aggregate"]["median_avg"] * 100
        assert doc["rows"][1]["delta_avg_pct"] == pytest.approx(b - a)

    def test_delta_formatting_two_decimals(self):
        from sparksel.cli import _render_table
        rows = [
            {"method": "ref", "avg_pct": 97.55, "delta_avg_pct": None},
            {"method": "alt", "avg_pct": 97.10, "delta_avg_pct": -0.45},
        ]
        table = _render_table(rows)
        assert "97.55" in table and "-0.45" in table and "---" in table

    def test_protocol_mismatch_rejected(self, tmp_path, capsys):
        """Reports on other data, budgets, model sizes, mask floors or
        schemas do not share a table; the error names the key."""
        sel, _ = self.make_reports(tmp_path)
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        cfg2 = write_config(tmp_path,
                            QUICK.replace("synth.n_samples = 40",
                                          "synth.n_samples = 44"),
                            name="other.cfg")
        assert run_cli(["select", "--config", cfg2, "--out", str(other_dir)]) == 0
        others = {"synth.n_samples": other_dir / "select.json"}
        for key, value in [("swarm.max_evaluations", 80), ("adaboost.rounds", 6),
                           ("selection.lambda_fraction", 0.4), ("schema_version", 1)]:
            doc = load_report(sel)
            (doc["config"] if "." in key else doc)[key] = value
            others[key] = tmp_path / ("%s.json" % key)
            others[key].write_text(json.dumps(doc))
        capsys.readouterr()
        for key, path in others.items():
            text = "compare.reference = %s\ncompare.others = %s\n" % (sel, path)
            cfg = write_config(tmp_path, text, name="cmp.cfg")
            assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2, key
            assert "differ in %s\n" % key in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '[1, 2]',
        '{"config": [], "aggregate": {"median_avg": 0.7}}',
        '{"aggregate": [0.7]}',
        '{"aggregate": {"median_avg": "0.7"}}',
        '{"aggregate": {"median_avg": NaN}}',
        '{"aggregate": {"median_avg": -Infinity}}',
        '{"aggregate": {"median_avg": true}}',
        '{"aggregate": {"median_avg": 1%s}}' % ("0" * 400),
        '{"aggregate": {"median_avg": 1.5}}',
        '{"aggregate": {"median_avg": 1%s}}' % ("0" * 5000),
        '{"method_label": 5, "aggregate": {"median_avg": 0.7}}',
        '{"method_label": null, "aggregate": {"median_avg": 0.7}}',
        '{"command": ["select"], "aggregate": {"median_avg": 0.7}}',
        '{"aggregate": {"median_f1": 0.7}}',
        "[" * 200_000,
        '{"a": ' * 200_000,
    ], ids=["list", "config_list", "aggregate_list", "avg_string", "avg_nan", "avg_inf",
            "avg_bool", "avg_huge_int", "avg_above_one", "avg_over_digit_limit",
            "label_int", "label_null", "command_list", "no_median_avg",
            "nested_arrays", "nested_objects"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        good = tmp_path / "good.json"
        good.write_text('{"aggregate": {"median_avg": 0.7}}')
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        cfg = write_config(tmp_path, "compare.reference = %s\ncompare.others = %s\n"
                           % (good, bad), name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()
        assert not (tmp_path / "compare.txt").exists()

    def test_missing_reference_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "compare.others = x.json\n", name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unreadable_report_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path, "compare.reference = missing.json\n",
                           name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_nul_in_report_path_cannot_be_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "compare.reference = a\0b.json\n", name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("data error: cannot read report a\0b.json")


FROZEN_CONFIG = QUICK.replace("seeds = 0", "seeds = 0,1") + (
    "split.holdout_fraction = 0.25\n"
    "bench.algorithms = ifa,fa,pso,ba\n"
    "ippg.emit_frames = true\n"
    "ippg.duration_s = 8\n"
    "ippg.height = 4\n"
    "ippg.width = 4\n"
)

# (command line, files it writes), run in this order into one directory
FROZEN_RUNS = [
    (["select"], ["select.json"]),
    (["importance"], ["importance.json"]),
    (["baseline", "fa"], ["baseline_fa.json"]),
    (["baseline", "pso"], ["baseline_pso.json"]),
    (["baseline", "ba"], ["baseline_ba.json"]),
    (["baseline", "skb"], ["baseline_skb.json"]),
    (["bench", "sphere"], ["bench_sphere.json"]),
    (["bench", "rastrigin"], ["bench_rastrigin.json"]),
    (["bench"], ["bench_sphere.json"]),
    (["synth"], ["synth.json", "synth_0.csv", "synth_1.csv"]),
    (["ippg"], ["ippg.json", "frames_fore_0.ippg", "frames_nose_0.ippg",
                "frames_fore_1.ippg", "frames_nose_1.ippg"]),
    (["compare"], ["compare.json", "compare.txt"]),
]

COMPARED = ["select.json", "importance.json", "baseline_fa.json", "baseline_pso.json",
            "baseline_ba.json", "baseline_skb.json"]

FROZEN_DIGESTS = {
    "select stdout":
        "fe60289b06a8dab85078f3ef129b52f9dc031f68b5b108e10201e0f319950771",
    "select select.json":
        "6d0d84bbcbb0ab6762c310df858924060467368ccd8e634580c566d19c5747e1",
    "importance stdout":
        "0a5a02937ee2e963224f0da35a255af00efe4cf8246b9621b3b5cccd8cbe44d2",
    "importance importance.json":
        "7f6cf8ccade6f76d0702820885c4f17a08b7a57b2715e0f53a1e9e245b8441ba",
    "baseline fa stdout":
        "35844e4d51576addad46891a28bead8a026a12ac7ee792cd5aa49179c3f4ce85",
    "baseline fa baseline_fa.json":
        "02b1e71a507a4b748cfd8d96a55843077af3dc9039d5fd161d6989d787191a5c",
    "baseline pso stdout":
        "f96aef30027a95048a9617ff5e2b93d9cd743294e340db765d298f4d030399ca",
    "baseline pso baseline_pso.json":
        "b8964f27b98fb89464e7ec5d600a4a13e1526a100c26a1cfd427867db19c6ddd",
    "baseline ba stdout":
        "dbdc988f4b7c12c762e7848d500121608c9d079139dfe1a9277909f9e090107b",
    "baseline ba baseline_ba.json":
        "cfdf13f1357a1f80bdd1f53c77ba4fcf34789e9664698a0682236b037ee500aa",
    "baseline skb stdout":
        "bc9567d94ad58121bffbe3a86f58a27c893a6a6afa5f3c3c4d86514c7700dcb0",
    "baseline skb baseline_skb.json":
        "d7316a6357dc96f88690289c20cd1d265d1686f023d4896961ae006cbb6847a8",
    "bench sphere stdout":
        "5b208d9ea0af3cfb6bb977970249f2b780eb53a9fcdbac438e5478c8d6b756d8",
    "bench sphere bench_sphere.json":
        "726698a0c4e51954760eeb7c9ef6fdd5f6b33d972d91c36d430df476edc3fd25",
    "bench rastrigin stdout":
        "8507208dedc2edb7760c7118f2a7753eea6ee001c61a8903de69a2eb406694cd",
    "bench rastrigin bench_rastrigin.json":
        "9e48586eb0b3bf14b83203dd71cc8394352ea991b067a8e4e8ce097bb1d08952",
    "bench stdout":
        "5b208d9ea0af3cfb6bb977970249f2b780eb53a9fcdbac438e5478c8d6b756d8",
    "bench bench_sphere.json":
        "726698a0c4e51954760eeb7c9ef6fdd5f6b33d972d91c36d430df476edc3fd25",
    "synth stdout":
        "07c4f2338b08309c73166b526ea74993db56878875745f9dc678e89ec7772333",
    "synth synth.json":
        "3439e9dfd7c4b5b7d215e7b4f2fefdff1cca00a0164fa95b97e1dc8cd3ef5c2a",
    "synth synth_0.csv":
        "68f6b933de658ed5450d4f826ce4aeb125c67e8c1c84d84edfa741bcfa6eedf4",
    "synth synth_1.csv":
        "6bae7c196fcb3f1544056664ae24234d0cb9681819626f7074441a6a737dd5be",
    "ippg stdout":
        "061200c8b7ed8b20b1fcb6b1d3e7e7234d142faaf520e64a258410a80e2f10c3",
    "ippg ippg.json":
        "37d1b41c995ea717ffc68654c26c29aa511b67a447c8288cfcb4ae21478a4039",
    "ippg frames_fore_0.ippg":
        "a4522a6a4338b57101bdcb62c6c4cfc610bae2bf835c153aab80576effcaadcc",
    "ippg frames_nose_0.ippg":
        "293977036a5d47e65b20ecb66921016f2ab36ca1a837dce5fb348b7472eddd83",
    "ippg frames_fore_1.ippg":
        "f43c43ff833ec9d3debfb8ba40a5ee7b971430519bac803cdbdad95fc7c7734d",
    "ippg frames_nose_1.ippg":
        "fad37e6cf70eb6017bb73ba1b75471bb63c8977f7a84a191b7e7c53083c7c04f",
    "compare stdout":
        "c8745d30629f42ac8bec287fcd09bd55d921edcd0443a186a84ba35a4cfc1eb1",
    "compare compare.json":
        "8079c613326767420960bdb7873a72eb6db14886c2916b4b1fd851b6b797119e",
    "compare compare.txt":
        "3c2ad6471072bbbdee0f1038f89c5599809edef2ada728c52db66891a445420f",
}


def test_every_report_is_frozen(tmp_path, capsys):
    """Every command's report, data file and stdout on one config, pinned
    by sha256 once the wall times and the temp directory are masked: a
    change to how the CLI assembles or writes its output must leave
    every byte of it as it was."""
    import hashlib

    out = tmp_path / "out"
    base = FROZEN_CONFIG + "compare.reference = %s\ncompare.others = %s\n" % (
        out / COMPARED[0], ",".join(str(out / name) for name in COMPARED[1:]))
    cfg = write_config(tmp_path, base)

    def masked(data):
        text = data.decode("utf-8").replace(str(tmp_path), "<tmp>")
        return re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": _', text).encode()

    digests = {}
    for argv, names in FROZEN_RUNS:
        assert run_cli(argv + ["--config", cfg, "--out", str(out)]) == 0
        step = " ".join(argv)
        digests[step + " stdout"] = masked(capsys.readouterr().out.encode())
        for name in names:
            data = (out / name).read_bytes()
            digests["%s %s" % (step, name)] = data if name.endswith(".ippg") else masked(data)
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()}
    assert digests == FROZEN_DIGESTS
