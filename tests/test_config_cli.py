"""Config grammar and the command-line surface: typed parsing with
line-accurate errors, round-trip identity, report shape, exit codes,
and the compare table."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sparksel
from sparksel import config as cfgmod
from sparksel import ippg
from sparksel.cli import main
from sparksel.config import default_config, parse_config, serialize_config
from sparksel.errors import ConfigError
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

    def test_round_trip_identity(self, tmp_path):
        first = parse_config(write_config(tmp_path, QUICK))
        text = serialize_config(first)
        second = parse_config(write_config(tmp_path, text, name="echo.cfg"))
        assert first.values == second.values
        assert serialize_config(second) == text

    def test_serialized_defaults_cover_every_key(self):
        text = serialize_config(default_config())
        keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
        assert keys == set(cfgmod.REGISTRY)

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

    def test_bad_seeds_flag(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        assert run_cli(["select", "--config", cfg, "--seeds", "a,b"]) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path, QUICK + "data.path = /nonexistent/x.csv\n")
        assert run_cli(["select", "--config", cfg, "--out", str(tmp_path)]) == 2

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

    @pytest.mark.parametrize("text", ["ippg.duration_s = inf", "ippg.hr_hz = inf"])
    def test_non_finite_ippg_setting_exits_one(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, "seeds = 0\n" + text + "\n")
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "ippg.json").exists()

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

    def test_ippg_mixed_length_pair_is_schema_checked(self, tmp_path, monkeypatch):
        paths = []
        for tag, seconds in (("fore", 8.0), ("nose", 4.0)):
            seq = ippg.synth_pulse_frames(25, seconds, 2, 2, 1.2, 0.25, seed=len(paths))
            paths.append(tmp_path / ("%s.ippg" % tag))
            ippg.write_frames(seq, paths[-1])
        cfg = write_config(
            tmp_path, "ippg.fore_path = %s\nippg.nose_path = %s\n" % tuple(paths))
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 0
        run = load_report(tmp_path / "ippg.json")["runs"][0]
        assert run["n_features"] == len(ippg.feature_schema(25, 200, 100))
        # a schema that names both halves from the fore length must fail
        one_length = ippg.feature_schema
        monkeypatch.setattr(ippg, "feature_schema",
                            lambda fps, n_frames, nose_frames=None: one_length(fps, n_frames))
        assert run_cli(["ippg", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_ippg_filters_each_roi_once(self, tmp_path, monkeypatch):
        """The HR/RR peaks come from the rows extract_features already
        band-passed: per capture pair, one build_signal per ROI and one
        bandpass per ROI and band."""
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
        assert calls == {"build_signal": 2 * 2, "bandpass": 2 * 4}
        assert load_report(tmp_path / "ippg.json")["aggregate"]["median_hr_error_hz"] <= 0.1

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

    def test_protocol_mismatch_rejected(self, tmp_path):
        sel, _ = self.make_reports(tmp_path)
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        cfg2 = write_config(tmp_path,
                            QUICK.replace("synth.n_samples = 40",
                                          "synth.n_samples = 44"),
                            name="other.cfg")
        assert run_cli(["select", "--config", cfg2, "--out", str(other_dir)]) == 0
        text = ("compare.reference = %s\ncompare.others = %s\n"
                % (sel, other_dir / "select.json"))
        cfg = write_config(tmp_path, text, name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_reference_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "compare.others = x.json\n", name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unreadable_report_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path, "compare.reference = missing.json\n",
                           name="cmp.cfg")
        assert run_cli(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
