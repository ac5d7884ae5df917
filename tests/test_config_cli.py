"""Session config schema and CLI error handling."""

import json

import pytest
import yaml

from fedtune import cli
from fedtune import session as session_mod
from fedtune.errors import ConfigurationError
from fedtune.session import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK

from conftest import small_session_doc


class TestUnknownKeys:
    def test_valid_doc_parses(self):
        cfg = session_mod.config_from_dict(small_session_doc(
            task={"teacher_seed": 5, "samples_per_label": 40, "noise_rate": 0.0},
            network={"uplink_bytes_per_s": 2e6, "downlink_bytes_per_s": 3e6},
            configurator={"trial_intvl_s": 1.0, "start_depth": 1}))
        assert cfg.network.uplink_bytes_per_s == 2e6
        assert cfg.configurator.trial_intvl_s == 1.0

    @pytest.mark.parametrize("doc, key", [
        (small_session_doc(max_round=1), "max_round"),
        (small_session_doc(model={**small_session_doc()["model"], "layers": 2}), "model.layers"),
        (small_session_doc(task={"samples_per_labels": 3}), "task.samples_per_labels"),
        (small_session_doc(network={"uplink": 1.0}), "network.uplink"),
        (small_session_doc(mode="autofed", configurator={"trial_intvl": 1}),
         "configurator.trial_intvl"),
    ])
    def test_unknown_key_named(self, doc, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            session_mod.config_from_dict(doc)

    def test_custom_device_keys_checked(self):
        profile = {"per_batch_latency_full": 1.0, "compute_power_watts": 5.0,
                   "radio_power_watts": 1.0, "cache_reload_latency": 0.01}
        cfg = session_mod.config_from_dict(small_session_doc(
            devices="slow", custom_devices={"slow": profile}))
        assert cfg.custom_devices["slow"].per_batch_latency_full == 1.0
        with pytest.raises(ConfigurationError, match="'custom_devices.slow.speed'"):
            session_mod.config_from_dict(small_session_doc(
                devices="slow", custom_devices={"slow": {**profile, "speed": 2}}))
        with pytest.raises(ConfigurationError, match="'custom_devices.slow.name'"):
            session_mod.config_from_dict(small_session_doc(
                devices="slow", custom_devices={"slow": {**profile, "name": "fast"}}))
        del profile["radio_power_watts"]
        with pytest.raises(ConfigurationError, match="missing key.*radio_power_watts"):
            session_mod.config_from_dict(small_session_doc(
                devices="slow", custom_devices={"slow": profile}))

    def test_missing_model_key_is_configuration_error(self):
        model = dict(small_session_doc()["model"])
        del model["heads"]
        with pytest.raises(ConfigurationError, match="missing key.*heads"):
            session_mod.config_from_dict(small_session_doc(model=model))

    def test_non_mapping_section(self):
        with pytest.raises(ConfigurationError, match="configurator"):
            session_mod.config_from_dict(small_session_doc(configurator=None))

    def test_task_shape_must_match_model(self):
        session_mod.config_from_dict(small_session_doc(task={"vocab": 24}))
        with pytest.raises(ConfigurationError, match="task.vocab"):
            session_mod.config_from_dict(small_session_doc(task={"vocab": 25}))

    @pytest.mark.parametrize("doc, key", [
        (small_session_doc(max_rounds="many"), "max_rounds"),
        (small_session_doc(relative_targets=0.9), "relative_targets"),
        (small_session_doc(network={"uplink_bytes_per_s": None}), "network.uplink_bytes_per_s"),
    ])
    def test_ill_typed_value_named(self, doc, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            session_mod.config_from_dict(doc)

    @pytest.mark.parametrize("doc, key", [
        (small_session_doc(cache_enabled="false"), "cache_enabled"),
        (small_session_doc(cache_enabled=0), "cache_enabled"),
        (small_session_doc(max_rounds=2.9), "max_rounds"),
        (small_session_doc(max_rounds=True), "max_rounds"),
        (small_session_doc(model={**small_session_doc()["model"], "hidden": False}),
         "model.hidden"),
        (small_session_doc(mode="autofed", configurator={"start_depth": 1.5}),
         "configurator.start_depth"),
        (small_session_doc(learning_rate=True), "learning_rate"),
    ])
    def test_bool_and_int_fields_are_strict(self, doc, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            session_mod.config_from_dict(doc)

    def test_integral_float_and_yaml_bool_accepted(self):
        cfg = session_mod.config_from_dict(small_session_doc(
            max_rounds=3.0, cache_enabled=False, learning_rate=1))
        assert cfg.max_rounds == 3 and type(cfg.max_rounds) is int
        assert cfg.cache_enabled is False and cfg.learning_rate == 1.0

    def test_round_trip_through_to_dict(self):
        profile = {"per_batch_latency_full": 1, "compute_power_watts": 5.0,
                   "radio_power_watts": 1.0, "cache_reload_latency": 0.01}
        for doc in (small_session_doc(mode="autofed"),
                    small_session_doc(devices={"slow": 1, "tx2": 2},
                                      custom_devices={"slow": profile})):
            cfg = session_mod.config_from_dict(doc)
            assert session_mod.config_from_dict(cfg.to_dict()) == cfg


class TestOutOfRange:
    """Values a session cannot run with are refused by the parser, before any world or trace."""

    @pytest.mark.parametrize("overrides, key", [
        ({"configurator": {"start_depth": -1}}, "configurator.start_depth"),
        ({"configurator": {"start_width": 4, "width_step": 4}}, "configurator.start_width"),
        ({"configurator": {"start_width": 12}}, "configurator.start_width"),
        ({"configurator": {"trial_intvl_s": 0.0}}, "configurator.trial_intvl_s"),
        ({"configurator": {"intvl_growth": 0.0}}, "configurator.intvl_growth"),
        ({"target_accuracy": 1.5}, "target_accuracy"),
        ({"target_accuracy": -0.1}, "target_accuracy"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
    ], ids=["start_depth", "start_width_min", "start_width_step", "trial_intvl_s",
            "intvl_growth", "target_above_1", "target_below_0", "seed_negative", "seed_2_64"])
    def test_rejected_before_any_session(self, overrides, key, tmp_path, capsys):
        doc = small_session_doc(mode="autofed", max_rounds=1, **overrides)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            session_mod.config_from_dict(doc)
        path = tmp_path / "session.yaml"
        path.write_text(yaml.safe_dump(doc))
        trace = tmp_path / "t.jsonl"
        code = cli.main(["run", "--config", str(path), "--out", str(trace)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"error: field '{key}'")
        assert not trace.exists()

    def test_edges_accepted(self):
        assert session_mod.config_from_dict(small_session_doc(seed=2**64 - 1)).seed == 2**64 - 1
        cfg = session_mod.config_from_dict(small_session_doc(
            mode="autofed", seed=0, target_accuracy=1.0,
            configurator={"start_width": 16, "width_step": 16, "trial_intvl_s": 0.5,
                          "intvl_growth": 0.5}))
        assert cfg.seed == 0 and cfg.target_accuracy == 1.0
        assert session_mod.config_from_dict(small_session_doc(target_accuracy=0.0))


class TestCli:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "session.yaml"
        path.write_text(yaml.safe_dump(small_session_doc(max_rounds=1)))
        return str(path)

    @pytest.mark.parametrize("grid", ["1-8", "1:8,2", "a:8", "1:8:2", ""])
    def test_bad_sweep_grid_exits_2(self, grid, config_path, tmp_path, capsys):
        code = cli.main(["sweep", "--config", config_path, "--grid", grid,
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["seed_negative", "seed_2_64"])
    def test_out_of_range_seed_override_exits_2(self, verb, seed, config_path, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        extra = ["--grid", "0:8", "--reference-accuracy", "0.5"] if verb == "sweep" else []
        code = cli.main([verb, "--config", config_path, "--seed", str(seed),
                         "--out", str(out), *extra])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: field 'seed'")
        assert not out.exists()

    def test_seed_override_reaches_the_session(self, config_path, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = cli.main(["run", "--config", config_path, "--seed", str(2**64 - 1),
                         "--out", str(trace)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1

    def test_parse_grid(self):
        assert cli.parse_grid("0:8,2:16") == [(0, 8), (2, 16)]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(small_session_doc(max_round=1)))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")])
        assert code == EXIT_CONFIG_ERROR
        assert "max_round" in capsys.readouterr().err

    def test_bad_grid_point_exits_2_before_any_session(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", config_path, "--grid", "0:8,9:8",
                         "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error: field 'fixed_depth'")
        assert list(tmp_path.rglob("*.jsonl")) == []
        assert not (out / "sweep_table.json").exists()

    @pytest.mark.parametrize("text", [None, "seed: [1\n"])
    def test_unreadable_config_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "session.yaml"
        if text is not None:
            path.write_text(text)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot read config '{path}'")


class TestExitCodes:
    """``run`` exits 0 without a target or once it is met, 3 when the budget ends first."""

    def run_cli(self, tmp_path, capsys, **overrides):
        path = tmp_path / "session.yaml"
        path.write_text(yaml.safe_dump(small_session_doc(max_rounds=2, **overrides)))
        trace = tmp_path / "t.jsonl"
        code = cli.main(["run", "--config", str(path), "--out", str(trace)])
        return code, json.loads(capsys.readouterr().out), trace

    def test_no_target_exits_0(self, tmp_path, capsys):
        code, summary, _ = self.run_cli(tmp_path, capsys)
        assert code == EXIT_OK
        assert summary["target_accuracy"] is None and summary["rounds"] == 2

    def test_met_target_exits_0(self, tmp_path, capsys):
        code, summary, _ = self.run_cli(tmp_path, capsys, target_accuracy=0.0)
        assert code == EXIT_OK
        assert summary["reached"] and summary["time_to_target"] is not None

    def test_unreachable_target_exits_3(self, tmp_path, capsys):
        code, summary, _ = self.run_cli(tmp_path, capsys, target_accuracy=1.0)
        assert code == EXIT_NOT_CONVERGED
        assert summary["best_accuracy"] < 1.0 and summary["rounds"] == 2
        assert not summary["reached"] and summary["time_to_target"] is None

    def test_report_exits_0(self, tmp_path, capsys):
        _, summary, trace = self.run_cli(tmp_path, capsys)
        assert cli.main(["report", str(trace)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["sessions"][0]["rounds"] == summary["rounds"]
