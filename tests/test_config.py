import pytest
import yaml

from easerl.cli import EXIT_USAGE, main
from easerl.config import (
    SCHEMA_VERSION,
    config_hash,
    default_config,
    load_config,
    nav1_defaults,
    nav2_defaults,
    parse_config,
    serialize_config,
    validate_config,
)
from easerl.errors import ConfigError


class TestValidation:
    def test_empty_document_gets_defaults(self):
        cfg = parse_config("")
        assert cfg["schema_version"] == SCHEMA_VERSION
        assert cfg["environment"]["name"] == "nav1"
        assert cfg["training"]["learning_rate"] == pytest.approx(1e-3)

    def test_unknown_key_rejected_with_dotted_path(self):
        with pytest.raises(ConfigError, match="training.optimzer"):
            validate_config({"training": {"optimzer": "sgd"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: experiment"):
            validate_config({"experiment": {}})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config({"schema_version": 99})

    def test_scalar_for_mapping_rejected(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            validate_config({"training": 3})

    def test_bad_environment_name(self):
        with pytest.raises(ConfigError):
            validate_config({"environment": {"name": "maze"}})

    def test_bad_nav1_size(self):
        with pytest.raises(ConfigError):
            validate_config({"environment": {"name": "nav1", "barrier_size": 4}})

    def test_bad_nav1_side(self):
        with pytest.raises(ConfigError):
            validate_config({"environment": {"name": "nav1", "target_side": "up"}})

    def test_nav2_side_validation(self):
        ok = validate_config(
            {"environment": {"name": "nav2", "target_side": "LR"}}
        )
        assert ok["environment"]["target_side"] == "LR"
        with pytest.raises(ConfigError):
            validate_config({"environment": {"name": "nav2", "target_side": "L"}})
        with pytest.raises(ConfigError):
            validate_config({"environment": {"name": "nav2", "target_side": "LX"}})

    def test_negative_learning_rate(self):
        with pytest.raises(ConfigError):
            validate_config({"training": {"learning_rate": -1.0}})

    def test_zero_patience(self):
        with pytest.raises(ConfigError):
            validate_config({"training": {"convergence": {"patience": 0}}})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="finetune"):
            validate_config({"transfer": {"methods": ["finetune"]}})

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            validate_config({"transfer": {"seeds": []}})

    def test_bad_schedule_mode(self):
        # each curriculum reads its own list; the mode is no key of the schema
        for mode in ("ramp", "barrier_set", "reward_weight"):
            with pytest.raises(ConfigError, match="unknown config key: transfer.schedule.mode"):
                validate_config({"transfer": {"schedule": {"mode": mode}}})

    @pytest.mark.parametrize(
        "command, override, path",
        [
            ("train", {"training": {"arch": "mlp"}}, "training.arch"),
            ("train", {"training": {"hidden": 32}}, "training.hidden"),
            ("train", {"training": {"log_std_init": -0.7}}, "training.log_std_init"),
            ("transfer", {"transfer": {"l2sp_coeff": 0.01}}, "transfer.l2sp_coeff"),
            ("transfer", {"transfer": {"final_eval_episodes": 32}},
             "transfer.final_eval_episodes"),
            ("transfer", {"transfer": {"schedule": {"auto_stages": 3}}},
             "transfer.schedule.auto_stages"),
            # the whole block is gone, so any of its keys names the block
            ("transfer", {"transfer": {"find_sb1": {"max_halvings": 12}}}, "transfer.find_sb1"),
            ("transfer", {"transfer": {"find_sb1": {"max_inflations": 20}}},
             "transfer.find_sb1"),
            ("transfer", {"transfer": {"find_sb1": {"inflate_radius": 0.25}}},
             "transfer.find_sb1"),
        ],
        ids=["arch", "hidden", "log_std_init", "l2sp_coeff", "final_eval_episodes",
             "auto_stages", "max_halvings", "max_inflations", "inflate_radius"],
    )
    def test_deleted_key_exits_usage(self, command, override, path, tmp_path, capsys):
        """A config that still names a constant that left the schema (at its
        old default) exits 2 naming it; the line must be deleted."""
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(override))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: unknown config key: {path}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_landscape_grid(self):
        with pytest.raises(ConfigError):
            validate_config({"landscape": {"lo": 2.0, "hi": 1.0}})
        with pytest.raises(ConfigError):
            validate_config({"landscape": {"bucket": 0.0}})

    @pytest.mark.parametrize(
        "command, override, path",
        [
            ("transfer", {"transfer": {"relax_convergence": {"half_width": -1.0}}},
             "transfer.relax_convergence.half_width"),
            ("transfer", {"transfer": {"relax_convergence": {"patience": 0}}},
             "transfer.relax_convergence.patience"),
            ("transfer", {"transfer": {"stage_convergence": {"half_width": 0.0}}},
             "transfer.stage_convergence.half_width"),
            ("transfer", {"transfer": {"stage_convergence": {"patience": 0}}},
             "transfer.stage_convergence.patience"),
            ("train", {"training": {"eval_episodes": 0}}, "training.eval_episodes"),
            ("train", {"training": {"eval_every": 0}}, "training.eval_every"),
            ("transfer", {"transfer": {"methods": []}}, "transfer.methods"),
            # a leaf keeps its default's type: YAML reads 1.0e9 and 1e-3 as strings
            ("train", {"training": {"convergence": {"center": "1.0e9"}}},
             "training.convergence.center"),
            ("train", {"training": {"learning_rate": "1e-3"}}, "training.learning_rate"),
            ("train", {"training": {"learning_rate": True}}, "training.learning_rate"),
            ("train", {"training": {"batch_episodes": 2.5}}, "training.batch_episodes"),
            ("transfer", {"transfer": {"methods": ["naive", "naive"]}}, "transfer.methods"),
            ("transfer", {"transfer": {"seeds": ["a"]}}, "transfer.seeds"),
            ("transfer", {"transfer": {"seeds": 3}}, "transfer.seeds"),
            ("transfer", {"transfer": {"seeds": [0, 0]}}, "transfer.seeds"),
            ("transfer", {"transfer": {"seeds": []}}, "transfer.seeds"),
            ("transfer", {"transfer": {"budget": 0}}, "transfer.budget"),
            ("transfer", {"transfer": {"methods": "naive"}}, "transfer.methods"),
            ("transfer", {"transfer": {"schedule": {"alphas": ["a"]}}},
             "transfer.schedule.alphas"),
            ("transfer", {"transfer": {"schedule": {"barrier_sizes": 3}}},
             "transfer.schedule.barrier_sizes"),
            ("transfer", {"transfer": {"schedule": {"barrier_sizes": [4, float("nan")]}}},
             "transfer.schedule.barrier_sizes"),
            ("landscape", {"landscape": {"theta_source": [1]}}, "landscape.theta_source"),
            ("landscape", {"landscape": {"theta_source": [0.1, float("nan")]}},
             "landscape.theta_source"),
            ("landscape", {"landscape": {"theta_target": "foo"}}, "landscape.theta_target"),
            ("landscape", {"landscape": {"samples_per_cell": 1.5}},
             "landscape.samples_per_cell"),
            ("landscape", {"landscape": {"lo": "x"}}, "landscape.lo"),
            ("landscape", {"landscape": {"barrier_size": 2}}, "landscape.barrier_size"),
            ("transfer", {"transfer": {"schedule": {"barrier_sizes": [0, 7]}}},
             "transfer.schedule.barrier_sizes must be positive"),
        ],
    )
    def test_range_rule_rejected_and_cli_exits_usage(
        self, command, override, path, tmp_path, capsys
    ):
        with pytest.raises(ConfigError, match=path):
            validate_config(override)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(override))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_counts_must_be_integers(self):
        with pytest.raises(ConfigError, match="training.eval_episodes"):
            validate_config({"training": {"eval_episodes": 2.5}})
        with pytest.raises(ConfigError, match="training.eval_every"):
            validate_config({"training": {"eval_every": True}})

    def test_number_leaves_take_ints_and_yaml_floats(self):
        cfg = parse_config("training:\n  convergence:\n    center: 1.0e+9\n  learning_rate: 1\n")
        assert cfg["training"]["convergence"]["center"] == 1.0e9
        assert cfg["training"]["learning_rate"] == 1
        with pytest.raises(ConfigError, match="decimal point"):
            parse_config("training:\n  learning_rate: 1e-3\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("a: [unclosed")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = nav1_defaults(7)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_hash_stable_and_sensitive(self):
        a = nav1_defaults(7)
        b = nav1_defaults(7)
        assert config_hash(a) == config_hash(b)
        b["seed"] = 1
        assert config_hash(a) != config_hash(b)

    def test_load_config(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(serialize_config(nav2_defaults("LL")))
        cfg = load_config(p)
        assert cfg["environment"]["name"] == "nav2"

    def test_default_config_is_a_copy(self):
        a = default_config()
        a["seed"] = 123
        assert default_config()["seed"] == 0


class TestEnvDefaults:
    def test_nav1_band_centers_by_size(self):
        centers = {
            size: nav1_defaults(size)["training"]["convergence"]["center"]
            for size in (1, 3, 5, 7)
        }
        # measured returns fall with barrier size: longer detours score less
        assert centers[1] >= centers[3] >= centers[5] >= centers[7]
        assert all(8.0 < c < 13.0 for c in centers.values())

    def test_nav1_relax_band_above_target_band(self):
        cfg = nav1_defaults(7)
        relax = cfg["transfer"]["relax_convergence"]["center"]
        target = cfg["training"]["convergence"]["center"]
        assert relax > target  # removing the penalty can only raise the optimum

    def test_nav1_7_ships_explicit_barrier_schedule(self):
        cfg = nav1_defaults(7)
        assert cfg["transfer"]["schedule"] == {"alphas": [], "barrier_sizes": [4, 7]}

    def test_nav2_ships_alpha_ramp(self):
        cfg = nav2_defaults("LL")
        alphas = cfg["transfer"]["schedule"]["alphas"]
        assert alphas[0] == pytest.approx(0.001)
        assert alphas[-1] == 1.0
        assert alphas == sorted(alphas)
        assert cfg["training"]["convergence"]["center"] > 3000.0

    def test_all_defaults_validate(self):
        for cfg in (
            nav1_defaults(1),
            nav1_defaults(5, "right"),
            nav1_defaults(7),
            nav2_defaults("RR"),
        ):
            assert validate_config(cfg) == cfg
