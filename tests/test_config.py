"""Config parsing, canonical hashing, and typed accessors."""

import numpy as np
import pytest

from sensorgrad.config import (
    Config,
    ConfigError,
    canonical_text,
    config_hash,
    load_config,
    parse_config_text,
)

SAMPLE = """
# full-line comment
run.environment = cannon
seed = 11
run.noise_scales = [1.0, 2.0]
search.learning_rate = 0.15
search.normalize = true
cannon.label = "two words"
"""


def test_parsing_reads_json_values_and_bare_words():
    values = parse_config_text(SAMPLE)
    assert values["run.environment"] == "cannon"
    assert values["seed"] == 11
    assert values["run.noise_scales"] == [1.0, 2.0]
    assert values["search.learning_rate"] == 0.15
    assert values["search.normalize"] is True
    assert values["cannon.label"] == "two words"
    assert list(values) == [
        "run.environment",
        "seed",
        "run.noise_scales",
        "search.learning_rate",
        "search.normalize",
        "cannon.label",
    ]


def test_parse_errors_carry_source_and_line_number():
    with pytest.raises(ConfigError, match=r"^job.cfg:2: expected 'key = value'"):
        parse_config_text("a = 1\njust words\n", source="job.cfg")
    with pytest.raises(ConfigError, match=r"^job.cfg:1: invalid key '2bad'"):
        parse_config_text("2bad = 1\n", source="job.cfg")
    with pytest.raises(ConfigError, match=r"^job.cfg:3: duplicate key 'a'"):
        parse_config_text("a = 1\nb = 2\na = 3\n", source="job.cfg")
    with pytest.raises(ConfigError, match=r"^job.cfg:1: key 'a' has no value"):
        parse_config_text("a =\n", source="job.cfg")
    with pytest.raises(ConfigError, match=r"^job.cfg:1: .*neither JSON nor a bare word"):
        parse_config_text("a = [1,\n", source="job.cfg")


def test_canonical_text_sorts_keys_and_round_trips():
    values = parse_config_text(SAMPLE)
    text = canonical_text(values)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")
    assert parse_config_text(text) == values


def test_hash_ignores_key_order_and_formatting_but_not_values():
    first = parse_config_text("a = 1\nb = [1, 2]\n")
    second = parse_config_text("b=[1,2]\n# noise\n\na   =   1\n")
    assert config_hash(first) == config_hash(second)
    changed = dict(first, a=2)
    assert config_hash(changed) != config_hash(first)
    assert len(config_hash(first)) == 64


def test_typed_accessors_enforce_their_types():
    config = Config(
        parse_config_text(
            "n = 4\nrate = 0.5\nflag = true\nname = cannon\n"
            "names = [\"a\", \"b\"]\nvec = [1.0, 2.0]\n"
            "mat = [[1.0, 0.0], [0.0, 2.0]]\n"
        ),
        source="job.cfg",
    )
    assert config.get_int("n") == 4
    assert config.get_float("rate") == 0.5
    assert config.get_float("n") == 4.0
    assert config.get_bool("flag") is True
    assert config.get_str("name") == "cannon"
    assert config.get_str_list("names") == ["a", "b"]
    assert np.array_equal(config.get_vector("vec"), [1.0, 2.0])
    assert np.array_equal(config.get_matrix("mat"), np.diag([1.0, 2.0]))
    with pytest.raises(ConfigError, match="key 'flag' must be an integer"):
        config.get_int("flag")
    with pytest.raises(ConfigError, match="key 'rate' must be an integer"):
        config.get_int("rate")
    with pytest.raises(ConfigError, match="must be a boolean"):
        config.get_bool("n")
    with pytest.raises(ConfigError, match="must be a string"):
        config.get_str("n")
    with pytest.raises(ConfigError, match="must be a list of strings"):
        config.get_str_list("vec")
    with pytest.raises(ConfigError, match="must be a list of numbers"):
        config.get_vector("names")
    with pytest.raises(ConfigError, match="equal-length number rows"):
        config.get_matrix("vec")


def test_missing_keys_and_defaults():
    config = Config({"a": 1}, source="job.cfg")
    with pytest.raises(ConfigError, match="job.cfg: missing required key 'b'"):
        config.get_int("b")
    assert config.get_int("b", 7) == 7
    assert config.get_str("c", "fallback") == "fallback"
    assert config.has("a") and not config.has("b")


def test_covariance_accepts_flat_diagonal_or_full_matrix():
    config = Config(
        parse_config_text("diag = [1.0, 4.0]\nfull = [[2.0, 0.5], [0.5, 1.0]]\n")
    )
    assert np.array_equal(config.get_cov("diag"), np.diag([1.0, 4.0]))
    assert np.array_equal(
        config.get_cov("full"), np.array([[2.0, 0.5], [0.5, 1.0]])
    )


def test_ragged_matrix_is_rejected():
    config = Config({"mat": [[1.0, 2.0], [3.0]]})
    with pytest.raises(ConfigError, match="equal-length number rows"):
        config.get_matrix("mat")


def test_with_value_returns_a_new_config():
    config = Config({"seed": 1}, source="job.cfg")
    merged = config.with_value("seed", 2)
    assert merged.get_int("seed") == 2
    assert config.get_int("seed") == 1
    assert merged.hash() != config.hash()
    assert merged.source == "job.cfg"


def test_unknown_keys_are_named():
    config = Config({"a": 1, "zz": 2, "mm": 3}, source="job.cfg")
    config_ok = Config({"a": 1})
    config_ok.get_int("a")
    config_ok.has("b")
    config_ok.check_unknown()
    config.get_int("a")
    with pytest.raises(ConfigError, match=r"unknown key 'mm' \(and 1 more\)"):
        config.check_unknown()


def test_has_and_every_accessor_record_the_keys_they_read():
    config = Config(
        {"flag": True, "n": 3, "v": [1.0], "cov": [1.0, 2.0], "extra": 0},
        source="job.cfg",
    )
    assert config.read == set()
    config.has("flag")
    config.get_int("n")
    config.get_cov("cov")
    config.get_vector("v", np.zeros(1))
    config.get_float("absent", 0.5)
    with pytest.raises(ConfigError, match="missing required key 'gone'"):
        config.get_str("gone")
    with pytest.raises(ConfigError, match="must be a string"):
        config.get_str("n")
    assert config.read == {"flag", "n", "cov", "v", "absent", "gone"}
    with pytest.raises(ConfigError, match=r"job.cfg: unknown key 'extra'$"):
        config.check_unknown()
    # A derived config starts its own record.
    assert config.with_value("extra", 1).read == set()
    config.get_int("extra")
    config.check_unknown()


def test_load_config_reads_files_and_reports_read_failures(tmp_path):
    path = tmp_path / "job.cfg"
    path.write_text("seed = 3\nrun.environment = cannon\n", encoding="utf-8")
    config = load_config(path)
    assert config.get_int("seed") == 3
    assert config.source == str(path)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg")
