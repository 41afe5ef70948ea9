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


@pytest.mark.parametrize(
    "value",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e999",
        "-1e999",
        "[Infinity, 4.0]",
        "[[0.5, 0.1], [NaN, 0.3]]",
        '{"x": [1e999]}',
    ],
)
def test_non_finite_numbers_are_refused_with_line_and_key(value):
    with pytest.raises(
        ConfigError, match=r"^job.cfg:2: value for 'b.c' holds a non-finite number"
    ):
        parse_config_text(f"a = 1\nb.c = {value}\n", source="job.cfg")


def test_finite_extremes_still_parse():
    values = parse_config_text("a = 1e308\nb = -5e-324\nc = [0.0, -0.0]\n")
    assert values == {"a": 1e308, "b": -5e-324, "c": [0.0, -0.0]}


@pytest.mark.parametrize(
    "value", ["1" + "0" * 5000, "[" * 100000 + "]" * 100000], ids=["digits", "depth"]
)
def test_a_value_past_pythons_limits_is_refused_with_line_and_key(value):
    with pytest.raises(
        ConfigError, match=r"^job.cfg:2: value for 'b.c' is too large to read \("
    ):
        parse_config_text(f"a = 1\nb.c = {value}\n", source="job.cfg")


def test_integers_beyond_the_float_range_parse_and_only_float_readers_refuse_them():
    huge = 10**400
    config = Config(
        parse_config_text(
            f"seed = {huge}\nrate = {huge}\nvec = [1.0, {-huge}]\n"
            f"mat = [[1.0, 0.0], [0.0, {huge}]]\n"
        ),
        source="job.cfg",
    )
    assert config.get_int("seed") == huge
    for read, key, shape in [
        (config.get_float, "rate", ()),
        (config.get_vector, "vec", ()),
        (config.get_matrix, "mat", (2, 2)),
        (config.get_cov, "mat", (2,)),
    ]:
        with pytest.raises(
            ConfigError,
            match=f"^job.cfg: key '{key}' holds an integer beyond the float range$",
        ):
            read(key, *shape)


def test_accessors_refuse_values_outside_their_bounds_by_key():
    config = Config(
        parse_config_text(
            "n = 0\nrate = -0.5\nname = moon\nnames = [\"a\", \"z\"]\n"
            "vec = [1.0, -2.0]\nnone = []\n"
        ),
        source="job.cfg",
    )
    cases = [
        (config.get_int, "n", dict(minimum=1), "must be at least 1"),
        (config.get_int, "n", dict(positive=True), "must be positive"),
        (config.get_float, "rate", dict(minimum=0.0), "must be nonnegative"),
        (
            config.get_str,
            "name",
            dict(choices=("sun", "sky")),
            "must be one of sun, sky, got 'moon'",
        ),
        (
            config.get_str_list,
            "names",
            dict(choices="ab"),
            "entries must be one of a, b, got 'z'",
        ),
        (config.get_vector, "vec", dict(minimum=0.0), "entries must be nonnegative"),
        (config.get_vector, "none", dict(nonempty=True), "must be nonempty"),
        (config.get_str_list, "none", dict(nonempty=True), "must be nonempty"),
    ]
    for read, key, bounds, problem in cases:
        with pytest.raises(ConfigError) as refused:
            read(key, **bounds)
        assert str(refused.value) == f"job.cfg: key '{key}' {problem}"
    assert config.get_int("n", minimum=0) == 0
    assert config.get_float("rate", minimum=-0.5) == -0.5
    assert config.get_vector("vec", minimum=-2.0).tolist() == [1.0, -2.0]
    assert config.get_vector("none").shape == (0,)
    # A default is bounded like a set value.
    with pytest.raises(ConfigError, match="key 'absent' must be positive"):
        config.get_int("absent", 0, positive=True)


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
    assert config.get_str("name") == "cannon"
    assert config.get_str_list("names") == ["a", "b"]
    assert np.array_equal(config.get_vector("vec"), [1.0, 2.0])
    assert np.array_equal(config.get_matrix("mat", 2, 2), np.diag([1.0, 2.0]))
    with pytest.raises(ConfigError, match="key 'flag' must be an integer"):
        config.get_int("flag")
    with pytest.raises(ConfigError, match="key 'rate' must be an integer"):
        config.get_int("rate")
    with pytest.raises(ConfigError, match="must be a string"):
        config.get_str("n")
    with pytest.raises(ConfigError, match="must be a list of strings"):
        config.get_str_list("vec")
    with pytest.raises(ConfigError, match="must be a list of numbers"):
        config.get_vector("names")
    with pytest.raises(ConfigError, match="must be a list of number rows"):
        config.get_matrix("vec", 1, 2)


def test_missing_keys_and_defaults():
    config = Config({"a": 1}, source="job.cfg")
    with pytest.raises(ConfigError, match="job.cfg: missing required key 'b'"):
        config.get_int("b")
    assert config.get_int("b", 7) == 7
    assert config.get_str("c", "fallback") == "fallback"
    assert config.has("a") and not config.has("b")


def test_covariance_accepts_flat_diagonal_or_full_matrix():
    config = Config(
        parse_config_text(
            "diag = [1.0, 4.0]\nfull = [[2.0, 0.5], [0.5, 1.0]]\nnone = []\n"
        )
    )
    assert np.array_equal(config.get_cov("diag", 2), np.diag([1.0, 4.0]))
    assert np.array_equal(
        config.get_cov("full", 2), np.array([[2.0, 0.5], [0.5, 1.0]])
    )
    assert config.get_cov("none", 0).shape == (0, 0)


def test_ragged_matrix_is_rejected():
    config = Config({"mat": [[1.0, 2.0], [3.0]]}, source="job.cfg")
    with pytest.raises(ConfigError, match="^job.cfg: key 'mat' must be 2 x 2$"):
        config.get_matrix("mat", 2, 2)


def test_a_matrix_is_read_at_its_shape():
    config = Config({"mat": [[1.0, 2.0, 3.0]], "empty": [[], []]}, source="job.cfg")
    assert config.get_matrix("mat", 1, 3).tolist() == [[1.0, 2.0, 3.0]]
    assert config.get_matrix("empty", 2, 0).shape == (2, 0)
    for rows, cols in [(3, 1), (1, 2), (2, 3)]:
        with pytest.raises(
            ConfigError, match=f"^job.cfg: key 'mat' must be {rows} x {cols}$"
        ):
            config.get_matrix("mat", rows, cols)


def test_a_covariance_is_read_as_a_positive_definite_dim_x_dim_matrix():
    refused = [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "be 2 x 2"),
        ([1.0, 1.0, 1.0], "be 2 x 2"),
        ([[1.0, 0.0]], "be 2 x 2"),
        ([[1.0, 1e-8], [0.0, 1.0]], "be symmetric"),
        ([[1e9, 3.0], [1.0, 1e9]], "be symmetric"),
        ([[1e308, -1e308], [1e308, 1e308]], "be symmetric"),
        ([[1.0, 1.0], [1.0, 1.0]], "be positive definite"),
        ([[1.0, 2.0], [2.0, 1.0]], "be positive definite"),
        ([1.0, 0.0], "be positive definite"),
        ([1.0, -0.5], "be positive definite"),
    ]
    for value, problem in refused:
        config = Config({"cov": value}, source="job.cfg")
        with pytest.raises(ConfigError, match=f"^job.cfg: key 'cov' must {problem}$"):
            config.get_cov("cov", 2)
    # Asymmetry within 1e-9 of the largest entry (at least 1) is read as written.
    for value in ([[1.0, 1e-10], [0.0, 1.0]], [[1e9, 0.5], [0.0, 1e9]]):
        assert np.array_equal(Config({"cov": value}).get_cov("cov", 2), value)


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
    config.get_cov("cov", 2)
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
