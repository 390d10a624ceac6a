"""Config files, overrides, and named random sub-streams."""

import numpy as np
import pytest

from entlm.config import parse_config_file, parse_overrides, resolve, section
from entlm.errors import ConfigError
from entlm.seeding import substream


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_sections_and_comments(tmp_path):
    path = write(tmp_path, """
# run settings
[train]
total_steps = 100
peak_lr = 1e-4

[data]
corpus = corpus.jsonl  # inline values are plain strings
""")
    values = parse_config_file(path)
    assert values["train.total_steps"] == "100"
    assert values["train.peak_lr"] == "1e-4"
    assert "data.corpus" in values


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "[a]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_malformed_line_rejected(tmp_path):
    path = write(tmp_path, "[a]\njust some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_resolve_types_and_unknown_keys():
    schema = {"train.steps": int, "train.lr": float, "train.on": bool, "data.name": str}
    values = resolve(schema, {"train.steps": "50", "train.lr": "1e-3", "train.on": "true"},
                     parse_overrides(["data.name=run1"]))
    assert values["train.steps"] == 50
    assert values["train.lr"] == pytest.approx(1e-3)
    assert values["train.on"] is True
    assert values["data.name"] == "run1"

    with pytest.raises(ConfigError):
        resolve(schema, {"train.stepz": "50"})
    with pytest.raises(ConfigError):
        resolve(schema, {"train.steps": "many"})


def test_overrides_win_over_file():
    schema = {"a.x": int}
    values = resolve(schema, {"a.x": "1"}, parse_overrides(["a.x=2"]))
    assert values["a.x"] == 2


def test_bad_override_shape_rejected():
    with pytest.raises(ConfigError):
        parse_overrides(["no_equals_sign"])


def test_section_strips_prefix():
    assert section({"train.a": 1, "data.b": 2}, "train") == {"a": 1}


# ---------------------------------------------------------------------------
# seeding


def test_substream_deterministic():
    a = substream(7, "masking", 3, 1).random(5)
    b = substream(7, "masking", 3, 1).random(5)
    assert np.array_equal(a, b)


def test_substream_names_are_independent():
    a = substream(7, "masking").random(5)
    b = substream(7, "dropout").random(5)
    c = substream(8, "masking").random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_extra_args_distinguish():
    a = substream(7, "masking", 0, 0).random(3)
    b = substream(7, "masking", 0, 1).random(3)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_uint32_key_seeds_as_the_list_form_does(length):
    # substream hands SeedSequence its key as a uint32 array; numpy makes the
    # same entropy words of a list of 32-bit ints, so every stream is unchanged
    rng = np.random.default_rng(length)
    for edge in (0, 2**32 - 1):
        key = [int(k) for k in rng.integers(0, 2**32, size=length)]
        key[rng.integers(length)] = edge
        want = np.random.default_rng(np.random.SeedSequence(key)).random(4)
        got = np.random.default_rng(np.random.SeedSequence(np.array(key, dtype=np.uint32))).random(4)
        np.testing.assert_array_equal(got, want)


def test_substream_draws_match_the_list_key():
    import zlib

    for seed, extra in ((0, ()), (2**32 - 1, (0,)), (-1, (2**32 - 1, 5)), (2**40 + 3, (0, 2**32 - 1, 7))):
        key = [seed & 0xFFFFFFFF, zlib.crc32(b"masking")] + [x & 0xFFFFFFFF for x in extra]
        want = np.random.default_rng(np.random.SeedSequence(key)).random(4)
        np.testing.assert_array_equal(substream(seed, "masking", *extra).random(4), want)
