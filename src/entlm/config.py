"""Flat dotted-key configuration files with sections, plus flag overrides.

Format:

    [model]
    hidden_size = 64
    [train]
    total_steps = 200

which resolves to {"model.hidden_size": "64", "train.total_steps": "200"}.
Values are coerced against a declared schema; unknown keys are rejected so
experiment records stay diffable and typo-proof.
"""

from __future__ import annotations

from .errors import ConfigError, ContractError
from .files import read_lines


def parse_config_file(path):
    """{"section.key": "value"} of a UTF-8 config file; any fault, undecodable
    bytes among them, raises ConfigError("<path>:<line>: ...")."""
    values = {}
    section = ""

    def parse(raw):
        nonlocal section
        line = raw.split("#", 1)[0].strip()
        if not line:
            return
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            return
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        full = f"{section}.{key}" if section else key
        if full in values:
            raise ConfigError(f"duplicate key {full}")
        values[full] = value.strip()

    try:
        read_lines(path, parse)
    except ContractError as e:  # read_lines names the path and line
        raise ConfigError(str(e)) from None
    return values


def parse_overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce_one(key, value, typ):
    if isinstance(value, typ) and not isinstance(value, str):
        return value
    try:
        if typ is bool:
            if str(value).lower() in ("1", "true", "yes"):
                return True
            if str(value).lower() in ("0", "false", "no"):
                return False
            raise ValueError(value)
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key}: cannot parse {value!r} as {typ.__name__}") from None


def resolve(schema, file_values, overrides=None):
    """Merge file values and overrides against a {key: type} schema.

    Every consumed key must be declared; unknown keys raise ConfigError.
    """
    merged = dict(file_values)
    merged.update(overrides or {})
    unknown = sorted(set(merged) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {k: _coerce_one(k, v, schema[k]) for k, v in merged.items()}


def section(values, prefix):
    """Sub-dict of keys under `prefix.`, with the prefix stripped."""
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in values.items() if k.startswith(prefix + ".")}
