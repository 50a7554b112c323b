"""The config file format: reading sections and writing text outputs.

Config files are JSON. Values are read with ``read`` inside a ``section``
block: a key with _mhz in its name is plain MHz and becomes rad/us, times
stay us, and a bad value raises ConfigError naming its section. Every
text output goes through ``write_lines``, CSV rows of floats made by
``float_rows``, or ``write_json``; which files embed the resolved config
is listed in cli.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Any

import numpy as np

from . import defaults
from .evolution import EvolutionConfig
from .model import TWO_PI, ChainSpec
from .protocols import PumpProtocol


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


COMMAND_SECTIONS = ("simulate", "sweep", "spectrum", "waveform", "readout", "stirap")
# The top-level keys each command reads; validate accepts every section.
SECTIONS_READ = {"simulate": ("chain", "protocol", "evolution", "simulate"), "sweep": ("sweep",),
                 "spectrum": ("chain", "protocol", "spectrum"), "waveform": ("protocol", "waveform"),
                 "readout": ("readout",), "stirap": ("evolution", "stirap"),
                 "validate": ("chain", "protocol", "evolution") + COMMAND_SECTIONS}


def pyify(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [pyify(x) for x in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, plain types."""
    return json.dumps(pyify(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def check_command_section(cfg: dict, command: str) -> None:
    """A config holds at most one command section, and it must name the
    subcommand; validate accepts any one section. Every other top-level key
    is a shared section (chain, protocol, evolution) that the command reads."""
    present = [name for name in COMMAND_SECTIONS if name in cfg]
    if len(present) > 1:
        raise ConfigError(f"config holds multiple command sections: {present}")
    if present and command != "validate" and present[0] != command:
        raise ConfigError(f"config section {present[0]!r} does not match subcommand {command!r}")
    try:
        refuse_unknown_keys(cfg, SECTIONS_READ[command], f"a {command} config")
    except ValueError as exc:
        raise ConfigError(f"bad top level: {exc}") from None


@contextmanager
def section(cfg: dict, name: str, keys: tuple[str, ...] | None = None):
    """Yield cfg[name] ({} when absent); a TypeError or ValueError raised in
    the block becomes ConfigError("bad <name> section: ...").

    Given keys, a key outside them is refused, so a typo is never ignored.
    End the block before any evolution: LinAlgError is a ValueError too.
    """
    try:
        values = cfg.get(name, {})
        if not isinstance(values, dict):
            raise TypeError(f"expected a JSON object, got {values!r}")
        if keys:
            refuse_unknown_keys(values, keys, "the section")
        yield values
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def refuse_unknown_keys(values: dict, keys, owner: str) -> None:
    """Raise ValueError naming every key of values outside keys, and the
    keys that owner takes, so a typo is never ignored."""
    unknown = sorted(set(values) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; {owner} takes {', '.join(keys)}")


def read(values: dict, key: str, default: Any, cast=float) -> Any:
    """cast(values[key]) in program units, or cast(default) when key is absent.

    The default is in program units already. A key with _mhz in its name
    is plain MHz (or MHz per unit) and is multiplied by 2*pi into rad/us.
    """
    if key not in values:
        return cast(default)
    value = cast(values[key])
    return TWO_PI * value if "_mhz" in key else value


def flag(value: Any) -> bool:
    """Cast for boolean keys: only JSON true or false, never a string or number."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def resolve_chain(cfg: dict) -> ChainSpec:
    with section(cfg, "chain", ("n_sites", "delta_parity")) as values:
        return ChainSpec(n_sites=read(values, "n_sites", defaults.CHAIN["n_sites"], int),
                         delta_parity=read(values, "delta_parity", defaults.CHAIN["delta_parity"], int))


def resolve_protocol(cfg: dict) -> PumpProtocol:
    base = defaults.PROTOCOL
    keys = ("kind", "j_max_mhz", "delta0_mhz", "delta_offset_mhz", "period_us", "n_cycles")
    with section(cfg, "protocol", keys) as values:
        return PumpProtocol(
            kind=read(values, "kind", base["kind"], str),
            j_max=read(values, "j_max_mhz", base["j_max"]),
            delta0=read(values, "delta0_mhz", base["delta0"]),
            delta_offset=read(values, "delta_offset_mhz", base["delta_offset"]),
            period=read(values, "period_us", base["period"]),
            n_cycles=read(values, "n_cycles", base["n_cycles"], int),
        )


def resolve_evolution(cfg: dict, dt_override: float | None = None) -> EvolutionConfig:
    with section(cfg, "evolution", ("dt_us", "store_states")) as values:
        dt = values.get("dt_us") if dt_override is None else dt_override
        return EvolutionConfig(dt=None if dt is None else float(dt),
                               store_states=read(values, "store_states", True, flag))


def write_lines(lines, path: str) -> None:
    """Write text lines, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def float_rows(*columns) -> list:
    """CSV lines of repr(float(v)) for the rows of columns (1-D arrays, or 2-D
    arrays of several columns) side by side, formatted a column at a time:
    faster than a join per row when rows are short."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    return list(map(",".join, zip(*(map(repr, column) for column in table.T.tolist()))))


def write_json(payload: Any, path: str) -> None:
    """Write payload as one line of canonical JSON."""
    write_lines([canonical_json(payload)], path)


def protocol_to_dict(protocol: PumpProtocol) -> dict:
    """Echo a protocol in file units (MHz, us) for embedding in results."""
    return {
        "kind": protocol.kind,
        "j_max_mhz": protocol.j_max / TWO_PI,
        "delta0_mhz": protocol.delta0 / TWO_PI,
        "delta_offset_mhz": protocol.delta_offset / TWO_PI,
        "period_us": protocol.period,
        "n_cycles": protocol.n_cycles,
    }


def chain_to_dict(spec: ChainSpec) -> dict:
    return {
        "n_sites": spec.n_sites,
        "cells": [list(c) for c in spec.cells],
        "delta_parity": spec.delta_parity,
    }
