"""Technology config files: one `name = value` per line.

A bare key applies to both polarities; `nmos.<key>` / `pmos.<key>` target
one.  `temperature` is global.  Values take the same magnitude suffixes as
netlist numbers.  `lambda` is accepted for the channel-length-modulation
field (stored as `lam`).  Blank lines and `#` comments are skipped; unknown
keys are rejected with their line number.

parse_config is the one parser: keys apply over the default card, and a
physical input also clears the card value derived from it, so that the
derivation runs on the text's inputs.  load_config parses a file's text.
"""

from __future__ import annotations

from dataclasses import fields

from .devices import DeviceParams, TechnologyParams, derive_tech_params
from .numbers import parse_spice_number


class ConfigError(Exception):
    pass


_DEVICE_KEYS = {f.name for f in fields(DeviceParams)}
_ALIASES = {"lambda": "lam"}
# Each derived card value and the physical inputs its derivation reads.
_DERIVED_FROM = {
    "gamma": {"t_ox", "eps_ox", "c_ox", "eps_si", "n_a"},
    "vth0": {"t_ox", "eps_ox", "c_ox", "phi_ms", "q_b0", "q_ox", "q_i"},
}


def parse_config(text: str) -> TechnologyParams:
    """The card a config text gives, over the default card.  Setting a
    physical input clears, for that polarity, each value derived from it
    unless the text sets it too; a derivation then short of an input raises
    ConfigError."""
    tech = TechnologyParams.default()
    assigned: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `name = value`, got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip().lower()
        try:
            value = parse_spice_number(value_text.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value_text.strip()!r}") from None

        if key == "temperature":
            tech.temperature = value
            continue
        polarity = None
        if "." in key:
            polarity, _, key = key.partition(".")
            if polarity not in ("nmos", "pmos"):
                raise ConfigError(f"line {lineno}: unknown device prefix {polarity!r}")
        key = _ALIASES.get(key, key)
        if key not in _DEVICE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        for target in ("nmos", "pmos") if polarity is None else (polarity,):
            setattr(tech.device(target), key, value)
            assigned.add((target, key))
    for polarity in ("nmos", "pmos"):
        keys = {key for target, key in assigned if target == polarity}
        for derived, inputs in _DERIVED_FROM.items():
            if keys & inputs and derived not in keys:
                setattr(tech.device(polarity), derived, None)
    try:
        derive_tech_params(tech)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tech


def load_config(path) -> TechnologyParams:
    """The card the config file at path gives (see parse_config)."""
    with open(path) as fh:
        return parse_config(fh.read())


def tech_header_lines(tech: TechnologyParams) -> list[str]:
    """Deterministic one-line-per-polarity parameter echo for reports."""

    def fmt(dev: DeviceParams) -> str:
        parts = []
        for f in fields(DeviceParams):
            v = getattr(dev, f.name)
            if v is not None:
                parts.append(f"{f.name}={v:.6g}")
        return " ".join(parts)

    return [
        f"temperature = {tech.temperature:.6g}",
        f"nmos: {fmt(tech.nmos)}",
        f"pmos: {fmt(tech.pmos)}",
    ]
