"""Configuration persistence: CoReDAConfig <-> JSON.

Care-home deployments tune stall timeouts, escalation and reward
shaping per resident; those settings belong in version-controlled
files, not code.  The format is a plain nested JSON object mirroring
the dataclass structure, with unknown keys rejected loudly (a typo'd
setting silently ignored is a mis-deployment).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Dict, Type, Union

from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.errors import ConfigurationError

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]

_SECTIONS: Dict[str, Type] = {
    "sensing": SensingConfig,
    "radio": RadioConfig,
    "planning": PlanningConfig,
    "reminding": RemindingConfig,
}


def config_to_dict(config: CoReDAConfig) -> Dict[str, Any]:
    """A plain nested dict of ``config`` (JSON-ready)."""
    return asdict(config)


def config_from_dict(data: Dict[str, Any]) -> CoReDAConfig:
    """Rebuild a :class:`CoReDAConfig` from :func:`config_to_dict` output.

    Sections and keys may be omitted (defaults apply); unknown
    sections or keys raise :class:`ConfigurationError`.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"configuration must be an object, got {type(data).__name__}"
        )
    known_top = set(_SECTIONS) | {"seed"}
    unknown = set(data) - known_top
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    for section, cls in _SECTIONS.items():
        if section not in data:
            continue
        section_data = data[section]
        if not isinstance(section_data, dict):
            raise ConfigurationError(
                f"section {section!r} must be an object, got "
                f"{type(section_data).__name__}"
            )
        valid_keys = {f.name for f in fields(cls)}
        bad = set(section_data) - valid_keys
        if bad:
            raise ConfigurationError(
                f"unknown keys in section {section!r}: {sorted(bad)}"
            )
        kwargs[section] = cls(**section_data)
    return CoReDAConfig(**kwargs)


def save_config(config: CoReDAConfig, path: Union[str, Path]) -> None:
    """Write ``config`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: Union[str, Path]) -> CoReDAConfig:
    """Read a configuration previously written by :func:`save_config`.

    Hand-edited files get full validation: an unreadable file,
    malformed JSON and structural errors raise
    :class:`ConfigurationError`; value errors raise through the
    dataclasses' own ``__post_init__`` checks.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read configuration {str(path)!r}: {exc.strerror}"
        ) from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(
            f"configuration {str(path)!r} is not valid JSON: {exc}"
        ) from None
    return config_from_dict(data)
