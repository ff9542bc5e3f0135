"""YAML configuration: source chromaticities, constellation tables, CIL
matrices and ExperimentConfig values.  CLI flags override file values; an
absent value or section leaves the default of ExperimentConfig, of the
constellation builders or of the simulator."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .colorimetry import QLED, TLED, SourceSet
from .errors import InvalidConfig
from .harness import ExperimentConfig

# the sections that describe the link, and the names each may hold
_LINK_SECTIONS = {"sources": (TLED, QLED), "tables": (TLED,),
                  "matrices": (f"g_{TLED}", f"g_{QLED}")}
_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _check_keys(mapping: dict, accepted, where: str = "") -> None:
    for key in mapping:
        if key not in accepted:
            raise InvalidConfig(f"unknown key {where + str(key)!r}; "
                                f"accepted keys: {', '.join(accepted)}")


def load_config(stream) -> dict:
    """The top-level mapping of an open YAML stream, text or bytes (which PyYAML
    decodes as UTF-8, or UTF-16 by its BOM), with known keys only."""
    import yaml  # here, so that only a run that reads a --config file loads it
    try:
        data = yaml.safe_load(stream) or {}
    except yaml.YAMLError as exc:
        raise InvalidConfig(f"not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig("top level must be a mapping")
    _check_keys(data, sorted(_FIELDS | set(_LINK_SECTIONS)))
    for key, names in _LINK_SECTIONS.items():
        section = data.get(key) or {}
        if not isinstance(section, dict):
            raise InvalidConfig(f"{key}: must be a mapping")
        _check_keys(section, names, f"{key}.")
    return data


def merge(config: dict, overrides: dict) -> ExperimentConfig:
    """File values under the overrides that are set (not None); an override
    that names no ExperimentConfig field, such as an output path, is skipped."""
    values = {k: v for k, v in config.items() if k not in _LINK_SECTIONS}
    values.update({k: v for k, v in overrides.items()
                   if k in _FIELDS and v is not None})
    return ExperimentConfig(**values)


def sources_from_config(config: dict, scheme: str):
    """A SourceSet from the ``sources.<scheme>`` list, or None if absent."""
    section = (config.get("sources") or {}).get(scheme)
    if section is None:
        return None
    try:
        names = tuple(entry["name"] for entry in section)
        xy = np.array([entry["xy"] for entry in section], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"sources.{scheme}: need [{{name, xy: [x, y]}}, ...]") from exc
    return SourceSet(names, xy)


def tled_tables_from_config(config: dict):
    """The ``tables.tled`` override {order: [[[r, y, b], label], ...]}, or None."""
    section = (config.get("tables") or {}).get(TLED)
    if section is None:
        return None
    tables = {}
    try:
        for order, rows in section.items():
            tables[int(order)] = tuple(
                ((float(r), float(y), float(b)), int(label))
                for (r, y, b), label in rows)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidConfig("tables.tled: need {order: [[[r,y,b], label], ...]}") from exc
    return tables


def g_matrix_from_config(config: dict, scheme: str):
    """The ``matrices.g_<scheme>`` CIL matrix, or None if absent."""
    section = (config.get("matrices") or {}).get(f"g_{scheme}")
    if section is None:
        return None
    try:
        g = np.array(section, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"matrices.g_{scheme}: must be a square matrix") from exc
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidConfig(f"matrices.g_{scheme}: must be a square matrix")
    return g
