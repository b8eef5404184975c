"""Scenario configuration: a single JSON document drives every subcommand.

CLI flags override individual fields; the resolved document (after
overrides) is canonicalized and hashed so every output file can state
exactly which inputs produced it.  File paths inside the config resolve
relative to the config file's directory.
"""
from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError
from .linkbudget import CosecantModel, TableModel
from .orbit import GroundPoint, load_tle_file
from .radiometer import BufferPolicy, PolicyKind, load_preset, spec_from_dict

_TOP_LEVEL_KEYS = {
    "satellites", "transmitters", "window", "policy", "ground_altitude_m",
    "linkbudget", "atmosphere", "itu", "experiment", "seed",
}


#: Marks a _typed key that has no default.
_REQUIRED = object()


def _typed(node, dotted: str, convert, default=_REQUIRED):
    """convert(node[key]) for the last key of the dotted path, or default
    when the key is absent.

    A missing required key, a node that is not an object and a value that
    convert rejects all raise ConfigError naming the dotted key.
    """
    where, _, key = dotted.rpartition(".")
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {node!r}")
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key: {dotted}")
        return default
    try:
        return convert(node[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{dotted}: {exc}") from exc


def _typed_section(node, where: str, fields) -> dict:
    """_typed of each (key, convert, default) field of a section node."""
    return {key: _typed(node, f"{where}.{key}", convert, default)
            for key, convert, default in fields}


#: (key, convert, default) of each typed value of a config section.
_LINKBUDGET_FIELDS = (
    ("p_on_dbm", float, 40.0), ("n_temp_k", float, _REQUIRED),
    ("bandwidth_hz", float, None), ("frequency_hz", float, None),
    ("g_tx_dbi", float, 15.0), ("g_rx_dbi", float, 30.0),
    ("polarization_db", float, -3.0))
_ITU_FIELDS = (
    ("model", str, "los"), ("gamma", float, -0.7),
    ("threshold_dbm_mhz", float, -200.0), ("quantile", float, 0.9999),
    ("area_km2", float, 2.0e6), ("max_pixels", int, 2000),
    ("two_ray_floor_db", float, -60.0))
_EXPERIMENT_FIELDS = (
    ("overlap_threshold", float, 0.5), ("max_pulse_s", float, None),
    ("damage_threshold_dbm", float, _REQUIRED), ("clearance_n", int, 3))


def _parse_utc(text: str, key: str) -> datetime:
    try:
        t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except (ValueError, AttributeError):
        raise ConfigError(f"{key}: not an ISO-8601 timestamp: {text!r}")
    if t.tzinfo is None:
        raise ConfigError(f"{key}: timestamp must carry a timezone")
    return t.astimezone(timezone.utc)


class ScenarioConfig:
    """Validated scenario document with typed accessors.

    Accessors raise ConfigError naming the missing or malformed key with
    its dotted path, which the CLI maps to exit code 2.
    """

    def __init__(self, data: dict, base_dir: Path = None):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.data = data
        self.base_dir = Path(base_dir) if base_dir else Path.cwd()

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(data, base_dir=path.parent)

    # -- overrides and identity ------------------------------------------

    def apply_overrides(self, **overrides) -> None:
        """Fold non-None CLI flag values into the document."""
        if overrides.get("seed") is not None:
            self.data["seed"] = overrides["seed"]
        if overrides.get("policy") is not None:
            self.data.setdefault("policy", {})
            self._policy_node()["kind"] = overrides["policy"]
        itu_keys = {"model": "model", "gamma": "gamma",
                    "threshold": "threshold_dbm_mhz",
                    "quantile": "quantile"}
        for flag, key in itu_keys.items():
            if overrides.get(flag) is not None:
                self.data.setdefault("itu", {})[key] = overrides[flag]

    def sha256(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def provenance(self, command: str) -> dict:
        from . import __version__
        return {
            "command": command,
            "config_sha256": self.sha256(),
            "seed": self.seed(),
            "tool_version": __version__,
        }

    # -- typed accessors ---------------------------------------------------

    def _require(self, *path):
        node = self.data
        walked = []
        for key in path:
            walked.append(str(key))
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(f"missing config key: {'.'.join(walked)}")
            node = node[key]
        return node

    def _resolve_path(self, text: str) -> Path:
        p = Path(text)
        return p if p.is_absolute() else self.base_dir / p

    def seed(self) -> int:
        return _typed(self.data, "seed", int, 0)

    def satellites(self):
        entries = self._require("satellites")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("satellites: need a non-empty list")
        sats = []
        for i, entry in enumerate(entries):
            key = f"satellites[{i}]"
            if "tle" not in entry:
                raise ConfigError(f"{key}.tle: missing TLE path")
            tle_path = self._resolve_path(entry["tle"])
            if not tle_path.exists():
                raise ConfigError(f"{key}.tle: no such file: {tle_path}")
            elements = load_tle_file(tle_path)
            preset = entry.get("preset")
            if preset is None:
                raise ConfigError(f"{key}.preset: missing radiometer preset")
            if isinstance(preset, dict):
                spec = spec_from_dict(preset)
            else:
                candidate = self._resolve_path(str(preset))
                spec = load_preset(str(candidate) if candidate.exists()
                                   else str(preset))
            sats.append((elements, spec))
        return sats

    def transmitters(self):
        """(id, GroundPoint, entry) per transmitter.  The optional
        antenna_height_m (>= 0) and eirp_density_dbm_mhz are checked
        numbers, though no subcommand reads them."""
        entries = self._require("transmitters")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("transmitters: need a non-empty list")
        out = []
        first_of = {}
        for i, entry in enumerate(entries):
            key = f"transmitters[{i}]"
            lat = _typed(entry, f"{key}.lat", float)
            lon = _typed(entry, f"{key}.lon", float)
            alt = _typed(entry, f"{key}.alt_m", float, 0.0)
            height = _typed(entry, f"{key}.antenna_height_m", float, 0.0)
            _typed(entry, f"{key}.eirp_density_dbm_mhz", float, 0.0)
            try:
                point = GroundPoint(lat, lon, alt)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if not height >= 0:
                raise ConfigError(f"{key}.antenna_height_m: must be >= 0, "
                                  f"got {height!r}")
            tx_id = str(entry.get("id", f"tx{i}"))
            if tx_id in first_of:
                raise ConfigError(
                    f"{key}.id: {tx_id!r} is already the id of "
                    f"transmitters[{first_of[tx_id]}]; ids must be unique")
            first_of[tx_id] = i
            out.append((tx_id, point, entry))
        return out

    def window(self):
        node = self._require("window")
        start = _parse_utc(node.get("start"), "window.start")
        end = _parse_utc(node.get("end"), "window.end")
        if end <= start:
            raise ConfigError("window: end must be after start")
        return start, end

    def _policy_node(self) -> dict:
        node = self.data.get("policy", {})
        if not isinstance(node, dict):
            raise ConfigError(f"policy: expected an object, got {node!r}")
        return node

    def policy(self) -> BufferPolicy:
        node = self._policy_node()
        kind_text = str(node.get("kind", "pixel")).lower()
        try:
            kind = PolicyKind(kind_text)
        except ValueError:
            raise ConfigError(
                f"policy.kind: expected 'pixel' or 'scanline', got "
                f"{kind_text!r}") from None
        try:
            return BufferPolicy(
                kind=kind,
                buffer_multiplier=_typed(node, "policy.buffer_multiplier",
                                         float, 2.0),
                temporal_pad=_typed(node, "policy.temporal_pad_s", float,
                                    0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"policy: {exc}") from exc

    def ground_altitude(self) -> float:
        return _typed(self.data, "ground_altitude_m", float, 0.0)

    def atmosphere(self, section: str = None):
        """Atmosphere model; a section ('itu', 'experiment', 'linkbudget')
        may override the global choice."""
        node = self.data.get("atmosphere")
        if section is not None:
            override = self.data.get(section, {}).get("atmosphere")
            if override is not None:
                node = override
        if node is None:
            return None
        model = node.get("model")
        if model == "cosecant":
            return CosecantModel(_typed(node, "atmosphere.a_zenith_db",
                                        float))
        if model == "table":
            path = node.get("path")
            if path is None:
                import importlib.resources
                resource = (importlib.resources.files("darkspace.presets")
                            / "atmosphere_default.csv")
                with importlib.resources.as_file(resource) as p:
                    return TableModel.from_csv(p)
            p = self._resolve_path(path)
            if not p.exists():
                raise ConfigError(f"atmosphere.path: no such file: {p}")
            return TableModel.from_csv(p)
        if model == "none":
            return None
        raise ConfigError(
            f"atmosphere.model: expected 'table', 'cosecant' or 'none', "
            f"got {model!r}")

    def linkbudget_params(self) -> dict:
        node = self.data.get("linkbudget", {})
        params = _typed_section(node, "linkbudget", _LINKBUDGET_FIELDS)
        p_h2o = node.get("p_h2o", {"noise_multiplier": 100.0})
        params["p_h2o_watts"] = _typed(p_h2o, "linkbudget.p_h2o.watts",
                                       float, None)
        params["p_h2o_noise_multiplier"] = _typed(
            p_h2o, "linkbudget.p_h2o.noise_multiplier", float, 100.0)
        return params

    def linkbudget_geometry(self, name: str) -> dict:
        geoms = self._require("linkbudget", "geometries")
        if name not in geoms:
            raise ConfigError(
                f"linkbudget.geometries.{name}: no such geometry; "
                f"available: {sorted(geoms)}")
        node = geoms[name]
        for side in ("satellite", "ground"):
            if side not in node:
                raise ConfigError(
                    f"linkbudget.geometries.{name}.{side}: missing")
        return node

    def itu_params(self) -> dict:
        node = self.data.get("itu", {})
        return {**_typed_section(node, "itu", _ITU_FIELDS),
                "deployment": node.get("deployment"),
                "atmosphere": node.get("atmosphere")}

    def experiment_params(self) -> dict:
        node = self.data.get("experiment", {})
        if "damage_threshold_dbm" not in node:
            raise ConfigError(
                "missing config key: experiment.damage_threshold_dbm "
                "(no physical default is claimed; consult the radiometer "
                "operator)")
        return _typed_section(node, "experiment", _EXPERIMENT_FIELDS)
