"""Scenario configuration: a single JSON document drives every subcommand.

CLI flags override individual fields; the resolved document (after
overrides) is canonicalized and hashed so every output file can state
exactly which inputs produced it.  File paths inside the config resolve
relative to the config file's directory.
"""
from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError
from .linkbudget import CosecantModel, TableModel
from .orbit import GroundPoint, load_tle_file
from .propagation import SCENARIOS, GeoBox
from .radiometer import BufferPolicy, PolicyKind, load_preset, spec_from_dict

_TOP_LEVEL_KEYS = {
    "satellites", "transmitters", "window", "policy", "ground_altitude_m",
    "linkbudget", "atmosphere", "itu", "experiment", "seed",
}


#: Marks a _typed key that has no default.
_REQUIRED = object()


def _object(node, where: str) -> dict:
    """node, which must be a JSON object; anything else is a ConfigError
    naming where it sits."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {node!r}")
    return node


def _typed(node, dotted: str, convert, default=_REQUIRED):
    """convert(node[key]) for the last key of the dotted path, or default
    when the key is absent.

    A missing required key, a node that is not an object and a value that
    convert rejects all raise ConfigError naming the dotted key.
    """
    where, _, key = dotted.rpartition(".")
    if key not in _object(node, where):
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


def _ranged(convert, ok, rule: str):
    """convert, then require ok(value); rule words the range."""
    def checked(value):
        if not ok(x := convert(value)):
            raise ValueError(f"must be {rule}, got {x!r}")
        return x
    return checked


_finite = _ranged(float, math.isfinite, "a finite number")


def _integer(value) -> int:
    """int(value), refusing a boolean and a fractional number instead of
    truncating them."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    """value, which must be a non-empty string of printable characters
    (no control character, such as a carriage return, that a CSV reader
    would take for a line end)."""
    if not isinstance(value, str) or not value or not value.isprintable():
        raise ValueError(
            f"expected a non-empty printable string, got {value!r}")
    return value


def _scenario(value) -> str:
    if value not in SCENARIOS:
        raise ValueError(f"expected one of {sorted(SCENARIOS)}, got {value!r}")
    return value


#: (key, convert, default) of each typed value of a config section.
_LINKBUDGET_FIELDS = (
    ("p_on_dbm", _finite, 40.0), ("n_temp_k", _finite, _REQUIRED),
    ("bandwidth_hz", _finite, None), ("frequency_hz", _finite, None),
    ("g_tx_dbi", _finite, 15.0), ("g_rx_dbi", _finite, 30.0),
    ("polarization_db", _finite, -3.0))
_POSITIVE = _ranged(_finite, lambda x: x > 0.0, "> 0")
_ITU_FIELDS = (
    ("model", str, "los"),
    ("gamma", _ranged(_finite, lambda g: -1 <= g <= 1, "in [-1, 1]"), -0.7),
    ("threshold_dbm_mhz", _finite, -200.0),
    ("quantile", _ranged(_finite, lambda q: 0 < q <= 1, "in (0, 1]"), 0.9999),
    ("area_km2", _POSITIVE, 2.0e6),
    ("max_pixels", _ranged(_integer, lambda n: n >= 1, ">= 1"), 2000),
    # The two-ray gain never exceeds 20 log10(1 + |G|) <= 6.02 dB, so a
    # floor above 0 dB would replace the model instead of clamping its nulls.
    ("two_ray_floor_db", _ranged(_finite, lambda f: f <= 0.0, "<= 0"), -60.0))
_EXPERIMENT_FIELDS = (
    ("overlap_threshold", _ranged(_finite, lambda f: 0 <= f <= 1,
                                  "in [0, 1]"), 0.5),
    ("max_pulse_s", _POSITIVE, None),
    ("damage_threshold_dbm", _finite, _REQUIRED),
    ("clearance_n", _ranged(_integer, lambda n: n >= 0, ">= 0"), 3))
#: itu.deployment: the pixel box (a generated deployment fills it too) and
#: the generator's inputs.
_DEPLOYMENT_FIELDS = (
    ("bbox", lambda node: GeoBox(*[_finite(x) for x in node]), _REQUIRED),
    ("scenario", _scenario, "rural"), ("center_frequency_hz", _finite, 24.0e9),
    ("emission_bandwidth_hz", _finite, 200.0e6))


#: A linkbudget geometry: the loss components it may state instead of the
#: geometry-derived ones, and the fields of its two points.  Every number
#: is finite and every latitude in [-90, 90] (GroundPoint's check).
_GEOMETRY_FIELDS = (("fspl_db", _finite, None),
                    ("atmosphere_db", _finite, None))
_LAT_LON = (("lat", lambda x: GroundPoint(float(x), 0.0).latitude, _REQUIRED),
            ("lon", _finite, _REQUIRED))
_GEOMETRY_POINTS = {"satellite": (*_LAT_LON, ("alt_km", _finite, _REQUIRED)),
                    "ground": (*_LAT_LON, ("alt_m", _finite, 0.0))}


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

    def _existing_path(self, text) -> Path:
        p = self._resolve_path(str(text))
        if not p.is_file():
            kind = "not a regular file" if p.exists() else "no such file"
            raise ValueError(f"{kind}: {p}")
        return p

    def seed(self) -> int:
        return _typed(self.data, "seed", _integer, 0)

    def satellites(self):
        entries = self._require("satellites")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("satellites: need a non-empty list")
        sats = []
        for i, entry in enumerate(entries):
            key = f"satellites[{i}]"
            if "tle" not in _object(entry, key):
                raise ConfigError(f"{key}.tle: missing TLE path")
            elements = load_tle_file(_typed(entry, f"{key}.tle",
                                            self._existing_path))
            preset = entry.get("preset")
            if preset is None:
                raise ConfigError(f"{key}.preset: missing radiometer preset")
            try:
                if isinstance(preset, dict):
                    spec = spec_from_dict(preset)
                else:
                    candidate = self._resolve_path(str(preset))
                    spec = load_preset(str(candidate) if candidate.exists()
                                       else str(preset))
            except ConfigError as exc:
                raise ConfigError(f"{key}.preset: {exc}") from exc
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
            lat = _typed(entry, f"{key}.lat", _finite)
            lon = _typed(entry, f"{key}.lon", _finite)
            alt = _typed(entry, f"{key}.alt_m", _finite, 0.0)
            height = _typed(entry, f"{key}.antenna_height_m", _finite, 0.0)
            _typed(entry, f"{key}.eirp_density_dbm_mhz", _finite, 0.0)
            try:
                point = GroundPoint(lat, lon, alt)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if not height >= 0:
                raise ConfigError(f"{key}.antenna_height_m: must be >= 0, "
                                  f"got {height!r}")
            tx_id = _typed(entry, f"{key}.id", _text, f"tx{i}")
            if tx_id in first_of:
                raise ConfigError(
                    f"{key}.id: {tx_id!r} is already the id of "
                    f"transmitters[{first_of[tx_id]}]; ids must be unique")
            first_of[tx_id] = i
            out.append((tx_id, point, entry))
        return out

    def window(self):
        node = _object(self._require("window"), "window")
        start = _parse_utc(node.get("start"), "window.start")
        end = _parse_utc(node.get("end"), "window.end")
        if end <= start:
            raise ConfigError("window: end must be after start")
        return start, end

    def _policy_node(self) -> dict:
        return _object(self.data.get("policy", {}), "policy")

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
                                         _finite, 2.0),
                temporal_pad=_typed(node, "policy.temporal_pad_s", _finite,
                                    0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"policy: {exc}") from exc

    def ground_altitude(self) -> float:
        return _typed(self.data, "ground_altitude_m", _finite, 0.0)

    def atmosphere(self, section: str = None):
        """Atmosphere model; a section ('itu', 'experiment', 'linkbudget')
        may override the global choice."""
        node, where = self.data.get("atmosphere"), "atmosphere"
        if section is not None:
            override = _object(self.data.get(section, {}),
                               section).get("atmosphere")
            if override is not None:
                node, where = override, f"{section}.atmosphere"
        if node is None:
            return None
        model = _object(node, where).get("model")
        if model == "cosecant":
            return CosecantModel(_typed(node, f"{where}.a_zenith_db",
                                        _finite))
        if model == "table":
            path = node.get("path")
            if path is None:
                import importlib.resources
                resource = (importlib.resources.files("darkspace.presets")
                            / "atmosphere_default.csv")
                with importlib.resources.as_file(resource) as p:
                    return TableModel.from_csv(p)
            return TableModel.from_csv(_typed(node, f"{where}.path",
                                              self._existing_path))
        if model == "none":
            return None
        raise ConfigError(
            f"{where}.model: expected 'table', 'cosecant' or 'none', "
            f"got {model!r}")

    def linkbudget_params(self) -> dict:
        node = self.data.get("linkbudget", {})
        params = _typed_section(node, "linkbudget", _LINKBUDGET_FIELDS)
        p_h2o = node.get("p_h2o", {"noise_multiplier": 100.0})
        params["p_h2o_watts"] = _typed(p_h2o, "linkbudget.p_h2o.watts",
                                       _finite, None)
        params["p_h2o_noise_multiplier"] = _typed(
            p_h2o, "linkbudget.p_h2o.noise_multiplier", _finite, 100.0)
        return params

    def linkbudget_geometry(self, name: str) -> dict:
        """The typed numbers of a geometry: its _GEOMETRY_FIELDS (None
        when absent) and a dict per point of _GEOMETRY_POINTS."""
        geoms = _object(self._require("linkbudget", "geometries"),
                        "linkbudget.geometries")
        where = f"linkbudget.geometries.{name}"
        if name not in geoms:
            raise ConfigError(f"{where}: no such geometry; available: "
                              f"{sorted(geoms)}")
        node = _object(geoms[name], where)
        geometry = _typed_section(node, where, _GEOMETRY_FIELDS)
        for side, fields in _GEOMETRY_POINTS.items():
            if side not in node:
                raise ConfigError(f"{where}.{side}: missing")
            geometry[side] = _typed_section(node[side], f"{where}.{side}",
                                            fields)
        return geometry

    def itu_params(self) -> dict:
        return _typed_section(self.data.get("itu", {}), "itu", _ITU_FIELDS)

    def itu_deployment(self) -> dict:
        """The _DEPLOYMENT_FIELDS of itu.deployment (bbox a GeoBox) and its
        path, the deployment file to read (None for a generated one)."""
        node = self._require("itu", "deployment")
        return {**_typed_section(node, "itu.deployment", _DEPLOYMENT_FIELDS),
                "path": _typed(node, "itu.deployment.path",
                               self._existing_path, None)}

    def experiment_params(self) -> dict:
        node = _object(self.data.get("experiment", {}), "experiment")
        if "damage_threshold_dbm" not in node:
            raise ConfigError(
                "missing config key: experiment.damage_threshold_dbm "
                "(no physical default is claimed; consult the radiometer "
                "operator)")
        return _typed_section(node, "experiment", _EXPERIMENT_FIELDS)
