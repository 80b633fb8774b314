"""Run configuration: flat `key = value` sections, parsed with the stdlib parser.

The syntax is plain INI (section headers in brackets, one key per line),
chosen for zero-dependency parsing and diffability.  Unknown sections or keys
are rejected, every component invariant is re-validated at parse time, and
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .model import (
    InitialProfile,
    LogGaussian,
    ModelParams,
    _Frozen,
    format_profile,
    parse_profile,
    support_y,
)


def parse_floats(text: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list (config lists and CLI flags)."""
    return tuple(float(s.strip()) for s in text.split(",") if s.strip())


def _auto(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


def _show_auto(value: float | None) -> str:
    return "auto" if value is None else repr(value)


def _join(values) -> str | None:
    return ", ".join(repr(v) for v in values) or None


# Every config key, once: (section, key, parse its text, format its value).
# dumps writes sections and keys in this order and leaves out a key whose
# format gives None (an empty snapshot or ray list).  The model keys other
# than the profile are the fields of ModelParams.
FIELDS = (
    ("model", "alpha", float, repr),
    ("model", "b", float, repr),
    ("model", "g", float, repr),
    ("model", "profile", parse_profile, format_profile),
    ("grid", "m", int, str),
    ("grid", "y_min", _auto, _show_auto),
    ("grid", "y_max", _auto, _show_auto),
    ("time", "t_end", float, repr),
    ("time", "dt", float, repr),
    ("time", "snapshots", parse_floats, _join),
    ("time", "record_every", int, str),
    ("probes", "rays", parse_floats, _join),
    ("output", "directory", str.strip, str),
    ("analyze", "t_min", float, repr),
)
_SECTIONS = {section: {k for s, k, *_ in FIELDS if s == section} for section, *_ in FIELDS}
_PARAMS = ModelParams._fields


def _value(cfg: "RunConfig", key: str):
    return getattr(cfg.params if key in _PARAMS else cfg, key)


class RunConfig(_Frozen):
    """Everything a run needs: profile, coefficients, grid, horizon, probes, outputs."""

    _fields = ("profile", "params", "m", "y_min", "y_max", "t_end", "dt", "snapshots",
               "record_every", "rays", "directory", "t_min")

    def __init__(self,
                 profile: InitialProfile = LogGaussian(mu=0.0, sigma=0.1, mass=1.0),
                 params: ModelParams = ModelParams(g=0.0, b=1.0, alpha=2.0),
                 m: int = 64,
                 y_min: float | None = None,         # None: sized automatically from t_end and rays
                 y_max: float | None = None,         # None: just past the initial support
                 t_end: float = 60.0,
                 dt: float = 0.01,
                 snapshots: tuple[float, ...] = (),  # empty: a default ladder up to t_end
                 record_every: int = 1,
                 rays: tuple[float, ...] = (),       # empty: (-2, -1, -1/2) * log alpha
                 directory: str = "out",
                 t_min: float = 20.0,                # start of analyze's probe window
                 ) -> None:
        self._set(profile, params, m, y_min, y_max, t_end, dt, snapshots, record_every, rays,
                  directory, t_min)
        # every number must be finite
        for _, key, *_ in FIELDS:
            value = _value(self, key)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise DomainError(f"{key} must be finite, got {value}")
        if self.m < 1:
            raise DomainError(f"grid cells per log(alpha) must be >= 1, got {self.m}")
        if self.t_end < 0.0:
            raise DomainError(f"horizon must be nonnegative, got {self.t_end}")
        if not self.dt > 0.0:
            raise DomainError(f"step size must be positive, got {self.dt}")
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")

    # --- resolved values ------------------------------------------------

    def resolved_rays(self) -> tuple[float, ...]:
        if self.rays:
            return tuple(dict.fromkeys(self.rays))     # the first of exact repeats
        la = self.params.log_alpha
        return (-2.0 * la, -la, -0.5 * la)

    def resolved_y_max(self) -> float:
        if self.y_max is not None:
            return self.y_max
        return support_y(self.profile)[1] + 0.5

    def resolved_y_min(self) -> float:
        if self.y_min is not None:
            return self.y_min
        la = self.params.log_alpha
        t = self.t_end
        # envelope spreads like sqrt(t) in log-size; keep the left tail far
        # below the leak monitor, and cover every probe ray
        auto = -la * (t + 10.0 * math.sqrt(max(t, 1.0)) + 15.0)
        ray_need = min(self.resolved_rays()) * t - 3.0 * la - 1.0
        support_need = support_y(self.profile)[0] - 2.0
        return min(auto, ray_need, support_need)

    def resolved_snapshots(self) -> tuple[float, ...]:
        if self.snapshots:
            return tuple(sorted(set(self.snapshots)))
        ladder = [t for t in (1.0, 5.0, 10.0, 20.0, 40.0, 60.0) if t < self.t_end]
        return tuple(ladder + [self.t_end])


def loads(text: str) -> RunConfig:
    """Parse the config syntax into a RunConfig, rejecting unknown keys."""
    # Imported here: only --config reads INI text, and the import costs every
    # other command about 1.4 ms of start-up.
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"malformed config: {exc}") from exc

    texts = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise DomainError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise DomainError(f"unknown key {key!r} in section [{section}]")
            texts[key] = cp.get(section, key)
    return with_texts(RunConfig(), texts)


def with_texts(cfg: RunConfig, texts: dict[str, str]) -> RunConfig:
    """cfg with the given keys set from their config-file text (CLI flags use it too).

    A text its key cannot parse raises a DomainError naming the section and key.
    """
    values = {}
    for section, key, parse, _ in FIELDS:
        if key in texts:
            try:
                values[key] = parse(texts[key])
            except ValueError as exc:
                raise DomainError(f"[{section}] {key}: {exc}") from exc
    params = {key: values.pop(key) for key in _PARAMS if key in values}
    if params:
        values["params"] = cfg.params._replace(**params)
    return cfg._replace(**values)


def load(path: str) -> RunConfig:
    """The config file at path; one that cannot be read as UTF-8 text is a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc})"
        raise DomainError(f"cannot read config file {path!r}: {reason}") from exc
    return loads(text)


def dumps(cfg: RunConfig) -> str:
    """Serialize canonically; floats use repr so the round trip is exact."""
    sections: dict[str, str] = {}
    for section, key, _, fmt in FIELDS:
        text = fmt(_value(cfg, key))
        line = "" if text is None else f"{key} = {text}\n"
        sections[section] = sections.get(section, f"[{section}]\n") + line
    return "\n".join(sections.values())
