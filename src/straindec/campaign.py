"""Campaign configuration, orchestration, reports, and fixture replay.

File formats are UTF-8 JSON with a mandatory ``schema_version`` field,
matrices as row-major arrays of arrays, and numbers at full shortest
round-trip precision.  Reports are deterministic byte-for-byte for a fixed
config (excluding the wall-clock duration field), whether samples run
serially or across a worker pool.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import operator
import os
import pickle
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import engine
from .dec import (
    DEC_TOL,
    CheckStack,
    DECVerdict,
    dec_verdict,
    require_corollary_flags,
    require_timelike,
)
from .errors import ConfigError
from .lagrangians import _json_float, canonical_parameters, resolve_lagrangian
from .multilinear import LorentzianMetric, RiemannianMetric
from .sampling import BOOST_CAP, MAX_BOOST_CAP
from .strain import PointGeometry
from .stress import check_degree

SCHEMA_VERSION = engine.SCHEMA_VERSION

_MODES = ("verify", "violation_search")
# Largest num_directions_per_sample.  A chunk draws and checks its
# directions one block of direction rows at a time (the engine's row block),
# so K does not set its memory; it sets the work per sample, and at this cap
# a 512-sample chunk runs 32 blocks.  The committed configs and scripts use
# at most 256.
MAX_DIRECTIONS_PER_SAMPLE = 1024
# Largest m_plus_1 and n.  m+1 = 8 is 7 spatial legs, the einsum order of
# multilinear.CONTRACT_MAX_DEPTH, and the invariant routes sum 2**(m+1) - 1
# principal minors per sample; one (512, 64, 64) stack is 16.8 MB.  The
# committed configs and scripts use 5 or less.
MAX_M_PLUS_1 = 8
MAX_N = 64
_CAPS = (
    ("m_plus_1", MAX_M_PLUS_1),
    ("n", MAX_N),
    ("num_directions_per_sample", MAX_DIRECTIONS_PER_SAMPLE),
)


def _json_int(value) -> int:
    """An integral JSON number as an int; a bool or a fractional number is an error."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    return operator.index(value)


def _json_optional_int(value) -> int | None:
    return None if value is None else _json_int(value)


def _json_finite(value) -> float:
    """A JSON number as a finite float; NaN and infinity are errors too."""
    value = _json_float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _json_floats(value):
    """Nested arrays of JSON numbers as nested lists of floats; bools and strings fail."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_floats(item) for item in value]
    return _json_float(value)


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return dict(value)


def _convert(value, convert, name: str):
    """``convert(value)``; a ConfigError naming the field if it cannot."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# The config layout: each CampaignConfig field's config-file key (dotted
# inside a section) and the conversion of its JSON value.
_FROM_JSON = {
    "m_plus_1": ("m_plus_1", _json_int),
    "n": ("n", _json_int),
    "lagrangian_name": ("lagrangian.name", str),
    "lagrangian_parameters": ("lagrangian.parameters", _json_object),
    "num_samples": ("num_samples", _json_int),
    "num_directions_per_sample": ("num_directions_per_sample", _json_int),
    "seed": ("seed", _json_int),
    "algebraic_tol": ("tolerances.algebraic", _json_float),
    "dec_tol": ("tolerances.dec", _json_float),
    "oracle_tol": ("tolerances.oracle", _json_float),
    "entry_range": ("entry_range", _json_float),
    "boost_cap": ("boost_cap", _json_float),
    "rank_override": ("rank_override", _json_optional_int),
    "mode": ("mode", str),
    "max_fixtures": ("max_fixtures", _json_int),
}
# The keys each section of a config file may hold ("" is the top level).
_CONFIG_KEYS = {"": {"schema_version"}}
for _path, _ in _FROM_JSON.values():
    _section, _, _key = _path.rpartition(".")
    _CONFIG_KEYS[""].add(_section or _key)
    _CONFIG_KEYS.setdefault(_section, set()).add(_key)
# The fields that hold integers (rank_override may also be None).
_INT_FIELDS = tuple(
    name for name, (_, convert) in _FROM_JSON.items()
    if convert in (_json_int, _json_optional_int)
)


_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE_TEXTS = ("nan", "inf", "-inf")


class _NonFinite(Exception):
    """A NaN or infinity met by the encoder; ``dump_json`` names its place."""


def _scalar_text(value):
    """The JSON text of an exact float, str, int, bool or None; None for anything else."""
    kind = type(value)
    if kind is not float:
        if kind is str:
            return _encode_str(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        return None
    text = float.__repr__(value)
    if text in _NONFINITE_TEXTS:
        raise _NonFinite(value)
    return text


def _pieces(obj, level: int, memo: dict) -> list:
    """The text of a list or a dict with str keys at indent ``level``, as pieces.

    A child container's text is ``memo[id, level]`` if it was formatted at
    its level before; otherwise this function formats it, joins its pieces
    once and stores the text there.  Every child is reachable from the
    object ``dump_json`` formats, which must not change during the call, so
    each stays alive and no other object takes its id.  A level of nesting
    costs one stack frame, as in ``json``, so a cycle nests until
    ``RecursionError``.
    """
    kind = type(obj)
    keyed = kind is dict
    if keyed:
        entries, brackets = sorted(obj.items()), "{}"
    elif kind is list:
        entries, brackets = obj, "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not entries:
        return [brackets]
    deeper = level + 1
    separator = ",\n" + "  " * deeper
    head, pieces = brackets[0] + separator[1:], []
    for item in entries:
        if keyed:
            key, item = item
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head += _encode_str(key) + ": "
        text = memo.get((id(item), deeper)) or _scalar_text(item)
        if text is None:
            text = "".join(_pieces(item, deeper, memo))
            memo[id(item), deeper] = text
            pieces += (head, text)
        else:
            pieces.append(head + text)
        head = separator
    pieces.append("\n" + "  " * level + brackets[1])
    return pieces


def _nonfinite_path(obj, path: str = "") -> str | None:
    """The JSON path of the first NaN or infinity in output order, if any."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        for key, item in sorted(obj.items()):
            found = _nonfinite_path(item, f"{path}.{key}" if path else key)
            if found is not None:
                return found
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            found = _nonfinite_path(item, f"{path}[{i}]")
            if found is not None:
                return found
    return None


def dump_json(obj) -> str:
    """Canonical serialization of plain JSON: sorted keys, two-space indent, no NaN.

    Plain JSON is dicts with str keys, lists, and exact float, str, int,
    bool and None; every value a config, report or fixture holds is one of
    these when it is created.  For such an ``obj`` the text is exactly
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``.
    Anything else, a subclass, a tuple, a numpy scalar or a non-str key
    included, is a ``TypeError`` that names its type.  A NaN or infinity is
    a ``ValueError`` that names the JSON path of the first one in output
    order, such as ``fixtures[3].recorded.energy``, and nesting past the
    recursion limit, a cycle included, is a ``RecursionError``.  ``_pieces``
    formats every list and dict, and joins the text of each one below
    ``obj`` itself once per call and indent level, however often the same
    object appears there, so values shared in memory (such as the fixtures'
    geometry lists and twin ``recorded`` dicts) cost one formatting; ``obj``
    must not change during the call.  The top level's pieces and the final
    newline are joined once.
    """
    try:
        text = _scalar_text(obj)
        pieces = [text] if text is not None else _pieces(obj, 0, {})
    except _NonFinite as exc:
        where = _nonfinite_path(obj) or "the top level"
        raise ValueError(
            f"Out of range float values are not JSON compliant: {exc.args[0]!r} at {where}"
        ) from None
    pieces.append("\n")
    return "".join(pieces)


def write_json(path, obj) -> None:
    try:
        Path(path).write_text(dump_json(obj), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required field {key!r}")
    return mapping[key]


def _lagrangian_and_tolerances(data: dict, context: str) -> tuple[dict, dict]:
    """The ``lagrangian`` object, which must have a name, and the ``tolerances`` one."""
    lagr = _convert(
        _require(data, "lagrangian", context), _json_object, f"{context} field 'lagrangian'"
    )
    _require(lagr, "name", f"{context} field 'lagrangian'")
    tol = _convert(data.get("tolerances", {}), _json_object, f"{context} field 'tolerances'")
    return lagr, tol


def _frozen(value):
    """A hashable form of a JSON value: equal values give equal forms, and equal hashes."""
    if isinstance(value, dict):
        return frozenset((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


class _CopyOnRead:
    """A dataclass field that hands out a deep copy of its value on each read,
    so editing what a read returns leaves the object that holds it as it was.

    Its default is None.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        return None if obj is None else copy.deepcopy(obj.__dict__[self.slot])

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


def _check_schema_version(data, context: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    version = _require(data, "schema_version", context)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{context} has schema_version {version!r}, expected {SCHEMA_VERSION}"
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign parameters; the canonical form of a config file.

    A config is a value: its fields cannot be set, and ``lagrangian_parameters``
    reads as a new dict each time, so editing one changes no config.
    """

    m_plus_1: int
    n: int
    lagrangian_name: str
    lagrangian_parameters: dict | None = _CopyOnRead()
    num_samples: int = 100
    num_directions_per_sample: int = 8
    seed: int = 0
    algebraic_tol: float = DEC_TOL
    dec_tol: float = DEC_TOL
    oracle_tol: float = 1e-6
    entry_range: float = 1.0
    boost_cap: float = BOOST_CAP
    rank_override: int | None = None
    mode: str = "verify"
    max_fixtures: int = 100

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if name == "rank_override" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m_plus_1 < 1 or self.n < 1:
            raise ConfigError("dimensions m_plus_1 and n must be at least 1")
        if self.num_samples < 1:
            raise ConfigError("num_samples must be at least 1")
        if self.num_directions_per_sample < 1:
            raise ConfigError("num_directions_per_sample must be at least 1")
        for name, cap in _CAPS:
            if getattr(self, name) > cap:
                raise ConfigError(
                    f"{name} {getattr(self, name)} exceeds {cap}, the cap that bounds "
                    "a chunk's memory"
                )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        for name, (_, convert) in _FROM_JSON.items():
            if convert in (_json_float, str):  # stored as the exact JSON type
                object.__setattr__(self, name, _convert(getattr(self, name), convert, name))
        for name in ("algebraic_tol", "dec_tol", "oracle_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(
                    f"tolerance {name} must be positive and finite, got {value!r}"
                )
        # dphi entries and rapidities are drawn uniformly on spans this wide.
        for name, span in (
            ("entry_range", 2.0 * self.entry_range),
            ("boost_cap", self.boost_cap),
        ):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(span)):
                raise ConfigError(
                    f"{name} must be nonnegative with a finite sampling span, got {value!r}"
                )
        if self.boost_cap > MAX_BOOST_CAP:
            raise ConfigError(
                f"boost_cap {self.boost_cap!r} exceeds {MAX_BOOST_CAP:.2f}, beyond which "
                "normalizing a boosted direction loses more than half of its digits"
            )
        if self.rank_override is not None and not (
            0 <= self.rank_override <= min(self.m_plus_1, self.n)
        ):
            raise ConfigError(
                f"rank_override must lie in [0, {min(self.m_plus_1, self.n)}]"
            )
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_fixtures < 0:
            raise ConfigError("max_fixtures must be nonnegative")
        # Fail early if the catalog cannot rebuild this Lagrangian, or if no
        # map of the drawn rank has invariants in its domain.
        try:
            params = canonical_parameters(self.lagrangian_name, self.lagrangian_parameters)
            lagr = resolve_lagrangian(self.lagrangian_name, params, self.m_plus_1)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"lagrangian {self.lagrangian_name}: {exc}") from exc
        object.__setattr__(self, "lagrangian_parameters", params)
        name, rank = "rank_override", self.rank_override
        if rank is None:
            name, rank = "n", min(self.m_plus_1, self.n)
        if rank < lagr.min_rank:
            raise ConfigError(
                f"{name} = {getattr(self, name)} caps the rank of dphi at {rank}, but "
                f"lagrangian {lagr.name} needs rank {lagr.min_rank} or more: below "
                "it every invariant vector lies outside its domain"
            )

    def __hash__(self) -> int:
        # Agrees with the generated ``==``, which compares the fields.
        return hash(tuple(_frozen(getattr(self, f.name)) for f in fields(self)))

    def to_dict(self) -> dict:
        """The config file's JSON object, laid out by ``_FROM_JSON``.

        Every container in it is new, so editing it leaves the config as it was.
        """
        out = {"schema_version": SCHEMA_VERSION}
        for name, (path, _) in _FROM_JSON.items():
            section, _, key = path.rpartition(".")
            target = out.setdefault(section, {}) if section else out
            target[key] = copy.deepcopy(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """Convert a config's JSON values; absent optional keys keep the defaults."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS[""]
        if unknown:
            raise ConfigError(f"config has unknown fields: {sorted(unknown)}")
        lagr, tol = _lagrangian_and_tolerances(data, "config")
        for key in ("m_plus_1", "n", "num_samples"):
            _require(data, key, "config")
        sections = {"": data, "lagrangian": lagr, "tolerances": tol}
        for section in ("lagrangian", "tolerances"):
            unknown = set(sections[section]) - _CONFIG_KEYS[section]
            if unknown:
                raise ConfigError(
                    f"config field {section!r} has unknown fields: {sorted(unknown)}"
                )
        values = {}
        for name, (path, convert) in _FROM_JSON.items():
            section, _, key = path.rpartition(".")
            if key in sections[section]:
                values[name] = _convert(
                    sections[section][key], convert, f"config field {path!r}"
                )
        return cls(**values)


def load_config(path) -> CampaignConfig:
    data = read_json(path)
    _check_schema_version(data, f"config {path}")
    return CampaignConfig.from_dict(data)


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated campaign outcome: counts, margins, sampling stats, fixtures.

    The fixtures of one sample share their geometry lists in memory, and the
    ``dec_energy`` and ``dec_flux`` fixtures of one direction share their
    ``direction`` list and ``recorded`` dict (see ``engine.run_chunk``), so
    treat a report's dicts as read-only, or ``copy.deepcopy`` one before
    editing it: flipping a status in one ``recorded`` dict flips its twin's.
    """

    config: CampaignConfig
    counts: dict
    margins: dict
    sampling: dict
    fixtures: list
    duration_seconds: float

    @property
    def failures_total(self) -> int:
        return sum(c["fail"] for c in self.counts.values())

    @property
    def warnings_total(self) -> int:
        return sum(c["warning"] for c in self.counts.values())

    def to_dict(self) -> dict:
        draws = self.sampling.get("domain_draws", 0)
        accepted = self.sampling.get("domain_accepted", 0)
        sampling = dict(self.sampling)
        sampling["acceptance_rate"] = (accepted / draws) if draws else 0.0
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "counts": self.counts,
            "margins": self.margins,
            "sampling": sampling,
            "fixtures": self.fixtures,
            "failures_total": self.failures_total,
            "warnings_total": self.warnings_total,
            "duration_seconds": self.duration_seconds,
        }


def report_bytes(report_dict: dict) -> bytes:
    """Canonical bytes of a report, with the duration field removed."""
    data = dict(report_dict)
    data.pop("duration_seconds", None)
    return dump_json(data).encode("utf-8")


def _serial_chunks(cfg: dict, bounds: list, room: int):
    """Each chunk's result in order, its fixture cap the ``room`` the chunks before it left."""
    for a, b in bounds:
        result = engine.run_chunk(dict(cfg, max_fixtures=room), a, b)
        room -= len(result["fixtures"])
        yield result


def run_campaign(
    config: CampaignConfig, jobs: int = 1, out_path=None
) -> CampaignReport:
    """Run every per-sample check of a campaign and aggregate the results.

    ``jobs`` > 1 fans the chunks out to min(jobs, chunks, CPUs) processes
    (``os.cpu_count()``), and runs serially when that is 1; chunking and
    fold order never depend on the worker count, so results are identical to a
    serial run.  The serial loop caps each chunk's ``max_fixtures`` at the
    room the chunks before it left, so it builds only fixtures the report
    keeps; the pool gives every chunk the full cap.  The bytes agree because a
    chunk tallies every sample whatever its cap and records fixtures in a
    fixed order, and the fold keeps the first ``max_fixtures`` in chunk
    order.  The fold takes each result as it arrives and drops it once its
    tallies and kept fixtures are in, so the parent holds one chunk's result
    at a time beside those the pool finished early.  When ``out_path`` is
    given the report JSON is written there; a path whose parent is not a
    directory, or which is one, fails before the first chunk runs.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")
    if out_path is not None:
        out = Path(out_path)
        if not out.parent.is_dir():
            raise ConfigError(f"cannot write {out_path}: {out.parent} is not a directory")
        if out.is_dir():
            raise ConfigError(f"cannot write {out_path}: it is a directory")
    start_time = time.perf_counter()
    cfg = config.to_dict()
    total = config.num_samples
    bounds = [
        (a, min(a + engine.CHUNK_SIZE, total))
        for a in range(0, total, engine.CHUNK_SIZE)
    ]
    workers = min(jobs, len(bounds), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(engine.run_chunk, [cfg] * len(bounds), *zip(*bounds))
            folded = engine.fold_chunk_results(results, config.max_fixtures)
    else:
        results = _serial_chunks(cfg, bounds, config.max_fixtures)
        folded = engine.fold_chunk_results(results, config.max_fixtures)
    report = CampaignReport(
        config=config,
        counts=folded["counts"],
        margins=folded["margins"],
        sampling=folded["sampling"],
        fixtures=folded["fixtures"],
        duration_seconds=time.perf_counter() - start_time,
    )
    if out_path is not None:
        write_json(out_path, report.to_dict())
    return report


def load_geometry(source) -> PointGeometry:
    """Build a PointGeometry from a JSON file path or an already-parsed dict."""
    data = source if isinstance(source, dict) else read_json(source)
    context = "geometry" if isinstance(source, dict) else f"geometry {source}"
    metric, target, dphi = (
        _convert(_require(data, key, context), _json_floats, f"{context} field {key!r}")
        for key in ("metric", "target_metric", "dphi")
    )
    try:
        metric, target = LorentzianMetric(metric), RiemannianMetric(target)
        return PointGeometry(metric=metric, target_metric=target, dphi=dphi)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of recomputing a fixture: fresh values plus recorded comparison.

    ``matches`` is True when every recorded status field (ok booleans, causal
    classes, consistency) is reproduced; recomputed floats are reported but
    compared only through those statuses.
    """

    kind: str
    verdict: DECVerdict | None
    matches: bool
    recorded: dict
    recomputed: dict


_DEC_KINDS = ("dec", "dec_energy", "dec_flux")
_DEGREE_KINDS = ("rank_condition", "wedge_identity", "cauchy_schwarz")
# The last keyed replay's work: (key, geometry, Lagrangian, CheckStack, the
# (shape, bytes) of the last validated direction, the stack along it).  Each
# keyed replay replaces it with one assignment.
_last_replay = None


def _replay_settings(data: dict, context: str) -> tuple:
    """A fixture's Lagrangian name and parameters and its (dec, algebraic) tolerances.

    Validated: a missing tolerance is ``DEC_TOL``, a present one must be a
    finite number, and a malformed field is a ``ConfigError`` that names it.
    Zero and negative tolerances replay: ``engine.run_chunk`` records them
    from a raw config dict, and they force checks to fail.
    """
    lagr_info, tol = _lagrangian_and_tolerances(data, context)
    field = f"{context} field"
    params = _convert(
        lagr_info.get("parameters", {}), _json_object, f"{field} 'lagrangian.parameters'"
    )
    tols = tuple(
        _convert(tol.get(key, DEC_TOL), _json_finite, f"{field} 'tolerances.{key}'")
        for key in ("dec", "algebraic")
    )
    return str(lagr_info["name"]), params, tols


def _replay_key(data: dict, name: str, params: dict, tols: tuple):
    """What a fixture's geometry, Lagrangian and CheckStack depend on, as bytes.

    The pickle of the fixture's metric, target metric and dphi and of its
    ``_replay_settings`` (Lagrangian name and parameters, dec and algebraic
    tolerances).  Pickle records each value's type, a numpy value's dtype and
    shape, and every float's bits, so a hit is never false.  Equal values of
    other types or zero signs (``1`` and ``1.0``, ``-0.0`` and ``0.0``, a
    tuple and a list), or dicts in another key order, miss, which only costs
    time.  None when a field is missing or pickle cannot write a value.
    """
    try:
        geometry = (data["metric"], data["target_metric"], data["dphi"])
        return pickle.dumps((*geometry, name, params, tols), 5)
    except (KeyError, TypeError, AttributeError, RecursionError, pickle.PicklingError):
        return None


def replay_fixture(source) -> ReplayResult:
    """Recompute a persisted fixture and compare against its recorded verdict.

    Accepts a path or an in-memory fixture dict.  The fixture's geometry runs
    through the engine's kernels on a batch of one, and only those its kind
    needs; the recomputed block comes from the engine's record function for
    that kind.  Replay is deterministic: the same fixture always reproduces
    bitwise-identical recomputed values; the comparison with the recorded
    block is at status level since the chunk and the single sample may round
    differently.

    Consecutive fixtures of one sample share their direction-independent
    work.  When a fixture's ``_replay_key`` (its geometry and its
    ``_replay_settings``, validated on every call) equals the previous keyed
    call's, replay reuses that call's validated geometry, resolved Lagrangian and
    ``CheckStack``, all pure functions of the key; the stack keeps every
    field computed so far, g^{-1} included.  The checks along the fixture's
    direction run on ``stack.along(direction)``, which shares the stack's
    g^{-1}, T_j, terms and T and is reused too when the direction, once
    ``require_timelike`` has validated it on this call, has the shape and
    bytes of the last one: the ``dec_flux`` twin of a ``dec_energy`` fixture
    reuses its witness.  The schema version, the kind, the direction, the
    degree and the corollary flags are checked on every call.  Results are
    bit-identical to a replay with nothing reused, and nothing returned
    shares an array with the reused work.
    """
    global _last_replay
    data = source if isinstance(source, dict) else read_json(source)
    context = "fixture" if isinstance(source, dict) else f"fixture {source}"
    _check_schema_version(data, context)
    kind = _require(data, "kind", context)
    if not isinstance(kind, str) or kind not in engine.FIXTURES:
        raise ConfigError(f"{context} has unknown kind {kind!r}")
    field = f"{context} field"
    name, params, tols = _replay_settings(data, context)
    memo_key = _replay_key(data, name, params, tols)
    last = _last_replay
    if memo_key is not None and last is not None and last[0] == memo_key:
        _, geom, lagr, stack, view_key, view = last
    else:
        geom = load_geometry(
            {key: _require(data, key, context) for key in ("metric", "target_metric", "dphi")}
        )
        lagr = _convert(
            params, lambda p: resolve_lagrangian(name, p, geom.dim), f"{field} 'lagrangian'"
        )
        stack = CheckStack.at(geom, lagr, *tols)
        view_key = view = None
    index, checks = 0, stack
    if kind in _DEC_KINDS or kind == "convexity_lemma":
        direction = _convert(
            _require(data, "direction", context),
            lambda x: require_timelike(
                geom.metric, _json_floats(x), kind == "convexity_lemma"
            ),
            f"{field} 'direction'",
        )
        direction_key = (direction.shape, direction.tobytes())
        if direction_key != view_key:
            view_key, view = direction_key, stack.along(direction[None, None])
        checks = view
    elif kind in _DEGREE_KINDS:
        degree = _convert(_require(data, "degree", context), _json_int, f"{field} 'degree'")
        _convert(degree, lambda j: check_degree(j, geom.dim), f"{field} 'degree'")
        index = degree - 1
    elif kind == "pointwise_corollary":
        _convert(lagr, require_corollary_flags, f"{field} 'lagrangian'")
    verdict = dec_verdict(checks) if kind in _DEC_KINDS else None
    recomputed = engine.FIXTURES[kind](checks, 0, index)["recorded"]
    recorded = _convert(data.get("recorded", {}), _json_object, f"{field} 'recorded'")
    expected = recorded
    if not any(isinstance(value, bool) for value in recomputed.values()):
        # A record without a status of its own shows the check's verdict; the
        # engine writes such a record only when the check fails.
        recomputed["holds"] = bool(getattr(checks, kind).reshape(1, -1)[0, index])
        expected = {"holds": False, **recorded}
    matches = all(
        expected[key] == recomputed[key]
        for key in expected
        if key in recomputed and isinstance(recomputed[key], (bool, str, int))
    )
    if memo_key is not None:
        _last_replay = (memo_key, geom, lagr, stack, view_key, view)
    return ReplayResult(kind, verdict, matches, recorded, recomputed)
