"""The declarative run specification: one serializable description of a run.

A :class:`RunSpec` captures everything needed to reproduce a search --
strategy name, dataset recipe, design constraints, search hyper-parameters
and engine execution knobs -- as a tree of plain dataclasses with a canonical
JSON round-trip.  A service, a CLI invocation, a checkpoint directory and a
remote worker can all share the same spec file; :func:`RunSpec.cache_key`
fingerprints the computation (everything except the engine section, which by
design does not change results) so a spec doubles as a cache key.

Sections:

* ``strategy``  -- name of a registered search strategy (``fahana``,
  ``monas``, ``random``, or anything registered via
  :func:`repro.api.registry.register_strategy`),
* ``dataset``   -- :class:`DatasetSpec`: the synthetic dermatology recipe
  plus the split seed, built into splits by :meth:`DatasetSpec.build`,
* ``design``    -- :class:`DesignSpecConfig`: device + timing/accuracy
  constraints, resolved to a :class:`~repro.hardware.constraints.DesignSpec`,
* ``search``    -- :class:`SearchParams`: the strategy hyper-parameters,
  plus the engine-level schedule knobs (reward-plateau early stopping,
  adaptive wave sizing),
* ``evaluation`` -- :class:`~repro.core.pipeline.PipelineSettings`, reused
  directly: optional parameter/storage gates and the multi-fidelity ladder
  (proxy stages with successive-halving promotion).  Unset (None) means the
  single full-fidelity stage that reproduces the seed evaluator bit for bit,
* ``compute``   -- :class:`ComputeSpec`: numeric precision of the child
  training hot path (``float32`` for ~2x throughput, ``float64`` -- the
  default -- for bit-for-bit seed parity) and the inference batch size,
* ``engine``    -- :class:`~repro.engine.engine.EngineConfig`, reused
  directly.

``evaluation``, ``compute`` and ``engine`` are the optional sections: absent
sections stay None so "not specified" round-trips as unset.  Unlike the
engine section, the evaluation section *changes what a run computes*, so it
is part of :meth:`RunSpec.cache_key` whenever present; the compute section
participates only when non-default (float64 rewards match the default stack
to the last bit, and re-keying every existing spec for a spelled-out default
would orphan every existing cache entry).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple, Type, get_args, get_origin, get_type_hints

from repro.core.pipeline import FidelityConfig, PipelineSettings
from repro.data.dataset import DatasetSplits, stratified_split
from repro.data.dermatology import DermatologyConfig, DermatologyGenerator
from repro.engine.engine import EngineConfig
from repro.nn.dtype import DTYPE_NAMES
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.hardware.device import get_device, list_devices
from repro.utils.fingerprint import content_fingerprint
from repro.utils.serialization import load_json, save_json

SPEC_VERSION = 1


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for the synthetic dermatology dataset and its 60/20/20 split.

    Defaults mirror :class:`~repro.data.dermatology.DermatologyConfig` plus
    ``split_seed=0``, so a default ``DatasetSpec`` builds the default
    generator's dataset and split.
    """

    image_size: int = 32
    num_classes: int = 5
    samples_per_class: int = 60
    minority_fraction: float = 0.2
    dark_contrast: float = 0.55
    seed: int = 2022
    split_seed: int = 0

    def __post_init__(self) -> None:
        self.dermatology_config()  # validates the generator parameters early

    def dermatology_config(self) -> DermatologyConfig:
        """The generator configuration this spec describes."""
        return DermatologyConfig(
            image_size=self.image_size,
            num_classes=self.num_classes,
            samples_per_class_majority=self.samples_per_class,
            minority_fraction=self.minority_fraction,
            dark_contrast=self.dark_contrast,
            seed=self.seed,
        )

    def build(self) -> DatasetSplits:
        """Generate the dataset and split it 60/20/20."""
        dataset = DermatologyGenerator(self.dermatology_config()).generate()
        return stratified_split(dataset, rng=self.split_seed)


@dataclass(frozen=True)
class DesignSpecConfig:
    """Serializable form of the hardware/software design specification.

    ``device`` is a built-in profile name (see
    :func:`repro.hardware.device.list_devices`).  Defaults are the paper's
    default specification: a Raspberry Pi 4 with TC = 1500 ms.
    """

    device: str = "raspberry-pi-4"
    timing_constraint_ms: float = 1500.0
    accuracy_constraint: float = 0.0
    max_storage_mb: Optional[float] = None

    def __post_init__(self) -> None:
        try:
            get_device(self.device)
        except KeyError as error:
            raise ValueError(str(error.args[0] if error.args else error)) from None
        self.build()  # HardwareSpec/SoftwareSpec validate the constraints

    def build(self) -> DesignSpec:
        """Resolve the named device and materialise the design spec."""
        return DesignSpec(
            hardware=HardwareSpec(
                device=get_device(self.device),
                timing_constraint_ms=self.timing_constraint_ms,
                max_storage_mb=self.max_storage_mb,
            ),
            software=SoftwareSpec(accuracy_constraint=self.accuracy_constraint),
        )


@dataclass(frozen=True)
class SearchParams:
    """Strategy hyper-parameters.

    ``child_batch_size`` is the child-training batch size; 32 matches the
    :class:`~repro.nn.trainer.TrainingConfig` default.  Strategies are free
    to ignore knobs that do not apply to them (MONAS ignores
    ``gamma``/``pretrain_epochs``/``max_searchable``, random search ignores
    ``policy_batch`` for learning but keeps it as wave size).
    """

    episodes: int = 20
    backbone: str = "MobileNetV2"
    gamma: float = 0.5
    width_multiplier: float = 0.35
    child_epochs: int = 5
    child_batch_size: int = 32
    pretrain_epochs: int = 5
    max_searchable: Optional[int] = None
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0
    policy_batch: int = 1
    # Engine-level schedule knobs.  They change which episodes run (and, with
    # a staged evaluation section, which children get promoted), so they live
    # in the search section and are part of the spec's cache key.
    plateau_patience: Optional[int] = None
    plateau_delta: float = 0.0
    adaptive_wave: bool = False

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.child_epochs < 0 or self.pretrain_epochs < 0:
            raise ValueError("child_epochs and pretrain_epochs must be non-negative")
        if self.child_batch_size <= 0:
            raise ValueError("child_batch_size must be positive")
        if self.policy_batch <= 0:
            raise ValueError("policy_batch must be positive")
        if self.max_searchable is not None and self.max_searchable <= 0:
            raise ValueError("max_searchable must be positive when given")
        if self.plateau_patience is not None and self.plateau_patience <= 0:
            raise ValueError("plateau_patience must be positive when given")
        if self.plateau_delta < 0:
            raise ValueError("plateau_delta must be non-negative")


@dataclass(frozen=True)
class ComputeSpec:
    """Numeric-precision policy of the run's child-training hot path.

    ``precision="float32"`` roughly doubles pure-numpy training throughput
    (see ``benchmarks/bench_nn.py``); ``"float64"`` -- the default -- keeps
    the seed's bit-for-bit arithmetic.  Only the child evaluation changes
    precision: controller sampling and the policy gradient stay float64, so
    the sequence of sampled architectures is precision-independent and only
    rewards drift (within tolerance -- see the parity tests).

    The section is optional and participates in :meth:`RunSpec.cache_key`
    only when it differs from the defaults, so every existing spec (and every
    existing cache entry) keeps its historical fingerprint.
    """

    precision: str = "float64"
    # Prediction batch size during child evaluation; None keeps the
    # historical defaults (64 for fairness scoring, the training batch size
    # for direct Trainer.predict calls).  Inference keeps no backward
    # caches, so larger batches cut per-batch Python overhead without extra
    # peak memory.
    inference_batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.precision not in DTYPE_NAMES:
            raise ValueError(
                f"precision must be one of {DTYPE_NAMES}, got {self.precision!r}"
            )
        if self.inference_batch_size is not None and self.inference_batch_size <= 0:
            raise ValueError("inference_batch_size must be positive when given")

    @property
    def is_default(self) -> bool:
        """True when this section spells out the implicit defaults."""
        return self == ComputeSpec()


_SECTIONS: Tuple[Tuple[str, type], ...] = ()  # filled in after RunSpec below


@dataclass(frozen=True)
class RunSpec:
    """One declarative, serializable description of a search run.

    ``engine`` is Optional so "not specified" round-trips as unset: None
    runs on a default :class:`~repro.engine.engine.EngineConfig`, and only
    an unset section may be overridden by ``repro.run(spec, engine=...)``.
    ``evaluation`` is Optional too: None is the seed evaluator's single
    full-fidelity pipeline, and a spec that never mentions the section
    keeps its historical cache key.
    """

    strategy: str = "fahana"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    design: DesignSpecConfig = field(default_factory=DesignSpecConfig)
    search: SearchParams = field(default_factory=SearchParams)
    evaluation: Optional[PipelineSettings] = None
    compute: Optional[ComputeSpec] = None
    engine: Optional[EngineConfig] = None

    # -- validation ---------------------------------------------------------------
    def validate(self) -> "RunSpec":
        """Check the spec against the strategy registry; returns self."""
        from repro.api.registry import get_strategy

        get_strategy(self.strategy)  # raises with the registered names listed
        return self

    # -- canonical dict / JSON round-trip ------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Flatten into plain JSON-encodable data (the canonical schema).

        An unset engine section (None) is omitted, so it round-trips as
        "unset" rather than silently becoming an explicit default section.
        """
        payload = {
            "version": SPEC_VERSION,
            "strategy": self.strategy,
            "dataset": _section_to_dict(self.dataset),
            "design": _section_to_dict(self.design),
            "search": _section_to_dict(self.search),
        }
        if self.evaluation is not None:
            payload["evaluation"] = _section_to_dict(self.evaluation)
        if self.compute is not None:
            payload["compute"] = _section_to_dict(self.compute)
        if self.engine is not None:
            payload["engine"] = _section_to_dict(self.engine)
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "RunSpec":
        """Rebuild a spec, rejecting unknown keys/strategies with clear errors."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"a run spec must be a JSON object, got {type(payload).__name__}"
            )
        allowed = ["version", "strategy"] + [name for name, _ in _SECTIONS]
        _reject_unknown(payload, allowed, "run spec")
        version = payload.get("version", SPEC_VERSION)
        if int(version) != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} (this build reads "
                f"version {SPEC_VERSION})"
            )
        strategy = payload.get("strategy", "fahana")
        if not isinstance(strategy, str) or not strategy:
            raise ValueError("'strategy' must be a non-empty string")
        kwargs: Dict[str, Any] = {"strategy": strategy}
        for name, section_cls in _SECTIONS:
            if name in _OPTIONAL_SECTIONS and name not in payload:
                continue  # absent optional sections stay None ("unset")
            section_payload = payload.get(name, {})
            if section_cls is EngineConfig:
                section_payload = _without_retired_engine_keys(section_payload)
            kwargs[name] = _section_from_dict(section_cls, section_payload, name)
        spec = cls(**kwargs)
        return spec.validate()

    def to_json(self) -> str:
        """Pretty, deterministic JSON text of this spec."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def to_file(self, path: str) -> str:
        """Write the spec as JSON; returns the path."""
        save_json(path, self.to_dict())
        return path

    @classmethod
    def from_file(cls, path: str) -> "RunSpec":
        """Load a spec from a JSON file written by :meth:`to_file` (or by hand)."""
        try:
            payload = load_json(path)
        except json.JSONDecodeError as error:
            raise ValueError(f"spec file {path!r} is not valid JSON: {error}") from None
        try:
            return cls.from_dict(payload)
        except ValueError as error:
            raise ValueError(f"invalid spec file {path!r}: {error}") from None

    # -- fingerprinting -------------------------------------------------------------
    def cache_key(self) -> str:
        """Content fingerprint of the *computation* this spec describes.

        The engine section is excluded: backend, worker count, caching and
        checkpointing change how a run executes, never what it computes, so
        two specs that differ only in execution knobs share a fingerprint.
        A compute section that merely spells out the defaults (float64) is
        likewise dropped, so adding the section introduced no key churn:
        only a genuinely non-default precision re-keys a spec.
        """
        payload = self.to_dict()
        payload.pop("engine", None)
        if self.compute is not None and self.compute.is_default:
            payload.pop("compute", None)
        return content_fingerprint(payload)

    # -- ergonomics -----------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "RunSpec":
        """A copy with dotted-path overrides, e.g. ``{"search.episodes": 5}``.

        Accepts ``strategy=...`` and ``section__field=...`` keyword form as
        well as a ``values={dotted.path: value}`` mapping.
        """
        values: Dict[str, Any] = dict(overrides.pop("values", {}) or {})
        for key, value in overrides.items():
            values[key.replace("__", ".")] = value
        spec = self
        sections = dict(_SECTIONS)
        for path, value in values.items():
            if path == "strategy":
                spec = replace(spec, strategy=str(value))
                continue
            section, _, name = path.partition(".")
            if section not in sections or not name:
                raise ValueError(
                    f"unknown override path {path!r}; expected 'strategy' or "
                    f"'<section>.<field>' with section one of "
                    f"{sorted(sections)}"
                )
            current = getattr(spec, section)
            if current is None:  # overriding an unset engine section starts from defaults
                current = sections[section]()
            if name not in {f.name for f in fields(current)}:
                raise ValueError(
                    f"unknown field {name!r} in {section!r} section; allowed: "
                    f"{sorted(f.name for f in fields(current))}"
                )
            spec = replace(spec, **{section: replace(current, **{name: value})})
        return spec


_SECTIONS = (
    ("dataset", DatasetSpec),
    ("design", DesignSpecConfig),
    ("search", SearchParams),
    ("evaluation", PipelineSettings),
    ("compute", ComputeSpec),
    ("engine", EngineConfig),
)

# Sections whose absence means "unset" (None) rather than "all defaults".
_OPTIONAL_SECTIONS = ("evaluation", "compute", "engine")

# Non-scalar spec fields: serialized as a JSON list of objects, parsed with
# the element class below, and excluded from the generated CLI flags.
_NESTED_LIST_FIELDS: Dict[Tuple[type, str], type] = {
    (PipelineSettings, "fidelities"): FidelityConfig,
}


# -- schema introspection (drives the CLI flag generation) --------------------------
@dataclass(frozen=True)
class SpecField:
    """One leaf of the spec tree, as exposed to schema consumers (the CLI)."""

    section: str
    name: str
    path: str  # dotted, e.g. "search.episodes"
    flag: str  # CLI flag, e.g. "--search-episodes"
    value_type: type  # int / float / str / bool
    optional: bool  # True when None is an accepted value
    default: Any


def spec_schema() -> List[SpecField]:
    """Flat schema of every serializable spec field (excluding ``strategy``)."""
    schema: List[SpecField] = []
    for section, section_cls in _SECTIONS:
        hints = get_type_hints(section_cls)
        defaults = section_cls()
        for spec_field in fields(section_cls):
            if (section_cls, spec_field.name) in _NESTED_LIST_FIELDS:
                continue  # lists of objects have no single-flag CLI form
            value_type, optional = _unwrap_hint(hints[spec_field.name])
            schema.append(
                SpecField(
                    section=section,
                    name=spec_field.name,
                    path=f"{section}.{spec_field.name}",
                    flag=f"--{section}-{spec_field.name}".replace("_", "-"),
                    value_type=value_type,
                    optional=optional,
                    default=getattr(defaults, spec_field.name),
                )
            )
    return schema


# -- helpers ------------------------------------------------------------------------
def _section_to_dict(section: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if (type(section), f.name) in _NESTED_LIST_FIELDS:
            value = [_section_to_dict(entry) for entry in value]
        payload[f.name] = value
    return payload


# Engine fields older specs carry.  Every spec archived while the engine had
# a JSON disk cache holds ``"cache_dir": null``, and one archived while the
# process pool could re-pickle its evaluator per task holds
# ``"share_evaluator"``, whose value never changed a result.
_RETIRED_ENGINE_KEYS = ("cache_dir", "share_evaluator")


def _without_retired_engine_keys(engine: Any) -> Any:
    """The engine section minus retired keys, so archived runs stay resumable.

    A set ``cache_dir`` is rejected, naming its replacement.
    """
    if not isinstance(engine, dict):
        return engine
    if engine.get("cache_dir") is not None:
        raise ValueError(
            "engine.cache_dir is no longer supported; set engine.store_root "
            "(a local artifact store) to keep evaluations across restarts"
        )
    return {
        key: value for key, value in engine.items() if key not in _RETIRED_ENGINE_KEYS
    }


def _reject_unknown(payload: Dict[str, Any], allowed: List[str], where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} in {where}; "
            f"allowed keys: {', '.join(sorted(allowed))}"
        )


def _section_from_dict(section_cls: Type[Any], payload: Any, section: str) -> Any:
    if not isinstance(payload, dict):
        raise ValueError(
            f"the {section!r} section must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    hints = get_type_hints(section_cls)
    allowed = [f.name for f in fields(section_cls)]
    _reject_unknown(payload, allowed, f"the {section!r} section")
    kwargs = {}
    for name in allowed:
        if name not in payload:
            continue
        element_cls = _NESTED_LIST_FIELDS.get((section_cls, name))
        if element_cls is not None:
            kwargs[name] = _nested_list_from(
                payload[name], element_cls, f"{section}.{name}"
            )
        else:
            kwargs[name] = _coerce(payload[name], hints[name], f"{section}.{name}")
    try:
        return section_cls(**kwargs)
    except ValueError as error:
        raise ValueError(f"invalid {section!r} section: {error}") from None


def _nested_list_from(payload: Any, element_cls: Type[Any], path: str) -> Tuple[Any, ...]:
    """Parse a JSON list of objects into a tuple of ``element_cls`` instances."""
    if not isinstance(payload, list):
        raise ValueError(
            f"{path} must be a JSON array of objects, got {type(payload).__name__}"
        )
    return tuple(
        _section_from_dict(element_cls, entry, f"{path}[{index}]")
        for index, entry in enumerate(payload)
    )


def _unwrap_hint(hint: Any) -> Tuple[type, bool]:
    """Reduce a type hint to ``(base_type, accepts_none)``."""
    if get_origin(hint) is not None:  # Optional[X] / Union[X, None]
        args = [a for a in get_args(hint) if a is not type(None)]
        if len(args) == 1:
            base, _ = _unwrap_hint(args[0])
            return base, True
        return str, True  # permissive fallback for exotic unions
    if hint in (int, float, str, bool):
        return hint, False
    return str, False


def _coerce(value: Any, hint: Any, path: str) -> Any:
    """Coerce a JSON value to the field's declared type, with a located error."""
    base, optional = _unwrap_hint(hint)
    if value is None:
        if optional:
            return None
        raise ValueError(f"{path} must not be null")
    try:
        if base is bool:
            if not isinstance(value, bool):
                raise TypeError(f"expected true/false, got {value!r}")
            return value
        if base is int:
            if isinstance(value, bool) or (
                isinstance(value, float) and not value.is_integer()
            ):
                raise TypeError(f"expected an integer, got {value!r}")
            return int(value)
        if base is float:
            if isinstance(value, bool):
                raise TypeError(f"expected a number, got {value!r}")
            return float(value)
        if base is str:
            if not isinstance(value, str):
                raise TypeError(f"expected a string, got {value!r}")
            return value
    except (TypeError, ValueError) as error:
        raise ValueError(f"{path}: {error}") from None
    return value
