"""The declarative run API: serializable specs, a strategy registry and one
``repro.run()`` facade.

* :mod:`repro.api.spec`       -- the :class:`RunSpec` dataclass tree with a
  canonical JSON round-trip, schema validation and content fingerprinting,
* :mod:`repro.api.registry`   -- pluggable search strategies behind the
  :class:`SearchStrategy` protocol,
* :mod:`repro.api.strategies` -- the built-ins: ``fahana``, ``monas`` and
  the ``random`` no-learning baseline,
* :mod:`repro.api.run`        -- ``run(spec) -> RunReport``,
* :mod:`repro.api.cli`        -- the ``repro-search run spec.json`` command.

Everything here is re-exported at the package root: ``repro.run``,
``repro.RunSpec`` and friends are lazy aliases of these names.
"""

from repro.core.pipeline import FidelityConfig, PipelineSettings
from repro.api.spec import (
    ComputeSpec,
    DatasetSpec,
    DesignSpecConfig,
    RunSpec,
    SearchParams,
    SpecField,
    spec_schema,
)
from repro.api.registry import (
    SearchStrategy,
    StrategyInfo,
    available_strategies,
    get_strategy,
    register_strategy,
    strategy_descriptions,
    unregister_strategy,
)
from repro.api.run import RunReport, run
from repro.api import strategies as _builtin_strategies  # noqa: F401  (registers built-ins)
from repro.api.strategies import RandomSearch, RegularizedEvolutionSearch

__all__ = [
    "ComputeSpec",
    "DatasetSpec",
    "DesignSpecConfig",
    "FidelityConfig",
    "PipelineSettings",
    "RunSpec",
    "SearchParams",
    "SpecField",
    "spec_schema",
    "SearchStrategy",
    "StrategyInfo",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "strategy_descriptions",
    "unregister_strategy",
    "RunReport",
    "run",
    "RandomSearch",
    "RegularizedEvolutionSearch",
]
