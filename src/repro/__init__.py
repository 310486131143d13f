"""Reproduction of "The Larger The Fairer? Small Neural Networks Can Achieve
Fairness for Edge Devices" (DAC 2022).

The package provides:

* :mod:`repro.nn` -- a from-scratch numpy deep-learning framework,
* :mod:`repro.blocks` -- the MB / DB / RB / CB block library of the paper,
* :mod:`repro.zoo` -- reference architectures used as competitors,
* :mod:`repro.data` -- the synthetic dermatology dataset substrate,
* :mod:`repro.fairness` -- group accuracy and unfairness-score metrics,
* :mod:`repro.hardware` -- edge-device latency / storage models,
* :mod:`repro.core` -- the FaHaNa fairness- and hardware-aware NAS framework
  (the paper's primary contribution) and the MONAS baseline,
* :mod:`repro.engine` -- the execution layer: parallel episodes, evaluation
  cache, checkpoint/resume,
* :mod:`repro.api` -- the declarative run API (serializable
  :class:`~repro.api.spec.RunSpec`, strategy registry, ``repro.run()``),
* :mod:`repro.service` -- the run lifecycle service: ``RunClient`` /
  ``RunHandle``, typed event streams, and the ``repro-search serve`` daemon,
* :mod:`repro.experiments` -- one harness per table / figure of the paper.

The recommended entry point is the declarative facade::

    import repro

    report = repro.run(repro.RunSpec.from_file("spec.json"))
    print(report.summary())
"""

from repro.version import __version__

# Lazy aliases of the declarative run API (PEP 562): keeps ``import repro``
# light while making ``repro.run(spec)`` the one-line front door.
_API_EXPORTS = (
    "run",
    "RunSpec",
    "RunReport",
    "ComputeSpec",
    "DatasetSpec",
    "DesignSpecConfig",
    "SearchParams",
    "PipelineSettings",
    "FidelityConfig",
    "register_strategy",
    "available_strategies",
    "get_strategy",
)

# Lazy aliases of the run lifecycle service (same PEP 562 mechanism).
_SERVICE_EXPORTS = (
    "RunClient",
    "RunHandle",
)

__all__ = ["__version__", *_API_EXPORTS, *_SERVICE_EXPORTS]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
