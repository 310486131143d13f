"""The rule pack: this codebase's invariants, one ~standalone module each.

==========  ========  ==============================================================
Rule id     Severity  Invariant
==========  ========  ==============================================================
``DET001``  error     all randomness flows through explicit seeded Generators;
                      no wall-clock reads in deterministic code
``KEY001``  error     every field of a ``cache_key()``-bearing dataclass joins
                      the fingerprint or is explicitly exempted
``SER001``  error     ``to_dict``/``from_dict`` come in pairs; event payloads
                      are plain JSON
``OBS001``  error     ``repro.obs`` observes but never steers (no RNG, no
                      fingerprint imports, no obs on fingerprint paths)
``THR001``  warning   module-global state mutated on worker-reachable paths
                      holds a lock (heuristic)
``DTY001``  warning   ``repro.nn`` derives dtypes from the policy module, not
                      bare literals
==========  ========  ==============================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.rules.concurrency import ConcurrencyRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dtype_policy import DtypePolicyRule
from repro.analysis.rules.key_hygiene import CacheKeyHygieneRule
from repro.analysis.rules.obs_layering import ObsLayeringRule
from repro.analysis.rules.serde_contract import SerdeContractRule
from repro.analysis.visitor import Rule

RULE_CLASSES = (
    DeterminismRule,
    CacheKeyHygieneRule,
    SerdeContractRule,
    ObsLayeringRule,
    ConcurrencyRule,
    DtypePolicyRule,
)


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of the full rule pack (or the ``only`` subset of ids)."""
    rules: List[Rule] = [cls() for cls in RULE_CLASSES]
    if only is None:
        return rules
    index = {rule.rule_id: rule for rule in rules}
    unknown = sorted(set(only) - set(index))
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(index))}"
        )
    return [index[rule_id] for rule_id in only]


def rule_catalog() -> Dict[str, str]:
    """``{rule_id: description}`` of every registered rule."""
    return {cls.rule_id: cls.description for cls in RULE_CLASSES}


__all__ = [
    "RULE_CLASSES",
    "default_rules",
    "rule_catalog",
    "DeterminismRule",
    "CacheKeyHygieneRule",
    "SerdeContractRule",
    "ObsLayeringRule",
    "ConcurrencyRule",
    "DtypePolicyRule",
]
