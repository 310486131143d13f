"""One-line helpers for the paper's default design spec and dataset splits.

A search itself is one :class:`~repro.api.spec.RunSpec` executed by
``repro.run(spec)`` or ``repro-search run``.  The two helpers here build the
same design spec and dataset splits that a default spec's ``design`` and
``dataset`` sections describe, for callers that hand pre-built ones to
``repro.run``.
"""

from __future__ import annotations

from typing import Optional

from repro.data.dataset import DatasetSplits, stratified_split
from repro.data.dermatology import DermatologyConfig, DermatologyGenerator
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.hardware.device import RASPBERRY_PI_4, DeviceProfile


def default_design_spec(
    device: DeviceProfile = RASPBERRY_PI_4,
    timing_constraint_ms: float = 1500.0,
    accuracy_constraint: float = 0.0,
) -> DesignSpec:
    """The paper's default specification: Raspberry Pi with TC = 1500 ms."""
    return DesignSpec(
        hardware=HardwareSpec(device=device, timing_constraint_ms=timing_constraint_ms),
        software=SoftwareSpec(accuracy_constraint=accuracy_constraint),
    )


def prepare_dataset(
    config: Optional[DermatologyConfig] = None, seed: int = 0
) -> DatasetSplits:
    """Generate the synthetic dermatology dataset and split it 60/20/20."""
    dataset = DermatologyGenerator(config).generate()
    return stratified_split(dataset, rng=seed)
