"""In-process model server: zoo entries behind per-model micro-batchers.

One :class:`ModelServer` fronts a zoo root.  The first predict for a model
loads its promoted weights, casts the model to the serving dtype (float32 by
default -- inference needs no float64 bit-parity and float32 roughly doubles
numpy kernel throughput) and starts a :class:`~repro.serving.batcher
.MicroBatcher` whose flush thread is the *only* thread that touches the
model, so the non-thread-safe numpy modules are safe under concurrent
callers.  Predictions are class indices from ``Trainer.predict`` -- the same
code path as offline evaluation, so served results bitwise-match a direct
``Trainer.predict`` on the served model.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.trainer import Trainer, TrainingConfig
from repro.serving.batcher import MicroBatcher
from repro.serving.registry import DEFAULT_ZOO_ROOT, ZooRegistry


class _ServedModel:
    """One loaded model: weights, trainer and its micro-batcher."""

    def __init__(
        self,
        name: str,
        version: str,
        model,
        input_shape,
        max_batch_size: int,
        max_delay_ms: float,
        max_queue: int,
    ):
        self.name = name
        self.version = version
        self.model = model
        trainer = Trainer(
            TrainingConfig(
                batch_size=max_batch_size, inference_batch_size=max_batch_size
            )
        )
        self.trainer = trainer
        self.batcher = MicroBatcher(
            predict_fn=lambda batch: trainer.predict(
                model, batch, batch_size=max(batch.shape[0], 1)
            ),
            max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms,
            max_queue=max_queue,
            input_shape=input_shape,
            model_name=name,
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self.batcher.predict(inputs)


class ModelServer:
    """Serves promoted zoo models through per-model micro-batchers."""

    def __init__(
        self,
        zoo_root: str = DEFAULT_ZOO_ROOT,
        max_batch_size: int = 32,
        max_delay_ms: float = 5.0,
        max_queue: int = 256,
        dtype: Optional[str] = "float32",
    ):
        self.zoo = ZooRegistry(zoo_root)
        self.max_batch_size = max_batch_size
        self.max_delay_ms = max_delay_ms
        self.max_queue = max_queue
        self.dtype = dtype
        self._lock = threading.Lock()
        self._served: Dict[str, _ServedModel] = {}

    # -- model lifecycle -----------------------------------------------------------
    def _get_served(self, name: str) -> _ServedModel:
        with self._lock:
            served = self._served.get(name)
            if served is not None:
                return served
            model, descriptor, entry = self.zoo.load_model(name)
            if self.dtype is not None:
                model.astype(self.dtype)
            model.eval()
            recorded = entry.manifest.get("input_shape")
            input_shape = (
                tuple(int(dim) for dim in recorded)
                if recorded
                else (
                    descriptor.stem.ch_in,
                    descriptor.input_resolution,
                    descriptor.input_resolution,
                )
            )
            served = _ServedModel(
                name=name,
                version=entry.version,
                model=model,
                input_shape=input_shape,
                max_batch_size=self.max_batch_size,
                max_delay_ms=self.max_delay_ms,
                max_queue=self.max_queue,
            )
            self._served[name] = served
            return served

    def invalidate(self, name: str) -> None:
        """Drop a loaded model (after a re-promotion changed ``latest``)."""
        with self._lock:
            served = self._served.pop(name, None)
        if served is not None:
            served.batcher.close()

    # -- serving -------------------------------------------------------------------
    def predict(self, name: str, inputs: np.ndarray) -> np.ndarray:
        """Blocking batched predict: class indices for ``inputs`` rows."""
        return self._get_served(name).predict(inputs)

    def models(self) -> List[Dict[str, Any]]:
        """Every zoo entry's manifest, with live serving stats when loaded."""
        with self._lock:
            loaded = dict(self._served)
        rows: List[Dict[str, Any]] = []
        for entry in self.zoo.list_entries():
            row: Dict[str, Any] = dict(entry.manifest)
            served = loaded.get(entry.name)
            if served is not None and served.version == entry.version:
                row["serving"] = served.batcher.stats()
            rows.append(row)
        return rows

    def close(self) -> None:
        """Stop every model's batcher (draining queued requests first)."""
        with self._lock:
            served = list(self._served.values())
            self._served.clear()
        for model in served:
            model.batcher.close()
