"""Mini-batch training loop used by the NAS evaluator and the zoo experiments."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.dtype import DTYPE_NAMES, resolve_dtype
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.module import Module, inference_mode
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import StepDecay
from repro.obs import metrics as obs_metrics
from repro.utils.rng import SeedLike, new_rng

# Trainer instruments, cached per registry (a test swapping the global
# registry gets fresh ones).  The trainer writes to the process-global
# registry directly: on the process worker backend that is the *worker's*
# registry, so epoch timings from process pools stay per-worker-process --
# an accepted limitation, the engine-side pool metrics cover that case.
_instrument_cache: Tuple[Optional[obs_metrics.MetricsRegistry], tuple] = (None, ())


def _trainer_instruments() -> tuple:
    global _instrument_cache
    registry = obs_metrics.get_registry()
    cached_registry, instruments = _instrument_cache
    if cached_registry is not registry:
        instruments = (
            registry.counter(
                "repro_trainer_epochs_total", "Training epochs completed"
            ),
            registry.histogram(
                "repro_trainer_epoch_seconds", "Wall time per training epoch"
            ),
            registry.gauge(
                "repro_trainer_samples_per_second",
                "Training throughput of the most recent epoch",
            ),
        )
        _instrument_cache = (registry, instruments)  # repro-lint: disable=THR001 -- benign last-write-wins cache: concurrent writers build identical tuples from the same locked registry
    return instruments


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run.

    The paper's protocol is SGD with learning rate 0.1, a 0.9 decay every 20
    steps, batch size 32 and 500 epochs.  At numpy scale that epoch budget is
    unaffordable, so the default optimiser is Adam (set ``optimizer="sgd"``
    and ``learning_rate=0.1`` to follow the paper's protocol exactly) and the
    number of epochs is chosen by the scale presets.
    """

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 3e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_step_size: int = 20
    lr_gamma: float = 0.9
    max_grad_norm: float = 5.0
    shuffle: bool = True
    seed: Optional[int] = 0
    # Compute precision of the training run: None keeps the model/data dtype
    # as built (the seed's float64 behaviour); "float32" casts the model and
    # the batches once at fit time for ~2x kernel throughput.  RNG streams
    # (shuffling, dropout) are identical across precisions.
    precision: Optional[str] = None
    # Batch size used by predict/evaluate; None falls back to ``batch_size``.
    # Inference keeps no backward caches, so far larger batches are safe.
    inference_batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.lr_step_size <= 0:
            raise ValueError("lr_step_size must be positive")
        if self.lr_gamma <= 0:
            raise ValueError("lr_gamma must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.precision is not None and self.precision not in DTYPE_NAMES:
            raise ValueError(
                f"precision must be one of {DTYPE_NAMES} (or None), "
                f"got {self.precision!r}"
            )
        if self.inference_batch_size is not None and self.inference_batch_size <= 0:
            raise ValueError("inference_batch_size must be positive when given")


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


class Trainer:
    """Trains a model on (images, labels) arrays and evaluates it in batches."""

    def __init__(self, config: Optional[TrainingConfig] = None):
        self.config = config or TrainingConfig()

    def fit(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train ``model`` in place and return the per-epoch history."""
        config = self.config
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels must have the same first dimension")
        if images.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")

        if config.precision is not None:
            # Cast once up front; the whole forward/backward/optimizer chain
            # then stays in this dtype (losses and optimizer state follow
            # their inputs).
            dtype = resolve_dtype(config.precision)
            model.astype(dtype)
            images = images.astype(dtype, copy=False)

        rng = new_rng(config.seed)
        loss_fn = CrossEntropyLoss()
        if config.optimizer == "sgd":
            optimizer = SGD(
                model.parameters(),
                lr=config.learning_rate,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                max_grad_norm=config.max_grad_norm,
            )
        else:
            optimizer = Adam(
                model.parameters(),
                lr=config.learning_rate,
                weight_decay=config.weight_decay,
                max_grad_norm=config.max_grad_norm,
            )
        scheduler = StepDecay(optimizer, config.lr_step_size, config.lr_gamma)
        history = TrainingHistory()

        num_samples = images.shape[0]
        instrumented = obs_metrics.enabled()
        if instrumented:
            epochs_total, epoch_seconds, samples_per_second = _trainer_instruments()
        model.train()
        for _ in range(config.epochs):
            epoch_start = time.perf_counter() if instrumented else 0.0
            order = (
                rng.permutation(num_samples)
                if config.shuffle
                else np.arange(num_samples)
            )
            epoch_loss = 0.0
            epoch_correct = 0.0
            for start in range(0, num_samples, config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                batch_x = images[batch_idx]
                batch_y = labels[batch_idx]
                batch_w = (
                    sample_weights[batch_idx] if sample_weights is not None else None
                )

                optimizer.zero_grad()
                logits = model.forward(batch_x)
                loss = loss_fn.forward(logits, batch_y, batch_w)
                model.backward(loss_fn.backward())
                optimizer.step()

                epoch_loss += loss * len(batch_idx)
                epoch_correct += accuracy(logits, batch_y) * len(batch_idx)
            history.losses.append(epoch_loss / num_samples)
            history.accuracies.append(epoch_correct / num_samples)
            history.learning_rates.append(scheduler.current_lr())
            scheduler.step()
            if instrumented:
                elapsed = time.perf_counter() - epoch_start
                epochs_total.inc()
                epoch_seconds.observe(elapsed)
                if elapsed > 0:
                    samples_per_second.set(num_samples / elapsed)
        return history

    def predict(
        self, model: Module, images: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Return predicted class indices for ``images``.

        Runs under :func:`~repro.nn.module.inference_mode`, so the layers
        keep no backward caches; ``TrainingConfig.inference_batch_size``
        (default: the training batch size) controls the batching.  The model
        predicts in eval mode and is left in the mode it was found in; only a
        training-mode model is switched (two walks of its module tree).
        """
        batch = batch_size or self.config.inference_batch_size or self.config.batch_size
        # Feed the model its own precision: predicting float64 images through
        # a float32-trained model would silently upcast every layer.
        images = images.astype(model.dtype, copy=False)
        was_training = model.training
        if was_training:
            model.eval()
        predictions: List[np.ndarray] = []
        with inference_mode():
            for start in range(0, images.shape[0], batch):
                logits = model.forward(images[start : start + batch])
                predictions.append(logits.argmax(axis=1))
        if was_training:
            model.train()
        if not predictions:
            return np.zeros((0,), dtype=np.int64)
        return np.concatenate(predictions)

    def evaluate(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: Optional[int] = None,
    ) -> float:
        """Return the accuracy of ``model`` on the given data."""
        predictions = self.predict(model, images, batch_size)
        return accuracy(predictions, labels)
