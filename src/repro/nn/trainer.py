"""Mini-batch training loop used by the NAS evaluator and the zoo experiments.

The loop is freeze-aware.  The leading stages of a :class:`Sequential` model
that hold no trainable parameter -- FaHaNa's frozen header, the *frozen
prefix* -- run forward only: backward stops at the first trainable stage,
because the prefix's parameter gradients would be dropped anyway, and the
optimizer sees only the trainable parameters.  A model with no frozen stage
(a backbone's pre-training, MONAS children, a served model) runs the same
loop with an empty prefix.

Every child of one FaHaNa search shares its frozen prefix bit for bit and
trains on the same batches in the same order, so its prefix outputs are the
same in every child.  Each :class:`Trainer` therefore keeps a *prefix memo*:
the prefix's output for every batch of its last ``fit`` (plus the prefix
buffers, batch-norm running statistics, as that fit left them) and of its
last ``predict``.  A later call replays them instead of running the prefix.

* **Validity.**  A recording is replayed only when everything the prefix
  outputs depend on is equal, compared byte for byte (``-0.0`` differs from
  ``0.0``): the prefix's module structure, parameters and buffers, the
  images (dtype, shape, values), every epoch's batch order -- drawn up
  front, since the loop's generator draws nothing else --, the batch size
  and the epoch count; for ``predict``, the inference batch size.  A
  read-only parameter or buffer array that owns its memory -- the frozen
  weights a producer shares between its children -- is equal without a
  comparison when it is the very object the recording holds.  A miss
  records anew and replaces the old recording; a trainer keeps one fit and
  one predict recording.
* **What it assumes.**  No frozen stage draws random numbers (a ``Dropout``
  ends the prefix), frozen parameters do not change inside ``fit``, and an
  array made read-only is never made writable again.
* **Bound.**  A recording that would exceed ``PREFIX_MEMO_MAX_BYTES``
  (epochs x samples x prefix-output bytes, plus the compared copies) is not
  kept; such calls run the prefix for every batch.
* **Scope.**  The memo belongs to one trainer -- the evaluation pipeline owns
  one per fidelity rung, so each search pays for its own first child.  A lock
  guards it on the thread backend; replayed arrays are read-only, so a tail
  layer that wrote into its input would raise instead of corrupting a later
  child.  Pickling a trainer drops the memo (``__getstate__``).  The process
  pool ships the evaluator, trainers included, and the producer once per
  worker, and the worker builds each child around the producer's shared
  prefix, so a worker's memo serves every task it runs by the identity of
  the prefix's arrays.  A float32 child shares them too: the producer casts
  the prefix once per precision and builds the child in the run's
  precision, so the cast at the top of ``fit`` changes nothing.  The fleet
  ships the evaluator and producer with every task, so there every task
  starts cold.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.dtype import DTYPE_NAMES, resolve_dtype
from repro.nn.layers.dropout import Dropout
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.module import Module, Sequential, inference_mode
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import StepDecay
from repro.obs import metrics as obs_metrics
from repro.utils.rng import SeedLike, new_rng

# Largest prefix-memo recording a trainer keeps, in bytes.
PREFIX_MEMO_MAX_BYTES = 256 * 1024 * 1024

# Module attributes of these types count as a layer's settings.
_SETTING_TYPES = (bool, int, float, str)

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


def _split_frozen_prefix(model: Module) -> Tuple[List[Module], List[Module]]:
    """Split ``model`` into its frozen prefix and the stages after it.

    Of the leading stages of a :class:`Sequential` that hold no trainable
    parameter and draw no random numbers, the prefix runs through the last
    one that holds a (frozen) parameter.  Parameter-free stages after it --
    a searched SKIP block, say -- stay in the tail, so children that differ
    only there share one prefix.  Any other model is all tail.
    """
    if not isinstance(model, Sequential):
        return [], [model]
    stages = list(model)
    frozen = 0
    for index, stage in enumerate(stages):
        params = stage.parameters()
        if any(param.trainable for param in params) or any(
            isinstance(module, Dropout) for module in stage.modules()
        ):
            break
        if params:
            frozen = index + 1
    return stages[:frozen], stages[frozen:]


def _run(stages: Sequence[Module], x: np.ndarray) -> np.ndarray:
    """Forward ``x`` through ``stages`` in order."""
    for stage in stages:
        x = stage.forward(x)
    return x


def _buffer_slots(stages: Sequence[Module]) -> List[Tuple[Module, str]]:
    """``(module, name)`` of every buffer in ``stages``, depth first."""
    return [
        (module, name)
        for stage in stages
        for module in stage.modules()
        for name in module._buffers
    ]


def _layout_and_state(prefix: Sequence[Module]) -> Tuple[tuple, tuple]:
    """What the prefix computes with: its structure, and its parameters and
    buffers.

    The structure is every module's type and public scalar settings (stride,
    padding, eps, training mode, ...) plus every array's name, dtype and
    shape, so two prefixes with equal weights but different layers never
    compare equal.  The state holds, per array, the array itself when it is
    read-only and owns its memory (nothing can write its bytes, so the object
    stands for them) and a copy of its bytes otherwise.
    """
    layout: List[object] = []
    state: List[object] = []
    for stage in prefix:
        for module in stage.modules():
            layout.append(type(module))
            layout.extend(
                [
                    item
                    for item in vars(module).items()
                    if item[0][0] != "_" and isinstance(item[1], _SETTING_TYPES)
                ]
            )
            arrays = [(name, param.data) for name, param in module._parameters.items()]
            arrays.extend(module._buffers.items())
            for name, array in arrays:
                layout.append((name, array.dtype.str, array.shape))
                read_only = not array.flags.writeable and array.flags.owndata
                state.append(array if read_only else array.tobytes())
    return tuple(layout), tuple(state)


def _same_state(kept: tuple, state: tuple) -> bool:
    """True when two states of one prefix layout hold the same bytes, array
    by array.

    An array the kept state holds is alive as long as the state is, so no
    other object can take its place: the same object is the same bytes.
    """
    return all(
        old is new or _as_bytes(old) == _as_bytes(new) for old, new in zip(kept, state)
    )


def _as_bytes(part: object) -> bytes:
    return part if isinstance(part, bytes) else part.tobytes()


class _Recording:
    """One call's frozen-prefix outputs, kept to replay for equal calls."""

    def __init__(self, key: tuple, state: tuple, budget: int, rows: int):
        self.key = key
        # The prefix's parameters and buffers (see _layout_and_state).
        self.state = state
        # One read-only array per batch, in call order.
        self.outputs: List[np.ndarray] = []
        # fit only: the prefix's buffers as the fit left them.
        self.buffers: List[np.ndarray] = []
        self._budget = budget
        self._rows = rows

    def keep(self, output: np.ndarray) -> bool:
        """Keep a read-only copy of one batch's prefix output.

        False -- drop the recording -- when the whole call's outputs would
        exceed the byte budget.
        """
        if not self.outputs and output.nbytes // len(output) * self._rows > self._budget:
            return False
        kept = output.copy()
        kept.flags.writeable = False
        self.outputs.append(kept)
        return True


class _PrefixMemo:
    """A trainer's last fit and last predict recordings (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recordings: Dict[str, _Recording] = {}

    def lookup(
        self,
        call: str,
        prefix: Sequence[Module],
        images: np.ndarray,
        rows: int,
        settings: tuple,
    ) -> Tuple[Optional[_Recording], Optional[_Recording]]:
        """``(recording to replay, recording to fill)`` for one call.

        ``rows`` is the number of samples the call runs through the prefix
        and ``settings`` the call's other inputs to the prefix outputs.  Both
        results are None when there is nothing to record: no prefix, no rows,
        or images beyond the byte bound on their own.
        """
        if not prefix or rows == 0 or images.nbytes > PREFIX_MEMO_MAX_BYTES:
            return None, None
        layout, state = _layout_and_state(prefix)
        pixels = images.tobytes()
        key = (layout, images.dtype.str, images.shape, pixels, settings)
        with self._lock:
            kept = self._recordings.get(call)
        # A kept recording never changes, so comparing needs no lock.
        if kept is not None and kept.key == key and _same_state(kept.state, state):
            return kept, None
        key_bytes = len(pixels) + sum(
            len(part) for part in state + settings if isinstance(part, bytes)
        )
        return None, _Recording(key, state, PREFIX_MEMO_MAX_BYTES - key_bytes, rows)

    def keep(self, call: str, recording: _Recording) -> None:
        """Make ``recording`` the one replayed for ``call``."""
        with self._lock:
            self._recordings[call] = recording


class Trainer:
    """Trains a model on (images, labels) arrays and evaluates it in batches.

    Each trainer holds a frozen-prefix memo (see the module docstring);
    pickling a trainer keeps only its config.
    """

    def __init__(self, config: Optional[TrainingConfig] = None):
        self.config = config or TrainingConfig()
        self._memo = _PrefixMemo()

    def __getstate__(self) -> Dict[str, TrainingConfig]:
        return {"config": self.config}

    def __setstate__(self, state: Dict[str, TrainingConfig]) -> None:
        self.__init__(state["config"])

    def fit(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train ``model`` in place and return the per-epoch history.

        Only the stages after the model's frozen prefix run backward, and
        the prefix's outputs are replayed from the memo when an equal fit
        recorded them.
        """
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

        num_samples = images.shape[0]
        rng = new_rng(config.seed)
        # The generator draws nothing but the batch orders, so drawing every
        # epoch's order up front leaves the stream as it was -- and lets the
        # memo compare the whole schedule before the first batch.
        orders = [
            rng.permutation(num_samples) if config.shuffle else np.arange(num_samples)
            for _ in range(config.epochs)
        ]
        model.train()
        prefix, tail = _split_frozen_prefix(model)
        replay, recording = self._memo.lookup(
            "fit",
            prefix,
            images,
            rows=num_samples * config.epochs,
            settings=(config.batch_size, b"".join(order.tobytes() for order in orders)),
        )

        loss_fn = CrossEntropyLoss()
        if config.optimizer == "sgd":
            optimizer = SGD(
                model.trainable_parameters(),
                lr=config.learning_rate,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                max_grad_norm=config.max_grad_norm,
            )
        else:
            optimizer = Adam(
                model.trainable_parameters(),
                lr=config.learning_rate,
                weight_decay=config.weight_decay,
                max_grad_norm=config.max_grad_norm,
            )
        scheduler = StepDecay(optimizer, config.lr_step_size, config.lr_gamma)
        history = TrainingHistory()

        instrumented = obs_metrics.enabled()
        if instrumented:
            epochs_total, epoch_seconds, samples_per_second = _trainer_instruments()
        step = 0
        for order in orders:
            epoch_start = time.perf_counter() if instrumented else 0.0
            epoch_loss = 0.0
            epoch_correct = 0.0
            for start in range(0, num_samples, config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                batch_y = labels[batch_idx]
                batch_w = (
                    sample_weights[batch_idx] if sample_weights is not None else None
                )
                if replay is not None:
                    features = replay.outputs[step]
                else:
                    features = _run(prefix, images[batch_idx])
                    if recording is not None and not recording.keep(features):
                        recording = None
                step += 1

                optimizer.zero_grad()
                logits = _run(tail, features)
                loss = loss_fn.forward(logits, batch_y, batch_w)
                grad = loss_fn.backward()
                for stage in reversed(tail):
                    grad = stage.backward(grad)
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

        # Leave the prefix's buffers (batch-norm running statistics) as the
        # prefix's own training-mode forwards would have.
        if replay is not None:
            for (module, name), value in zip(_buffer_slots(prefix), replay.buffers):
                setattr(module, name, value.copy())
        elif recording is not None:
            recording.buffers = [
                getattr(module, name).copy() for module, name in _buffer_slots(prefix)
            ]
            self._memo.keep("fit", recording)
        return history

    def predict(
        self, model: Module, images: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Return predicted class indices for ``images``.

        Runs under :func:`~repro.nn.module.inference_mode`, so the layers
        keep no backward caches; ``TrainingConfig.inference_batch_size``
        (default: the training batch size) controls the batching.  The model
        predicts in eval mode and is left in the mode it was found in, also
        when a forward raises; only a training-mode model is switched (two
        walks of its module tree).  The frozen prefix's outputs are replayed
        from the memo when an equal predict recorded them.
        """
        batch = batch_size or self.config.inference_batch_size or self.config.batch_size
        # Feed the model its own precision: predicting float64 images through
        # a float32-trained model would silently upcast every layer.
        images = images.astype(model.dtype, copy=False)
        was_training = model.training
        if was_training:
            model.eval()
        try:
            prefix, tail = _split_frozen_prefix(model)
            replay, recording = self._memo.lookup(
                "predict", prefix, images, rows=images.shape[0], settings=(batch,)
            )
            predictions: List[np.ndarray] = []
            with inference_mode():
                for step, start in enumerate(range(0, images.shape[0], batch)):
                    if replay is not None:
                        features = replay.outputs[step]
                    else:
                        features = _run(prefix, images[start : start + batch])
                        if recording is not None and not recording.keep(features):
                            recording = None
                    logits = _run(tail, features)
                    predictions.append(logits.argmax(axis=1))
            if recording is not None:
                self._memo.keep("predict", recording)
        finally:
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
