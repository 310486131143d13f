"""Floor for child training: trained children equal the plain training loop.

The reference below is the child build and training loop in their plain
form: a child built in full and then given the backbone's frozen weights and
batch-norm statistics, a full forward, backward through every stage and an
optimizer over every parameter.  Each test trains several children of one
prepared producer with one ``Trainer``, in the order a search would, and
demands bit-for-bit equality with the reference: the initial weights, the
history, every parameter and batch-norm buffer after training, and the
validation predictions.  The reference runs on the same machine as the code
under test, because a captured golden value would depend on the BLAS kernels
of the machine that captured it.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.nn.trainer as trainer_module
from repro.core.producer import BackboneProducer, ProducerConfig
from repro.nn.dtype import resolve_dtype
from repro.nn.layers import BatchNorm2d
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.module import inference_mode
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import StepDecay
from repro.nn.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.utils.rng import new_rng

VALIDATION_BATCH = 64  # evaluate_fairness's default inference batch


# -- the reference -----------------------------------------------------------------
def _reference_child(producer, decisions, seed):
    """Build the child in full, then copy in the backbone's frozen prefix."""
    descriptor = producer.describe_child(decisions)
    model = descriptor.build(
        num_classes=producer.num_classes,
        width_multiplier=producer.config.width_multiplier,
        rng=seed,
    )
    backbone = producer.backbone_model
    for stage_index in range(1 + producer.split_block):
        source, target = backbone[stage_index], model[stage_index]
        target.load_state_dict(source.state_dict())
        source_bns = [m for m in source.modules() if isinstance(m, BatchNorm2d)]
        target_bns = [m for m in target.modules() if isinstance(m, BatchNorm2d)]
        for src, dst in zip(source_bns, target_bns):
            dst.running_mean = src.running_mean.copy()
            dst.running_var = src.running_var.copy()
        target.freeze()
    return model


def _reference_fit(config, model, images, labels, rng=None):
    """The plain loop: full forward, full backward, every parameter stepped."""
    if config.precision is not None:
        dtype = resolve_dtype(config.precision)
        model.astype(dtype)
        images = images.astype(dtype, copy=False)

    rng = new_rng(config.seed) if rng is None else rng
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
    model.train()
    for _ in range(config.epochs):
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

            optimizer.zero_grad()
            logits = model.forward(batch_x)
            loss = loss_fn.forward(logits, batch_y, None)
            model.backward(loss_fn.backward())
            optimizer.step()

            epoch_loss += loss * len(batch_idx)
            epoch_correct += accuracy(logits, batch_y) * len(batch_idx)
        history.losses.append(epoch_loss / num_samples)
        history.accuracies.append(epoch_correct / num_samples)
        history.learning_rates.append(scheduler.current_lr())
        scheduler.step()
    return history


def _reference_predict(model, images, batch):
    """The plain eval-mode prediction loop."""
    images = images.astype(model.dtype, copy=False)
    was_training = model.training
    if was_training:
        model.eval()
    predictions = []
    with inference_mode():
        for start in range(0, images.shape[0], batch):
            logits = model.forward(images[start : start + batch])
            predictions.append(logits.argmax(axis=1))
    if was_training:
        model.train()
    if not predictions:
        return np.zeros((0,), dtype=np.int64)
    return np.concatenate(predictions)


# -- helpers -------------------------------------------------------------------------
def _state(model):
    """Every parameter (with its frozen flag) and buffer, as exact bytes."""
    params = [
        (name, param.trainable, param.data.dtype.str, param.data.shape, param.data.tobytes())
        for name, param in model.named_parameters()
    ]
    buffers = [
        (name, value.dtype.str, value.shape, value.tobytes())
        for name, value in model.named_buffers()
    ]
    return params, buffers


def _assert_same_history(actual, expected):
    assert [repr(v) for v in actual.losses] == [repr(v) for v in expected.losses]
    assert [repr(v) for v in actual.accuracies] == [repr(v) for v in expected.accuracies]
    assert actual.learning_rates == expected.learning_rates


def _children(producer):
    """Three distinct children: (decisions, weight seed) pairs."""
    choices = ((0, 0, 0, 0), (1, 1, 0, 1), (2, 0, 1, 0))
    return [
        (
            [producer.search_space.decode(p.stride, indices) for p in producer.positions],
            1000 + number,
        )
        for number, indices in enumerate(choices)
    ]


def _training_images(dataset, fraction):
    """Fresh (images, labels) arrays, as the pipeline hands a fidelity's data."""
    if fraction >= 1.0:
        return dataset.images.copy(), dataset.labels.copy()
    count = max(1, int(round(fraction * len(dataset))))
    indices = np.sort(new_rng(0).permutation(len(dataset))[:count])
    return dataset.images[indices], dataset.labels[indices]


def _train_and_check(producer, splits, trainer, decisions, seed, fraction, *, nudge=False, rng=None):
    """Produce, train and predict one child; check each step against the reference."""
    child = producer.produce(decisions, seed=seed)
    reference = _reference_child(producer, decisions, seed)
    if nudge:
        # One ulp on one frozen stem weight, in both models.  The child's
        # frozen weights are read-only, so the nudge goes into a copy.
        for model in (child.model, reference):
            weight = model[0][0].weight
            nudged = weight.data.copy()
            nudged.flat[0] = np.nextafter(nudged.flat[0], np.inf)
            weight.data = nudged
    assert _state(child.model) == _state(reference)
    assert child.num_trainable_parameters == reference.num_parameters(trainable_only=True)
    assert child.num_frozen_parameters == sum(
        reference[i].num_parameters() for i in range(1 + producer.split_block)
    )

    images, labels = _training_images(splits.train, fraction)
    expected = _reference_fit(trainer.config, reference, images.copy(), labels.copy(), rng)
    history = trainer.fit(child.model, images, labels)
    _assert_same_history(history, expected)
    assert _state(child.model) == _state(reference)

    validation = splits.validation.images
    predictions = trainer.predict(child.model, validation, VALIDATION_BATCH)
    expected_predictions = _reference_predict(reference, validation, VALIDATION_BATCH)
    assert predictions.dtype == expected_predictions.dtype
    assert np.array_equal(predictions, expected_predictions)
    assert _state(child.model) == _state(reference)


@pytest.fixture(scope="module")
def producer(tiny_splits, tiny_backbone):
    producer = BackboneProducer(
        dataset=tiny_splits.train,
        config=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
            max_searchable=2,
        ),
        trainer_config=TrainingConfig(epochs=1, batch_size=8, seed=0),
        rng=0,
    )
    producer.prepare()
    # The stem and at least two blocks are frozen in every child.
    assert producer.split_block >= 2
    return producer


def _config(precision):
    return TrainingConfig(epochs=2, batch_size=8, seed=0, precision=precision)


# -- the floor -----------------------------------------------------------------------
class TestChildrenMatchThePlainLoop:
    @pytest.mark.parametrize("fraction", [1.0, 0.5], ids=["full-data", "half-data"])
    @pytest.mark.parametrize("precision", [None, "float32"], ids=["float64", "float32"])
    def test_one_trainer_trains_three_children(self, producer, tiny_splits, precision, fraction):
        trainer = Trainer(_config(precision))
        for decisions, seed in _children(producer):
            _train_and_check(producer, tiny_splits, trainer, decisions, seed, fraction)

    @pytest.mark.parametrize("precision", [None, "float32"], ids=["float64", "float32"])
    def test_a_frozen_weight_one_ulp_apart(self, producer, tiny_splits, precision):
        trainer = Trainer(_config(precision))
        for number, (decisions, seed) in enumerate(_children(producer)):
            _train_and_check(
                producer, tiny_splits, trainer, decisions, seed, 1.0, nudge=number == 1
            )

    def test_another_seed_between_fits(self, producer, tiny_splits):
        config = _config(None)
        trainer = Trainer(config)
        for number, (decisions, seed) in enumerate(_children(producer)):
            trainer.config = replace(config, seed=number % 2)
            _train_and_check(producer, tiny_splits, trainer, decisions, seed, 1.0)

    def test_unseeded_fits_follow_their_own_streams(self, producer, tiny_splits, monkeypatch):
        streams = iter(range(100, 200))

        def known_streams(seed=None):
            if seed is None:
                return np.random.default_rng(next(streams))
            return new_rng(seed)

        monkeypatch.setattr(trainer_module, "new_rng", known_streams)
        trainer = Trainer(replace(_config(None), seed=None))
        for number, (decisions, seed) in enumerate(_children(producer)):
            _train_and_check(
                producer,
                tiny_splits,
                trainer,
                decisions,
                seed,
                1.0,
                rng=np.random.default_rng(100 + number),
            )

    def test_a_pickled_trainer_carries_no_memo(self, producer, tiny_splits):
        config = _config(None)
        trainer = Trainer(config)
        children = _children(producer)
        for decisions, seed in children[:2]:
            _train_and_check(producer, tiny_splits, trainer, decisions, seed, 1.0)
        payload = pickle.dumps(trainer)
        assert payload == pickle.dumps(Trainer(config))
        clone = pickle.loads(payload)
        decisions, seed = children[2]
        _train_and_check(producer, tiny_splits, clone, decisions, seed, 1.0)
