"""Model zoo: promote finished search runs into versioned, deployable entries.

A zoo entry is the deployable form of one discovered child network::

    <zoo_root>/
      _blobs/objects/ab/cdef...       content-addressed weight archives
                                      (a repro.store.LocalStore root)
      <name>/
        latest                        version pointer (plain text)
        <version>/
          MANIFEST.json               identity, lineage and headline numbers
          model.json                  descriptor + build parameters
          run_spec.json               the resolved spec of the source run
          report_card.json            fairness + per-device latency card

Promotion is **deterministic retraining**: the search trains children with
producer-drawn init seeds that are not persisted, so instead of trying to
replay the search, ``promote_run`` rebuilds the winning descriptor with an
init seed derived from the spec and architecture fingerprints and retrains
it at the spec's child fidelity -- the standard NAS deploy step.  Every
artifact is content-derived (no wall-clock anywhere), so promoting the same
finished run twice writes byte-identical files and the weights blob dedupes
by hash.  The version id *is* the content fingerprint of (spec, architecture,
weights), truncated.

Weight archives live in a :class:`repro.store.LocalStore` under ``_blobs/``
(sharded ``objects/ab/...`` layout, hash-verified reads).  Manifests record
both the store key (``weights_object``) and the zoo-root-relative path
(``weights_blob``); entries promoted before the store migration carry only
the legacy flat ``_blobs/<hash>.npz`` path, which :meth:`ZooRegistry.load_model`
still reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.spec import RunSpec
from repro.engine.serde import (
    descriptor_from_dict,
    descriptor_to_dict,
    history_from_dict,
)
from repro.fairness.report import evaluate_fairness
from repro.hardware.device import get_device, list_devices
from repro.hardware.latency import estimate_latency_ms
from repro.nn.module import Module
from repro.nn.trainer import Trainer, TrainingConfig
from repro.serving.artifacts import (
    arrays_to_bytes,
    capture_model_arrays,
    load_arrays,
    load_arrays_bytes,
    model_content_hash,
    restore_model_arrays,
)
from repro.store import LocalStore
from repro.service import registry as runs_registry
from repro.service.errors import RunNotReady
from repro.service.registry import RunRegistry
from repro.utils.fingerprint import combine_fingerprints
from repro.utils.serialization import atomic_write_text, load_json, save_json
from repro.zoo.descriptors import ArchitectureDescriptor

DEFAULT_ZOO_ROOT = "zoo"
BLOBS_DIR = "_blobs"
MANIFEST_JSON = "MANIFEST.json"
MODEL_JSON = "model.json"
RUN_SPEC_JSON = "run_spec.json"
REPORT_CARD_JSON = "report_card.json"
LATEST_POINTER = "latest"

# Single-image latency budgets (ms) on the reference device, matching the
# deployment tiers of examples/edge_deployment.py.
LATENCY_CLASSES: Tuple[Tuple[str, float], ...] = (
    ("edge-fast", 700.0),
    ("edge", 1500.0),
    ("mobile", 2500.0),
)
REFERENCE_DEVICE = "raspberry-pi-4"

# Reserved by the daemon's POST /models/promote route.
RESERVED_NAMES = ("promote",)


class ModelNotFound(KeyError):
    """No zoo entry with the given name/version exists."""

    def __init__(self, name: str, version: Optional[str] = None):
        super().__init__(name)
        self.name = name
        self.version = version

    def __str__(self) -> str:
        suffix = f":{self.version}" if self.version else ""
        return f"unknown zoo model {self.name + suffix!r}"


def latency_class(latency_ms: float) -> str:
    """Deployment tier of a single-image latency on the reference device."""
    for name, budget_ms in LATENCY_CLASSES:
        if latency_ms <= budget_ms:
            return name
    return "server"


def _sanitize_name(raw: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in raw)
    cleaned = cleaned.strip("-.").lower()
    return cleaned or "model"


def derive_init_seed(spec_cache_key: str, descriptor_cache_key: str) -> int:
    """Deterministic weight-init seed from the run/architecture lineage."""
    return int(
        combine_fingerprints("zoo-init", spec_cache_key, descriptor_cache_key)[:8],
        16,
    )


@dataclass
class ZooEntry:
    """One promoted model version on disk."""

    name: str
    version: str
    path: str
    manifest: Dict[str, Any] = field(default_factory=dict)

    @property
    def summary_row(self) -> str:
        ref_ms = self.manifest.get("reference_latency_ms")
        accuracy = self.manifest.get("accuracy")
        return (
            f"{self.name}:{self.version:14s} "
            f"run={self.manifest.get('source_run_id', '?'):24s} "
            f"latency={self.manifest.get('latency_class', '?'):9s}"
            f"{'' if ref_ms is None else f' ({ref_ms:.0f}ms)'} "
            f"acc={'-' if accuracy is None else format(accuracy, '.2%')}"
        )


class ZooRegistry:
    """Creates and reads the versioned entries of one zoo root."""

    def __init__(self, root: str = DEFAULT_ZOO_ROOT, store: Optional[LocalStore] = None):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        # Weight archives are content-addressed: the blobs dir is a store
        # root, so equal weights dedupe by key and reads are hash-verified.
        self.store = store or LocalStore(os.path.join(self.root, BLOBS_DIR))

    # -- paths --------------------------------------------------------------------
    def entry_dir(self, name: str, version: str) -> str:
        return os.path.join(self.root, name, version)

    def blob_path(self, weights_hash: str) -> str:
        """The pre-store flat blob path (still readable, no longer written)."""
        return os.path.join(self.root, BLOBS_DIR, f"{weights_hash}.npz")

    # -- listing / lookup ---------------------------------------------------------
    def list_entries(self) -> List[ZooEntry]:
        """Every promoted (name, version) pair, sorted."""
        entries: List[ZooEntry] = []
        for name in sorted(os.listdir(self.root)):
            model_dir = os.path.join(self.root, name)
            if name == BLOBS_DIR or not os.path.isdir(model_dir):
                continue
            for version in sorted(os.listdir(model_dir)):
                manifest_path = os.path.join(model_dir, version, MANIFEST_JSON)
                if os.path.isfile(manifest_path):
                    entries.append(
                        ZooEntry(
                            name=name,
                            version=version,
                            path=os.path.join(model_dir, version),
                            manifest=load_json(manifest_path),
                        )
                    )
        return entries

    def get(self, name: str, version: Optional[str] = None) -> ZooEntry:
        """Look an entry up; ``version=None`` follows the ``latest`` pointer."""
        model_dir = os.path.join(self.root, name)
        if version is None:
            pointer = os.path.join(model_dir, LATEST_POINTER)
            if not os.path.isfile(pointer):
                raise ModelNotFound(name)
            with open(pointer, "r", encoding="utf-8") as handle:
                version = handle.read().strip()
        path = self.entry_dir(name, version)
        manifest_path = os.path.join(path, MANIFEST_JSON)
        if not os.path.isfile(manifest_path):
            raise ModelNotFound(name, version)
        return ZooEntry(
            name=name, version=version, path=path, manifest=load_json(manifest_path)
        )

    def load_model(
        self, name: str, version: Optional[str] = None
    ) -> Tuple[Module, ArchitectureDescriptor, ZooEntry]:
        """Rebuild a promoted model with its stored weights."""
        entry = self.get(name, version)
        payload = load_json(os.path.join(entry.path, MODEL_JSON))
        descriptor = descriptor_from_dict(payload["descriptor"])
        model = descriptor.build(
            num_classes=int(payload["num_classes"]),
            width_multiplier=float(payload["width_multiplier"]),
            rng=int(payload["init_seed"]),
        )
        arrays = self._load_weights(entry.manifest)
        restore_model_arrays(model, arrays)
        return model, descriptor, entry

    def _load_weights(self, manifest: Dict[str, Any]) -> Dict[str, np.ndarray]:
        """A manifest's weight snapshot, store-first with a legacy fallback.

        Entries promoted since the store migration carry ``weights_object``
        (a content key); reading through the store verifies the archive
        hash.  Older manifests only name the flat ``_blobs/<hash>.npz``
        path, which remains readable in place.
        """
        key = manifest.get("weights_object")
        if key is not None:
            data = self.store.get(str(key))
            if data is not None:
                return load_arrays_bytes(data)
        return load_arrays(os.path.join(self.root, manifest["weights_blob"]))

    def set_latest(self, name: str, version: str) -> None:
        """Point ``name``'s ``latest`` at ``version``; safe under concurrent
        promotions (the daemon runs them on a threading server)."""
        pointer = os.path.join(self.root, name, LATEST_POINTER)
        atomic_write_text(pointer, f"{version}\n")

    # -- promotion ----------------------------------------------------------------
    def promote_run(
        self,
        runs: Union[RunRegistry, str],
        run_id: str,
        name: Optional[str] = None,
        episode: Optional[int] = None,
    ) -> ZooEntry:
        """Promote the best child of a finished run into a zoo entry.

        ``runs`` is a :class:`RunRegistry` (or a runs-root path).  ``episode``
        pins a specific episode record instead of the best-reward one -- how
        a deployment picks a non-default Pareto point.  Raises
        :class:`~repro.service.errors.RunNotFound` for unknown runs and
        :class:`~repro.service.errors.RunNotReady` until the run finished.
        """
        registry = runs if isinstance(runs, RunRegistry) else RunRegistry(runs)
        status = registry.load_status(run_id)
        if status.get("state") != runs_registry.FINISHED:
            raise RunNotReady(run_id, status.get("state", "?"))
        report = registry.load_report(run_id)
        if report is None:
            raise RunNotReady(run_id, status.get("state", "?"))

        spec = RunSpec.from_dict(report["spec"])
        history = history_from_dict(report["history"])
        if episode is None:
            record = history.best_record()
            if record is None:
                raise ValueError(
                    f"run {run_id!r} has no constraint-satisfying episode to "
                    "promote (every child drew the -1 penalty); pass episode= "
                    "to pin one explicitly"
                )
        else:
            matches = [r for r in history.records if r.episode == episode]
            if not matches:
                raise ValueError(
                    f"run {run_id!r} has no episode {episode}; recorded: "
                    f"{sorted(r.episode for r in history.records)}"
                )
            record = matches[0]
        descriptor = record.descriptor

        spec_key = report.get("spec_cache_key") or spec.cache_key()
        arch_key = descriptor.cache_key()
        init_seed = derive_init_seed(spec_key, arch_key)

        splits = spec.dataset.build()
        model, trainer = self._train_promoted(spec, splits, descriptor, init_seed)
        fairness = evaluate_fairness(model, splits.validation, trainer)

        arrays = capture_model_arrays(model)
        weights_hash = model_content_hash(arrays)
        version = "v" + combine_fingerprints(
            "zoo-version", spec_key, arch_key, weights_hash
        )[:12]
        resolved_name = _sanitize_name(name or descriptor.name or descriptor.family)
        if resolved_name in RESERVED_NAMES:
            raise ValueError(
                f"model name {resolved_name!r} is reserved by the serving API; "
                "pass an explicit --name"
            )

        # Content-addressed publication: put() dedupes re-promotions of the
        # same weights (equal bytes -> equal key -> one object on disk).
        weights_payload = arrays_to_bytes(arrays)
        weights_object = self.store.put(weights_payload)

        latencies = {
            device: estimate_latency_ms(descriptor, get_device(device))
            for device in list_devices()
        }
        reference_ms = latencies[REFERENCE_DEVICE]
        tier = latency_class(reference_ms)

        entry_dir = self.entry_dir(resolved_name, version)
        os.makedirs(entry_dir, exist_ok=True)
        manifest = {
            "name": resolved_name,
            "version": version,
            "source_run_id": run_id,
            "episode": record.episode,
            "spec_cache_key": spec_key,
            "descriptor_cache_key": arch_key,
            "weights_hash": weights_hash,
            "weights_object": weights_object,
            "weights_blob": os.path.join(
                BLOBS_DIR, self.store.object_relpath(weights_object)
            ),
            "init_seed": init_seed,
            # The shape served requests must have: the source dataset's
            # resolution, not the descriptor's paper-scale input_resolution.
            "input_shape": [
                descriptor.stem.ch_in,
                spec.dataset.image_size,
                spec.dataset.image_size,
            ],
            "accuracy": fairness.overall_accuracy,
            "unfairness": fairness.unfairness,
            "reference_device": REFERENCE_DEVICE,
            "reference_latency_ms": reference_ms,
            "latency_class": tier,
        }
        save_json(os.path.join(entry_dir, MANIFEST_JSON), manifest)
        save_json(
            os.path.join(entry_dir, MODEL_JSON),
            {
                "descriptor": descriptor_to_dict(descriptor),
                "num_classes": spec.dataset.num_classes,
                "width_multiplier": spec.search.width_multiplier,
                "init_seed": init_seed,
                "precision": trainer.config.precision,
                "inference_batch_size": trainer.config.inference_batch_size,
            },
        )
        save_json(os.path.join(entry_dir, RUN_SPEC_JSON), spec.to_dict())
        save_json(
            os.path.join(entry_dir, REPORT_CARD_JSON),
            {
                "accuracy": fairness.overall_accuracy,
                "group_accuracy": fairness.group_accuracy,
                "unfairness": fairness.unfairness,
                "latency_ms": latencies,
                "latency_class": tier,
                "num_parameters": model.num_parameters(),
                "storage_mb": model.num_parameters() * 4 / 1e6,
                "search_reward": record.reward,
                "search_accuracy": record.accuracy,
                "search_unfairness": record.unfairness,
            },
        )
        self.set_latest(resolved_name, version)
        return ZooEntry(
            name=resolved_name, version=version, path=entry_dir, manifest=manifest
        )

    def _train_promoted(
        self, spec: RunSpec, splits, descriptor: ArchitectureDescriptor, init_seed: int
    ) -> Tuple[Module, Trainer]:
        """Deterministically retrain a descriptor at the spec's child fidelity."""
        model = descriptor.build(
            num_classes=spec.dataset.num_classes,
            width_multiplier=spec.search.width_multiplier,
            rng=init_seed,
        )
        compute = spec.compute
        config = TrainingConfig(
            epochs=spec.search.child_epochs,
            batch_size=spec.search.child_batch_size,
            seed=spec.search.seed,
            precision=compute.precision if compute is not None else None,
            inference_batch_size=(
                compute.inference_batch_size if compute is not None else None
            ),
        )
        trainer = Trainer(config)
        trainer.fit(model, splits.train.images, splits.train.labels)
        return model, trainer
