"""Tests for the declarative run API: RunSpec serialization, the strategy
registry, the ``repro.run`` facade and the ``repro-search`` command line."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import (
    DatasetSpec,
    DesignSpecConfig,
    RunSpec,
    SearchParams,
    available_strategies,
    get_strategy,
    register_strategy,
    spec_schema,
    unregister_strategy,
)
from repro.analysis import build_import_graph, load_modules
from repro.api.cli import main as cli_main
from repro.core.fahana import FaHaNaSearch
from repro.data.dataset import DatasetSplits, stratified_split
from repro.data.dermatology import DermatologyConfig, DermatologyGenerator
from repro.engine import EngineConfig, create_pool
from repro.engine.checkpoint import has_checkpoint, load_checkpoint
from repro.engine.events import EPISODE_FINISHED, RUN_CANCELLED
from repro.engine.workers import process_shared
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.hardware.device import RASPBERRY_PI_4

ROOT = os.path.join(os.path.dirname(__file__), "..")
SMOKE_SPEC = os.path.join(ROOT, "examples", "specs", "smoke.json")


def _tiny_spec(strategy: str = "fahana", episodes: int = 2, **engine_kwargs) -> RunSpec:
    """A spec sized so one run takes a second or two on a laptop CPU."""
    return RunSpec(
        strategy=strategy,
        dataset=DatasetSpec(
            image_size=10,
            samples_per_class=8,
            minority_fraction=0.5,
            seed=123,
            split_seed=0,
        ),
        design=DesignSpecConfig(timing_constraint_ms=1e6),
        search=SearchParams(
            episodes=episodes,
            child_epochs=1,
            child_batch_size=8,
            pretrain_epochs=0,
            max_searchable=2,
            width_multiplier=0.25,
            seed=0,
        ),
        engine=EngineConfig(**engine_kwargs) if engine_kwargs else EngineConfig(),
    )


class TestSpecSerialization:
    @pytest.mark.parametrize("strategy", ["fahana", "monas", "random"])
    def test_dict_roundtrip_per_strategy(self, strategy):
        spec = _tiny_spec(strategy)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_json_and_file_roundtrip(self, tmp_path):
        spec = _tiny_spec("random", use_cache=True, cache_capacity=64)
        assert RunSpec.from_json(spec.to_json()) == spec
        path = spec.to_file(str(tmp_path / "spec.json"))
        assert RunSpec.from_file(path) == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="'bogus'.*allowed keys"):
            RunSpec.from_dict({"strategy": "fahana", "bogus": 1})

    def test_unknown_section_key_rejected_with_allowed_list(self):
        with pytest.raises(ValueError, match="'episodez'.*episodes"):
            RunSpec.from_dict({"search": {"episodez": 5}})

    def test_unknown_strategy_rejected_with_registered_list(self):
        with pytest.raises(ValueError, match="fahana, monas, random"):
            RunSpec.from_dict({"strategy": "quantum-annealing"})

    def test_type_errors_are_located(self):
        with pytest.raises(ValueError, match="search.episodes"):
            RunSpec.from_dict({"search": {"episodes": "twenty"}})

    def test_invalid_values_are_located(self):
        with pytest.raises(ValueError, match="'search' section"):
            RunSpec.from_dict({"search": {"episodes": -3}})
        with pytest.raises(ValueError, match="unknown device"):
            RunSpec.from_dict({"design": {"device": "gameboy"}})

    def test_engine_section_is_plain_data(self):
        # Every engine field is a spec leaf (so a CLI flag), and every one of
        # them survives the round trip.
        engine_paths = [leaf.path for leaf in spec_schema() if leaf.section == "engine"]
        assert engine_paths == [
            f"engine.{f.name}" for f in dataclasses.fields(EngineConfig)
        ]
        changed = {
            "backend": "thread",
            "num_workers": 3,
            "batch_episodes": 2,
            "use_cache": True,
            "cache_capacity": 64,
            "store_root": "store",
            "store_url": "http://127.0.0.1:1",
            "run_dir": "run",
            "checkpoint_every": 4,
            "telemetry": False,
            "blas_threads_per_worker": 2,
        }
        assert set(changed) == {f.name for f in dataclasses.fields(EngineConfig)}
        engine = EngineConfig(**changed)
        for name, value in changed.items():
            assert getattr(EngineConfig(), name) != value, name
        spec = dataclasses.replace(_tiny_spec(), engine=engine)
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("share_evaluator", [True, False])
    def test_archived_share_evaluator_is_dropped(self, share_evaluator):
        # Specs archived while the process pool could re-pickle its
        # evaluator per task carry "share_evaluator"; whatever its value,
        # they load as if the key were absent, next to "cache_dir": null.
        payload = _tiny_spec(use_cache=True).to_dict()
        archived = json.loads(json.dumps(payload))
        archived["engine"]["share_evaluator"] = share_evaluator
        assert RunSpec.from_dict(archived) == RunSpec.from_dict(payload)
        archived["engine"]["cache_dir"] = None
        assert RunSpec.from_dict(archived) == RunSpec.from_dict(payload)

    def test_archived_null_cache_dir_loads(self):
        # Specs archived while the engine had a JSON disk cache carry
        # "cache_dir": null; they load as if the key were absent.
        payload = _tiny_spec(use_cache=True).to_dict()
        archived = json.loads(json.dumps(payload))
        archived["engine"]["cache_dir"] = None
        assert RunSpec.from_dict(archived) == RunSpec.from_dict(payload)

    def test_set_cache_dir_is_rejected_naming_store_root(self):
        payload = _tiny_spec(use_cache=True).to_dict()
        payload["engine"]["cache_dir"] = "eval-cache"
        with pytest.raises(ValueError, match="engine.store_root"):
            RunSpec.from_dict(payload)

    def test_cache_key_ignores_engine_but_not_search(self):
        base = _tiny_spec()
        other_engine = dataclasses.replace(
            base, engine=EngineConfig(backend="thread", num_workers=4, use_cache=True)
        )
        other_search = dataclasses.replace(
            base, search=dataclasses.replace(base.search, episodes=5)
        )
        assert base.cache_key() == other_engine.cache_key()
        assert base.cache_key() != other_search.cache_key()
        assert base.cache_key() == _tiny_spec().cache_key()

    def test_with_overrides_dotted_paths(self):
        spec = _tiny_spec().with_overrides(
            values={"strategy": "random", "search.episodes": 7, "engine.backend": "thread"}
        )
        assert spec.strategy == "random"
        assert spec.search.episodes == 7
        assert spec.engine.backend == "thread"
        with pytest.raises(ValueError, match="unknown override path"):
            _tiny_spec().with_overrides(values={"nonsense": 1})
        with pytest.raises(ValueError, match="unknown field"):
            _tiny_spec().with_overrides(values={"search.episodez": 1})

    def test_schema_covers_every_section(self):
        sections = {leaf.section for leaf in spec_schema()}
        assert sections == {
            "dataset",
            "design",
            "search",
            "evaluation",
            "compute",
            "engine",
        }
        paths = [leaf.path for leaf in spec_schema()]
        assert "search.episodes" in paths and "engine.backend" in paths
        assert "compute.precision" in paths
        assert "evaluation.max_parameters" in paths
        # Lists of objects have no single-flag CLI form.
        assert "evaluation.fidelities" not in paths


class TestRegistry:
    def test_builtins_registered(self):
        assert available_strategies() == [
            "fahana",
            "monas",
            "random",
            "regularized_evolution",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("fahana", lambda *a: None)

    def test_custom_strategy_runs_through_facade(self):
        def build(spec, train, validation, design):
            from repro.api.strategies import _fahana_config

            return FaHaNaSearch(train, validation, design, _fahana_config(spec))

        register_strategy("custom-fahana", build, description="test strategy")
        try:
            spec = dataclasses.replace(_tiny_spec(), strategy="custom-fahana")
            report = repro.run(spec)
            assert len(report.history) == 2
            assert get_strategy("custom-fahana").description == "test strategy"
        finally:
            unregister_strategy("custom-fahana")


# -- an independent reference for DatasetSpec.build and DesignSpecConfig.build ----
def prepare_dataset(config: DermatologyConfig, seed: int) -> DatasetSplits:
    """Generate the synthetic dermatology dataset and split it 60/20/20."""
    return stratified_split(DermatologyGenerator(config).generate(), rng=seed)


def default_design_spec(timing_constraint_ms: float) -> DesignSpec:
    """The paper's default specification on a Raspberry Pi 4."""
    return DesignSpec(
        hardware=HardwareSpec(
            device=RASPBERRY_PI_4, timing_constraint_ms=timing_constraint_ms
        ),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )


class TestRunFacade:
    def test_spec_file_run_matches_run_on_prepared_splits(self, tmp_path):
        """The acceptance criterion: repro.run(from_file(...)) reproduces a
        run on splits and a design spec built by the reference helpers above
        exactly (same history, modulo wall-clock)."""
        # The reference spec has only a search section, so its children
        # train at SearchParams' default batch size (32); the file's spec
        # pins the same value.
        spec = _tiny_spec(episodes=3)
        spec = dataclasses.replace(
            spec, search=dataclasses.replace(spec.search, child_batch_size=32)
        )
        path = spec.to_file(str(tmp_path / "spec.json"))
        report = repro.run(RunSpec.from_file(path))

        splits = prepare_dataset(
            DermatologyConfig(
                image_size=10,
                samples_per_class_majority=8,
                minority_fraction=0.5,
                seed=123,
            ),
            seed=0,
        )
        reference = repro.run(
            RunSpec(
                strategy="fahana",
                search=SearchParams(
                    episodes=3,
                    child_epochs=1,
                    pretrain_epochs=0,
                    max_searchable=2,
                    width_multiplier=0.25,
                    seed=0,
                ),
            ),
            train_dataset=splits.train,
            validation_dataset=splits.validation,
            design_spec=default_design_spec(timing_constraint_ms=1e6),
        )

        a, b = report.history, reference.history
        assert a.reward_trajectory() == b.reward_trajectory()
        assert [r.decisions for r in a.records] == [r.decisions for r in b.records]
        assert [r.descriptor for r in a.records] == [r.descriptor for r in b.records]
        for ours, theirs in zip(a.records, b.records):
            for field in (
                "episode", "reward", "accuracy", "unfairness", "latency_ms",
                "storage_mb", "num_parameters", "trained", "group_accuracy",
            ):
                assert getattr(ours, field) == getattr(theirs, field)
        assert (a.space_size, a.full_space_size, a.frozen_blocks, a.searchable_blocks) == (
            b.space_size, b.full_space_size, b.frozen_blocks, b.searchable_blocks
        )

    def test_random_strategy_runs_and_is_deterministic(self):
        first = repro.run(_tiny_spec("random"))
        second = repro.run(_tiny_spec("random"))
        assert len(first.history) == 2
        assert first.history.reward_trajectory() == second.history.reward_trajectory()
        assert first.strategy == "random"

    def test_random_differs_from_fahana_sampling(self):
        random_run = repro.run(_tiny_spec("random"))
        fahana_run = repro.run(_tiny_spec("fahana"))
        assert [r.decisions for r in random_run.history.records] != [
            r.decisions for r in fahana_run.history.records
        ]

    def test_report_artifacts_and_to_dict(self, tmp_path):
        run_dir = str(tmp_path / "run")
        report = repro.run(_tiny_spec(run_dir=run_dir, use_cache=True))
        assert report.run_dir == run_dir
        assert report.checkpoint_path and report.telemetry_path and report.spec_path
        archived = RunSpec.from_file(report.spec_path)
        assert archived == report.spec
        json.dumps(report.to_dict())  # fully JSON-encodable

    def test_injected_datasets_suppress_spec_archival(self, tiny_splits, tmp_path):
        """A run with injected (e.g. normalised) splits is not what the spec
        describes, so no run_spec.json must be archived as re-launchable."""
        run_dir = str(tmp_path / "run")
        report = repro.run(
            _tiny_spec(run_dir=run_dir),
            train_dataset=tiny_splits.train,
            validation_dataset=tiny_splits.validation,
        )
        assert report.spec_path is None
        assert not (tmp_path / "run" / "run_spec.json").exists()
        assert report.checkpoint_path is not None  # checkpointing still works

    def test_archived_spec_records_effective_engine(self, tmp_path):
        """An explicit engine= override is what the run_dir archive
        describes, so the run re-launches from its artifacts."""
        run_dir = str(tmp_path / "run")
        spec = dataclasses.replace(_tiny_spec(), engine=None)
        engine = EngineConfig(backend="thread", run_dir=run_dir, use_cache=True)
        report = repro.run(spec, engine=engine)
        archived = RunSpec.from_file(report.spec_path)
        assert archived.engine == engine
        assert archived == report.spec

    def test_unset_engine_section_roundtrips_and_runs_on_defaults(self):
        spec = dataclasses.replace(_tiny_spec(), engine=None)
        assert "engine" not in spec.to_dict()
        assert RunSpec.from_dict(spec.to_dict()).engine is None

        # An unset section runs as EngineConfig(), which the report records.
        unset = repro.run(spec)
        assert unset.engine.config == EngineConfig()
        assert unset.spec.engine == EngineConfig()

    def test_resume_through_facade(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = _tiny_spec(episodes=3, run_dir=run_dir)
        uninterrupted = repro.run(_tiny_spec(episodes=3))
        partial = dataclasses.replace(
            spec, search=dataclasses.replace(spec.search, episodes=2)
        )
        repro.run(partial)
        resumed = repro.run(spec, resume=True)
        assert resumed.resumed_from == 2
        assert (
            resumed.history.reward_trajectory()
            == uninterrupted.history.reward_trajectory()
        )

    def test_engine_conflict_rejected(self):
        spec = _tiny_spec(backend="thread")
        with pytest.raises(ValueError, match="engine configured twice"):
            repro.run(spec, engine=EngineConfig(backend="serial"))

    def test_dataset_injection_requires_both_splits(self):
        with pytest.raises(ValueError, match="together"):
            repro.run(_tiny_spec(), train_dataset=object())

    def test_bad_spec_argument_type(self):
        with pytest.raises(TypeError, match="RunSpec"):
            repro.run(42)


def _add_to_shared(increment: int) -> int:
    return process_shared() + increment


class TestSharedWorkerState:
    def test_process_pool_ships_shared_object_once(self):
        with create_pool("process", num_workers=2, shared=40) as pool:
            assert pool.uses_shared
            results = pool.map_ordered(_add_to_shared, [1, 2])
        assert [value for value, _ in results] == [41, 42]

    def test_pools_without_shared_are_unchanged(self):
        assert not create_pool("serial").uses_shared
        with create_pool("process", num_workers=1) as pool:
            assert not pool.uses_shared


class TestSpecCli:
    def test_run_subcommand_with_overrides(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec(episodes=2).to_file(spec_path)
        run_dir = str(tmp_path / "run")
        code = cli_main(
            ["run", spec_path, "--engine-run-dir", run_dir, "--search-episodes", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search summary" in out
        assert "episodes=1" in out
        archived = RunSpec.from_file(f"{run_dir}/run_spec.json")
        assert archived.search.episodes == 1
        assert archived.engine.run_dir == run_dir

    def test_run_subcommand_resume(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        run_dir = str(tmp_path / "run")
        _tiny_spec(episodes=2, run_dir=run_dir).to_file(spec_path)
        assert cli_main(["run", spec_path]) == 0
        capsys.readouterr()
        assert cli_main(["run", spec_path, "--resume"]) == 0
        assert "resumed from episode 2" in capsys.readouterr().out

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec().to_file(spec_path)
        assert cli_main(["run", spec_path, "--resume"]) == 2

    def test_validate_subcommand(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        _tiny_spec("random").to_file(spec_path)
        assert cli_main(["validate", spec_path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["strategy"] == "random"
        assert "cache key:" in captured.err

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"strategy": "nope"}', encoding="utf-8")
        assert cli_main(["validate", str(bad)]) == 2
        assert "registered strategies" in capsys.readouterr().err

    def test_run_subcommand_without_engine_section(self, tmp_path, capsys):
        """A spec that omits the (optional) engine section must run, not crash."""
        spec_path = str(tmp_path / "spec.json")
        dataclasses.replace(_tiny_spec(episodes=1), engine=None).to_file(spec_path)
        assert cli_main(["run", spec_path]) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out and "episodes=1" in out
        # --resume on an unset engine section errors cleanly, no traceback.
        assert cli_main(["run", spec_path, "--resume"]) == 2

    def test_strategies_subcommand(self, capsys):
        assert cli_main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("fahana", "monas", "random"):
            assert name in out

    def test_store_alone_turns_the_cache_on(self, tmp_path, capsys):
        """A store gives the engine a cache, so the banner says so."""
        args = ["run", SMOKE_SPEC, "--search-episodes", "1", "--no-engine-use-cache"]
        assert cli_main(args + ["--store-root", str(tmp_path / "store")]) == 0
        assert "cache=on" in capsys.readouterr().out

    def test_sigint_stops_at_a_wave_boundary_and_resumes(self, tmp_path):
        """The first SIGINT checkpoints at the next wave boundary and exits
        130; ``--resume`` then completes the run a straight one computes."""
        run_dir = str(tmp_path / "run")
        overrides = {"design.timing_constraint_ms": 1e6, "search.episodes": 120}
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        command = [sys.executable, "-m", "repro.api.cli", "run"]
        flags = ["--design-timing-constraint-ms", "1e6", "--search-episodes", "120"]
        child = subprocess.Popen(
            command + [SMOKE_SPEC, *flags, "--engine-run-dir", run_dir],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            telemetry = os.path.join(run_dir, "telemetry.jsonl")
            deadline = time.monotonic() + 120
            while child.poll() is None and time.monotonic() < deadline:
                if os.path.exists(telemetry):
                    with open(telemetry, encoding="utf-8") as handle:
                        if f'"{EPISODE_FINISHED}"' in handle.read():
                            break
                time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
        assert child.returncode == 130, err
        assert "--resume" in err
        assert has_checkpoint(run_dir)
        with open(telemetry, encoding="utf-8") as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert kinds.count(RUN_CANCELLED) == 1
        done = kinds.count(EPISODE_FINISHED)
        assert 0 < done < 120

        resumed = subprocess.run(
            command + [os.path.join(run_dir, "run_spec.json"), "--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"resumed from episode {done}" in resumed.stdout
        history = load_checkpoint(run_dir).history
        straight = repro.run(
            RunSpec.from_file(SMOKE_SPEC).with_overrides(values=overrides)
        ).history
        assert [r.reward for r in history.records] == [
            r.reward for r in straight.records
        ]
        assert [r.descriptor for r in history.records] == [
            r.descriptor for r in straight.records
        ]

    @pytest.mark.parametrize("argv", [[], ["--episodes", "10"]])
    def test_a_subcommand_is_required(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert "{run,validate,strategies," in capsys.readouterr().err


def _console_scripts():
    """``setup.py``'s ``console_scripts`` entries, read without running it."""
    with open(os.path.join(ROOT, "setup.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "entry_points":
            return ast.literal_eval(node.value)["console_scripts"]
    raise AssertionError("setup.py declares no entry_points")


class TestFrontDoor:
    def test_console_scripts_resolve_to_callables(self):
        scripts = _console_scripts()
        assert scripts
        for script in scripts:
            module, attr = script.split("=")[1].strip().split(":")
            assert callable(getattr(importlib.import_module(module), attr)), script

    def test_core_and_engine_import_nothing_above_them(self):
        def package(module):
            return ".".join(module.split(".")[:2])

        graph = build_import_graph(load_modules([os.path.join(ROOT, "src", "repro")]))
        upward = sorted(
            f"{source} -> {target}"
            for source, targets in graph.edges.items()
            if package(source) in ("repro.core", "repro.engine")
            for target in targets
            if package(target) in ("repro.api", "repro.service")
        )
        assert upward == []


class TestRootExports:
    def test_lazy_api_aliases(self):
        assert repro.RunSpec is RunSpec
        assert callable(repro.run)
        assert "run" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist
